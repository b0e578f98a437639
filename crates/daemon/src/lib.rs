//! `ifkod` — the long-running tuning daemon (tuning-as-a-service).
//!
//! A batch tuner pays full search cost on every invocation and forgets
//! everything at exit. The daemon keeps the expensive state resident —
//! the [`TunedDb`](ifko::strategy::TunedDb) index and the
//! cross-phase [`EvalCache`](ifko::EvalCache) — and serves tune / query
//! / pack requests over a local Unix socket, so a warm-start lookup
//! answers at in-memory-index latency and a repeat tune short-circuits
//! on its verified stored winner.
//!
//! * [`proto`] — the wire protocol: length-prefixed JSON frames
//!   (4-byte big-endian length + UTF-8 payload), zero-dep on both ends.
//! * [`server`] — [`Daemon`](server::Daemon): the accept loop, one
//!   handler thread per connection, one resident subject per resolved
//!   tune request (its slot's lock is the single flight that coalesces
//!   concurrent requests resolving alike), and `ifkod_*` metrics on the
//!   global registry (scrapable via the `metrics` request).
//! * [`client`] — [`Client`](client::Client): a thin blocking client
//!   used by `ifko tune --remote`, `ifko daemon <cmd>`, and the tests.
//!
//! Determinism contract: the daemon extends the engine's bit-identity
//! guarantee to the socket boundary. N concurrent clients tuning the
//! same kernel/machine/context converge to the bit-identical winner of
//! a serial run: requests that resolve alike coalesce (single-flight)
//! so one session computes while the rest wait, then re-verify the
//! stored winner through the normal warm-start path.

pub mod client;
pub mod server;

/// The wire protocol lives in the core crate (shared with the worker
/// pool); re-exported here so `ifko_daemon::proto::*` paths keep
/// working.
pub use ifko::proto;

pub use client::Client;
pub use proto::{read_frame, write_frame, MAX_FRAME};
pub use server::{Daemon, DaemonConfig, DaemonHandle};
