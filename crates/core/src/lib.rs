//! # ifko — the iterative and empirical compilation framework
//!
//! This crate is the paper's primary contribution: the part of the system
//! that makes the FKO compiler *iterative and empirical* (the paper's
//! Figure 1). It contains:
//!
//! * [`runner`] — executes any compiled kernel on the simulated machine
//!   under a memory **context** (out-of-cache or in-L2-cache, the paper's
//!   two timing regimes) and extracts results, one [`Outputs`] per run
//!   whether the kernel is from the BLAS suite or a `.hil` source;
//! * [`generic`] — the one operand set ([`GenericWorkload`]) and the
//!   differential comparison that verifies kernels with no reference;
//! * [`tester`] — checks a candidate kernel's output against the Rust
//!   reference implementation ("unnecessary in theory, but useful in
//!   practice");
//! * [`timer`] — cycle-accurate timing with the paper's protocol: each
//!   timing repeated (six times by default) on a quiet machine and the
//!   **minimum** taken, with deterministic synthetic interference standing
//!   in for the walltime noise the paper guards against;
//! * [`search`] — the modified line search over the fundamental
//!   transformation parameters (§2.3), seeded at FKO's defaults, with
//!   interaction-aware refinement (restricted 2-D re-sweeps) and
//!   per-phase gain tracking (Figure 7's decomposition);
//! * [`eval`] — the evaluation engine: batched parallel candidate
//!   evaluation (`jobs` worker threads or `workers` processes,
//!   bit-identical results at any width) over the cache, observed
//!   through the trace layer;
//! * [`cache`] — the cross-phase [`EvalCache`] (one map, optionally
//!   persisted to `results/cache/evals.jsonl`);
//! * [`trace`] — the search-trace format: [`SearchEvent`] records, their
//!   JSONL writer and reader, the [`TraceSink`]s and the [`Span`] guard;
//!   [`chrome`] renders a trace as a Chrome/Perfetto flame chart;
//! * `journal` (crate-private) — the one crash-safe append-only JSONL
//!   journal under the evaluation cache and the tuned-results database;
//! * [`fault`] — deterministic, seeded chaos engineering for the
//!   evaluation pipeline ([`FaultPlan`], `--chaos SEED[:RATE]`): transient
//!   compile failures, tester flakes, timing-rep spikes, and truncated
//!   journal writes, answered by bounded retries, robust timing
//!   statistics, graceful candidate failure, and crash-safe persistence;
//! * [`strategy`] — the search strategies, each a function of one search
//!   context that owns the search's outcome: the line search, three
//!   seeded global strategies, a budget-aware portfolio that races them
//!   (all picked by [`StrategySpec`]), and the persistent tuned-results
//!   database ([`TunedDb`](strategy::TunedDb)) used for warm starts;
//! * [`config`] — [`TuneConfig`], the builder-style configuration every
//!   entry point takes;
//! * [`flags`] — the one flag table behind every command line: parsing,
//!   `--help`, and the tune flags `ifko tune` and the experiment
//!   binaries share, applied to a `TuneConfig` in one place;
//! * [`driver`] — the one tune driver behind `TuneConfig::tune` and
//!   `TuneConfig::tune_source`, which both return its one
//!   [`TuneOutcome`], over the crate's one evaluation path (a subject —
//!   session, scope, operand set, and an oracle that is the verdict and
//!   nothing else — and its staged compile → simulate → test → time
//!   function, which the engine, the worker protocol and the daemon all
//!   call);
//! * [`report`] and [`explain`] — the trace analyzers, over one trace
//!   fold, printing text and Markdown through `doc` (crate-private), the
//!   one document model of heading, line and table blocks;
//! * [`json`] — the one JSON codec: one object writer and one typed
//!   field reader; [`esc`](json::esc) is `ifko_fko::diag::json_escape`.
//!
//! Most users want the [`prelude`]:
//!
//! ```
//! use ifko::prelude::*;
//!
//! let cfg = TuneConfig::quick(1024).jobs(2);
//! let out = cfg.tune(Kernel { op: BlasOp::Dot, prec: Prec::D }).unwrap();
//! assert!(out.result.best_cycles <= out.result.default_cycles);
//! ```

pub mod artifact;
pub mod cache;
pub mod chrome;
pub mod config;
mod doc;
pub mod driver;
pub mod eval;
pub mod explain;
pub mod fault;
pub mod flags;
pub mod generic;
mod journal;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod report;
pub mod runner;
pub mod search;
pub mod strategy;
mod subject;
pub mod tester;
pub mod timer;
pub mod trace;
pub mod worker;

pub use config::TuneConfig;
pub use driver::{flops_rate, TuneError, TuneOutcome};
pub use eval::{
    machine_fingerprint, EvalCache, EvalEngine, EvalEvent, EvalScope, JsonlSink, MemSink,
    SearchEvent, Span, SpanEvent, Tally, TraceSink,
};
pub use explain::{explain_files, Bottleneck, ExplainReport};
pub use fault::FaultPlan;
pub use generic::GenericWorkload;
pub use metrics::MetricsRegistry;
pub use runner::{Context, KernelArgs, Outputs, RunFailure};
pub use search::{SearchOptions, SearchResult};
pub use strategy::{Budget, StrategySpec, TunedDb, TunedRecord};
pub use tester::verify;
pub use timer::Timer;

/// Everything a tuning run needs, in one `use`.
pub mod prelude {
    pub use crate::config::TuneConfig;
    pub use crate::driver::{flops_rate, TuneError, TuneOutcome};
    pub use crate::eval::{
        EvalCache, EvalEngine, EvalEvent, EvalScope, JsonlSink, MemSink, SearchEvent, Span,
        SpanEvent, TraceSink,
    };
    pub use crate::fault::FaultPlan;
    pub use crate::metrics::{self, MetricsRegistry};
    pub use crate::runner::Context;
    pub use crate::search::{Phase, PhaseGain, SearchOptions, SearchResult};
    pub use crate::strategy::{Budget, StrategySpec, TunedDb};
    pub use crate::timer::Timer;
    pub use ifko_blas::ops::BlasOp;
    pub use ifko_blas::{Kernel, Workload, ALL_KERNELS};
    pub use ifko_xsim::isa::Prec;
    pub use ifko_xsim::{opteron, p4e, MachineConfig};
}
