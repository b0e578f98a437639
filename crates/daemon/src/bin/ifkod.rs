//! `ifkod` — the tuning daemon executable (`ifkod --help` lists its
//! flags).
//!
//! Serves tune/query/pack requests over the Unix socket until a client
//! sends `shutdown` (`ifko daemon stop --socket PATH`). The tuned-results
//! database and evaluation cache stay resident for the daemon's
//! lifetime, so repeat tunes short-circuit on verified warm starts and
//! repeat candidates hit the cross-phase cache.

use ifko::flags::{num, Command, Flag};
use ifko_daemon::server::{Daemon, DaemonConfig};
use std::process::ExitCode;

#[rustfmt::skip]
const IFKOD: Command = Command {
    about: "Serve tune, query and pack requests on a Unix socket until `ifko daemon stop`.",
    ..Command::new("ifkod", &[&[
        Flag::new("-s, --socket PATH", "socket to serve (default results/ifkod.sock)"),
        Flag::new("--db DIR", "tuned-results database (default results/db)"),
        Flag::new("--cache DIR", "persist the evaluation cache in DIR"),
        Flag::new("-j, --jobs N", "threads per candidate batch").parse(num::<usize>),
        Flag::new("-q, --quiet", "no per-request log lines"),
    ]])
};

fn main() -> ExitCode {
    let given = IFKOD.from_env();
    let mut cfg = DaemonConfig::new(
        given.raw("--socket").unwrap_or("results/ifkod.sock"),
        given.raw("--db").unwrap_or("results/db"),
    );
    cfg.cache_dir = given.raw("--cache").map(Into::into);
    cfg.jobs = given.get("--jobs").unwrap_or(cfg.jobs);
    cfg.quiet = given.has("--quiet");
    match Daemon::start(cfg) {
        Ok(handle) => {
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ifkod: {e}");
            ExitCode::from(2)
        }
    }
}
