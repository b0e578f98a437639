//! Chaos-killed workers: the worker pool must survive its children
//! aborting mid-batch. `IFKO_WORKER_KILL_AFTER=K` makes every spawned
//! worker abort on its (K+1)-th evaluation request — a deterministic
//! seeded kill point — so a two-worker pool loses both children partway
//! through the search, in-flight candidates re-dispatch to survivors,
//! and once the pool is exhausted evaluation degrades to in-process.
//! The contract under all of that:
//!
//! 1. the winner is **bit-identical** to a clean in-process run, on
//!    both machine models;
//! 2. worker deaths never leak into the per-candidate fault accounting
//!    — a chaos plan's retry/fault/outlier/failed counts match the
//!    in-process chaos contract exactly, and the trace sums to them.

use ifko::prelude::*;
use ifko::worker::WorkerLauncher;

const CHAOS_SEED: u64 = 7;
const CHAOS_RATE: f64 = 0.25;

/// Launcher whose workers abort on their 4th eval request.
fn killer_launcher() -> WorkerLauncher {
    WorkerLauncher::new(env!("CARGO_BIN_EXE_ifko-worker")).env("IFKO_WORKER_KILL_AFTER", "3")
}

fn chaos_cfg(machine: MachineConfig) -> TuneConfig {
    TuneConfig::quick(1024)
        .machine(machine)
        .faults(FaultPlan::uniform(CHAOS_SEED, CHAOS_RATE))
        .max_retries(8)
}

/// Both machine models: clean run, in-process chaos run, and a
/// worker-pool chaos run whose workers are all killed mid-batch agree
/// bit for bit — winner and fault accounting alike.
#[test]
fn killed_workers_preserve_the_clean_winner_on_both_machines() {
    for (mach, kernel) in [
        (
            p4e(),
            Kernel {
                op: BlasOp::Dot,
                prec: Prec::D,
            },
        ),
        (
            opteron(),
            Kernel {
                op: BlasOp::Axpy,
                prec: Prec::D,
            },
        ),
    ] {
        let name = format!("{} on {}", kernel.name(), mach.name);
        let clean = TuneConfig::quick(1024)
            .machine(mach.clone())
            .tune(kernel)
            .unwrap();
        let in_proc = chaos_cfg(mach.clone()).tune(kernel).unwrap();
        let reg = std::sync::Arc::new(ifko::MetricsRegistry::new());
        let pooled = chaos_cfg(mach.clone())
            .workers(2)
            .worker_launcher(killer_launcher())
            .metrics(reg.clone())
            .tune(kernel)
            .unwrap();

        // The kill hook actually fired: both workers died and their
        // in-flight candidates were re-dispatched or drained in-process.
        let deaths = reg.counter(ifko::metrics::ENGINE_WORKER_DEATHS).get();
        assert_eq!(deaths, 2, "{name}: expected both workers to be killed");
        assert!(
            reg.counter(ifko::metrics::ENGINE_WORKER_REDISPATCHES).get() > 0,
            "{name}: no candidate was re-dispatched"
        );
        assert!(
            reg.counter(ifko::metrics::ENGINE_WORKER_EVALS).get() > 0,
            "{name}: nothing evaluated remotely before the kills"
        );

        // Winner identical to the clean run.
        assert_eq!(
            clean.result.best, pooled.result.best,
            "{name}: killed workers changed the winning parameters"
        );
        assert_eq!(
            clean.result.best_cycles, pooled.result.best_cycles,
            "{name}: killed workers changed the winning cycle count"
        );
        assert_eq!(clean.cycles, pooled.cycles, "{name}: final timing drifted");
        assert_eq!(clean.table3_row, pooled.table3_row, "{name}");

        // Worker deaths are invisible to the chaos accounting: the
        // pooled run reports exactly the in-process fault profile.
        assert_eq!(
            (
                in_proc.result.retries,
                in_proc.result.faults,
                in_proc.result.outliers,
                in_proc.result.failed
            ),
            (
                pooled.result.retries,
                pooled.result.faults,
                pooled.result.outliers,
                pooled.result.failed
            ),
            "{name}: worker deaths leaked into fault accounting"
        );
        assert!(
            pooled.result.faults > 0,
            "{name}: chaos plan injected nothing at rate {CHAOS_RATE}"
        );
    }
}

/// The trace stream from a killed-worker run still accounts for every
/// fault and retry (per-event sums equal the search totals, exactly as
/// the in-process chaos contract requires).
#[test]
fn killed_worker_trace_accounting_matches_the_in_process_contract() {
    let kernel = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    let sink = MemSink::new();
    let pooled = chaos_cfg(p4e())
        .workers(2)
        .worker_launcher(killer_launcher())
        .trace(sink.clone())
        .tune(kernel)
        .unwrap();
    let evs = sink.evals();
    let (mut retries, mut faults, mut outliers, mut failed) = (0u32, 0u32, 0u32, 0u32);
    for e in &evs {
        retries += e.retries;
        faults += e.faults;
        outliers += e.outliers;
        failed += e.failed as u32;
    }
    assert_eq!(retries, pooled.result.retries, "trace retries != result");
    assert_eq!(faults, pooled.result.faults, "trace faults != result");
    assert_eq!(outliers, pooled.result.outliers, "trace outliers != result");
    assert_eq!(failed, pooled.result.failed, "trace failures != result");
    assert!(faults > 0, "chaos trace recorded no faults");
    // Some evaluations went remote before the kills and carry their
    // worker's id; re-dispatched-then-drained candidates are untagged.
    assert!(
        evs.iter().any(|e| e.worker.is_some()),
        "no trace event was worker-tagged"
    );
}

/// Kill-after reproducibility: the same kill point and chaos seed give
/// the same result and the same death/re-dispatch profile on a rerun.
#[test]
fn killed_worker_runs_are_reproducible() {
    let kernel = Kernel {
        op: BlasOp::Scal,
        prec: Prec::D,
    };
    let run = || {
        let reg = std::sync::Arc::new(ifko::MetricsRegistry::new());
        let out = chaos_cfg(p4e())
            .workers(2)
            .worker_launcher(killer_launcher())
            .metrics(reg.clone())
            .tune(kernel)
            .unwrap();
        (
            format!("{:?}", out.result.best),
            out.result.best_cycles,
            out.cycles,
            out.result.retries,
            out.result.faults,
            reg.counter(ifko::metrics::ENGINE_WORKER_DEATHS).get(),
        )
    };
    assert_eq!(run(), run(), "killed-worker run is not reproducible");
}

/// A chaos seed above 2^53 crosses the worker handshake exactly: were it
/// rounded on the way in, the workers would replay a different fault
/// plan from the dispatcher's, and serial and pooled runs would part
/// ways in both winner and tally.
#[test]
fn wide_chaos_seed_gives_the_serial_run_under_a_pool() {
    let kernel = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    let cfg = || {
        TuneConfig::quick(1024)
            .faults(FaultPlan::uniform((1 << 53) + 1, 0.3))
            .max_retries(8)
    };
    let serial = cfg().tune(kernel).unwrap();
    let reg = std::sync::Arc::new(ifko::MetricsRegistry::new());
    let pooled = cfg()
        .workers(2)
        .worker_launcher(WorkerLauncher::new(env!("CARGO_BIN_EXE_ifko-worker")))
        .metrics(reg.clone())
        .tune(kernel)
        .unwrap();
    assert!(
        reg.counter(ifko::metrics::ENGINE_WORKER_EVALS).get() > 0,
        "the pool refused the handshake and nothing ran remotely"
    );
    let profile = |o: &ifko::TuneOutcome| {
        let r = &o.result;
        (
            format!("{:?}", r.best),
            r.best_cycles,
            o.cycles,
            (r.retries, r.faults, r.outliers, r.failed),
        )
    };
    assert_eq!(profile(&serial), profile(&pooled));
    assert!(serial.result.faults > 0, "the chaos plan injected nothing");
}
