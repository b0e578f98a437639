//! One-call tuning driver: ties the front end, analysis, search, and
//! timing together (the outer loop of the paper's Figure 1).
//!
//! Configuration lives in [`TuneConfig`](crate::config::TuneConfig), whose
//! `tune` / `tune_source` methods open a subject (what is being tuned,
//! see `subject.rs`) and hand it to `tune_subject` here, which builds
//! the one [`TuneOutcome`] both return.

use crate::config::TuneConfig;
use crate::eval::Span;
use crate::metrics;
use crate::search::SearchResult;
use crate::strategy::{db_key, run_search, Probe, TunedRecord};
use crate::subject::{Oracle, Subject};
use crate::worker::WorkerSpec;
use ifko_blas::Kernel;
use ifko_fko::{CompileOpts, CompiledKernel, SessionStats, TransformParams};
use ifko_xsim::{FeatureVector, MachineConfig};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Everything produced by tuning one kernel — suite or `.hil` source —
/// on one machine/context.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    pub result: SearchResult,
    /// The winning kernel, recompiled at the best parameters.
    pub compiled: CompiledKernel,
    /// Final reported cycles and MFLOPS. A suite kernel's are the paper's
    /// timer protocol over the winner's clean run and its Figure 5 rate;
    /// a `.hil` source's are that run's exact count (its candidates are
    /// timed exactly too) and 0, since it has no flop count.
    pub cycles: u64,
    pub mflops: f64,
    /// Table-3 style parameter summary for the winning point.
    pub table3_row: String,
    /// The winner's size-normalized counter vector (one clean run of the
    /// recompiled winner), for `ifko tune`'s report.
    pub features: FeatureVector,
}

/// Tuning failure.
#[derive(Debug)]
pub struct TuneError(pub String);

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for TuneError {}

/// Tune `subject` under `cfg`: the one driver behind
/// [`TuneConfig::tune_opened`], and so behind `tune` and `tune_source`.
/// It owns the worker-pool spawn, the warm / transfer lookup in the tuned
/// database, the search itself, the winner's recompile and final run,
/// the database store, the final report, and the run-level spans and
/// metrics — so whatever is tuned, a tune is traced, counted, persisted
/// and reported the same way.
pub(crate) fn tune_subject(subject: &Subject, cfg: &TuneConfig) -> Result<TuneOutcome, TuneError> {
    let scope = &subject.scope;
    let fail = |what: &str| TuneError(format!("{}: {what}", scope.kernel));
    // A subject's first tune reports its open: the root span starts there
    // and its session counters are counted from zero. A later tune of a
    // subject kept open starts at its request and counts what it adds.
    let opened = subject.take_open();
    let started = opened.map_or_else(Instant::now, |(at, _)| at);
    let pipe0 = opened.map_or_else(|| subject.sess.stats(), |_| SessionStats::default());
    let mut engine = cfg.engine();
    let reg = engine.metrics().clone();
    // Worker-process pool (`--workers N`): candidates evaluate in `ifko
    // worker` children, which rebuild this subject from the handshake.
    // Spawn failure is the documented degradation path — the engine just
    // keeps evaluating in-process.
    if cfg.workers > 0 {
        match cfg.spawn_worker_pool(&WorkerSpec::of(subject)) {
            Some(pool) => engine = engine.with_worker_pool(pool),
            None => reg.counter(metrics::ENGINE_WORKER_FALLBACKS).inc(),
        }
    }
    let sink = engine.trace().cloned();
    let tune_span = Span::root(sink.clone(), scope.key(), "tune").since(started);
    if let Some((_, parse)) = opened {
        Span::emit(&sink, scope.key(), "parse", Some(tune_span.id()), parse);
    }

    // The stored winner the search starts from (this kernel/precision/
    // machine/context/revision's record, else the nearest by static
    // features) is probed again before it is trusted (`run_search`).
    let prec = format!("{:?}", subject.sess.ir().prec);
    let db = cfg.db.as_ref().map(|db| {
        let key = db_key(
            &scope.kernel,
            &prec,
            &scope.machine,
            scope.context,
            db.rev(),
        );
        (db, key)
    });
    // The kernel's static feature vector at FKO defaults, priced only for
    // its two readers: the similarity key stored with every tuned record,
    // and the nearest-record lookup when the key has none. A second call
    // is a cache hit.
    let defaults_sfv = || {
        let defaults = TransformParams::defaults(subject.sess.report(), &subject.machine);
        let pred = subject.sess.predict(&defaults, &subject.machine).ok()?;
        Some(pred.features().values)
    };
    let stored = db
        .as_ref()
        .and_then(|(db, key)| db.lookup_or_nearest(key, defaults_sfv));
    let (result, probe) = run_search(subject, &engine, cfg.strategy, cfg.budget, stored.as_ref());

    let recompile_span = tune_span.child("recompile");
    let compiled = subject.sess.compile(&result.best, CompileOpts::default());
    drop(recompile_span);
    let compiled = compiled.map_err(|e| fail(&format!("best params failed to recompile: {e}")))?;
    // The winner's run, made when the search ran its point on this subject,
    // carries both the cycles reported and the winner's feature vector.
    let final_span = tune_span.child("final-time");
    let ran = subject.run(&result.best, &compiled, Some(&final_span), Some(&engine));
    drop(final_span);
    // Plus the baseline runs a differential oracle made outside the
    // engine: at open, or deriving its operands again after a trim.
    reg.counter(metrics::ENGINE_SIMULATIONS)
        .add(subject.baseline_runs.swap(0, Ordering::Relaxed));
    let final_stats = ran
        .map_err(|e| fail(&format!("winner failed to run: {e}")))?
        .stats;

    // Persist the verified winner only where the key had no record, or
    // its stored point was probed and failed to verify: a record the
    // probe verified, or one the budget kept it from, stays as it is.
    let keep = matches!(stored, Some((_, false))) && probe != Some(Probe::Refuted);
    if let Some((db, key)) = db.filter(|_| !keep) {
        db.store_with(
            &TunedRecord {
                key,
                kernel: scope.kernel.clone(),
                prec,
                machine: scope.machine.clone(),
                context: scope.context.to_string(),
                rev: db.rev().to_string(),
                n: scope.n,
                seed: scope.seed,
                strategy: result.winner_strategy.clone(),
                cycles: result.best_cycles,
                params: result.best.clone(),
                features: defaults_sfv(),
            },
            subject.opts.faults.as_ref(),
        );
    }

    reg.counter(metrics::TUNE_RUNS).inc();
    reg.histogram(metrics::TUNE_WALL_US, metrics::US_BUCKETS)
        .observe(started.elapsed().as_micros() as u64);
    let pipe = subject.sess.stats();
    reg.counter(metrics::PIPE_COMPILES)
        .add(pipe.compiles - pipe0.compiles);
    reg.counter(metrics::PIPE_SUBCACHE_HITS)
        .add(pipe.subcache_hits - pipe0.subcache_hits);
    reg.counter(metrics::PIPE_SUBCACHE_MISSES)
        .add(pipe.subcache_misses - pipe0.subcache_misses);
    reg.counter(metrics::PIPE_PREDICTIONS)
        .add(pipe.predictions - pipe0.predictions);

    // The report: a suite kernel's winner goes through the paper's final
    // timer, a source's keeps its exact count like its candidates did.
    let (cycles, mflops) = match &subject.oracle {
        Oracle::Reference { kernel, .. } => {
            let cycles = cfg
                .final_timer
                .time_from(final_stats.cycles, &compiled.name);
            (
                cycles,
                flops_rate(*kernel, scope.n, cycles, &subject.machine),
            )
        }
        Oracle::Baseline { .. } => (final_stats.cycles, 0.0),
    };
    subject.trim(&result.best);
    Ok(TuneOutcome {
        table3_row: result.best.table3_row(subject.sess.report()),
        result,
        compiled,
        cycles,
        mflops,
        features: FeatureVector::from_stats(&final_stats, scope.n as u64),
    })
}

/// MFLOPS for a kernel run (paper Figure 5 metric).
pub fn flops_rate(kernel: Kernel, n: usize, cycles: u64, machine: &MachineConfig) -> f64 {
    kernel.flops(n as u64) as f64 * machine.mhz as f64 / cycles.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Context;
    use ifko_blas::ops::BlasOp;
    use ifko_xsim::isa::Prec;
    use ifko_xsim::{opteron, p4e};

    #[test]
    fn tune_ddot_beats_or_matches_defaults() {
        let k = Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        };
        let out = TuneConfig::quick(8192).tune(k).unwrap();
        assert!(out.result.best_cycles <= out.result.default_cycles);
        assert!(out.mflops > 0.0);
        assert!(out.table3_row.starts_with("Y:"), "{}", out.table3_row);
        // The winner's feature vector is populated and finite.
        assert_eq!(out.features.values.len(), FeatureVector::NAMES.len());
        assert_eq!(FeatureVector::NAMES[0], "cycles_per_elem");
        assert!(out.features.values[0] > 0.0);
        assert!(out.features.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tune_works_single_precision_on_opteron() {
        let k = Kernel {
            op: BlasOp::Scal,
            prec: Prec::S,
        };
        let out = TuneConfig::quick(1024)
            .machine(opteron())
            .context(Context::InL2)
            .tune(k)
            .unwrap();
        assert!(out.cycles > 0);
    }

    #[test]
    fn defaults_time_is_reproducible_and_geq_tuned() {
        let k = Kernel {
            op: BlasOp::Asum,
            prec: Prec::D,
        };
        let cfg = TuneConfig::quick(4096);
        let d1 = cfg.time_defaults(k).unwrap();
        let d2 = cfg.time_defaults(k).unwrap();
        assert_eq!(d1, d2);
        let tuned = cfg.tune(k).unwrap();
        assert!(tuned.cycles <= d1);
    }

    #[test]
    fn mflops_formula() {
        let k = Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        };
        let mach = p4e(); // 2800 MHz
                          // 2N flops, N=1000, 2800 cycles -> 2000 flops in 1us = 2000 MFLOPS.
        assert!((flops_rate(k, 1000, 2800, &mach) - 2000.0).abs() < 1e-9);
    }
}
