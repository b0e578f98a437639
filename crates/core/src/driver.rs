//! One-call tuning driver: ties the front end, analysis, search, and
//! timing together (the outer loop of the paper's Figure 1).
//!
//! Configuration lives in [`TuneConfig`](crate::config::TuneConfig); the
//! entry points here are what its `tune` / `time_defaults` methods call.

use crate::config::TuneConfig;
use crate::eval::{EvalScope, Span};
use crate::metrics;
use crate::runner::Context;
use crate::search::{blas_eval_point, SearchResult};
use crate::strategy::{db_key, STRATEGY_WARM};
use ifko_blas::hil_src::hil_source;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{CompileOpts, CompileSession, CompiledKernel, TransformParams};
use ifko_xsim::{FeatureVector, MachineConfig};

/// Everything produced by tuning one kernel on one machine/context.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    pub kernel: Kernel,
    pub machine: String,
    pub context: Context,
    pub n: usize,
    pub result: SearchResult,
    /// The winning kernel, recompiled at the best parameters.
    pub compiled: CompiledKernel,
    /// Final reported cycles (paper timer protocol) and MFLOPS.
    pub cycles: u64,
    pub mflops: f64,
    /// Table-3 style parameter summary for the winning point.
    pub table3_row: String,
    /// Per-stage compile-time profile (empty unless
    /// [`TuneConfig::profile_pipeline`](crate::TuneConfig::profile_pipeline)
    /// is on).
    pub pipeline_profile: Vec<ifko_fko::StageProfile>,
    /// The winner's size-normalized counter vector (one clean run of the
    /// recompiled winner) — the transfer warm-start hook (ROADMAP item 3).
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

/// Tune one kernel under a [`TuneConfig`] (called by `TuneConfig::tune`).
pub(crate) fn tune_with_config(kernel: Kernel, cfg: &TuneConfig) -> Result<TuneOutcome, TuneError> {
    let machine = &cfg.machine;
    let context = cfg.context;
    let n = cfg.size();
    let mut engine = cfg.engine();
    let reg = engine.metrics().clone();
    let sink = engine.trace().cloned();
    let scope = EvalScope::new(
        kernel.name(),
        machine,
        context,
        n,
        cfg.seed,
        &cfg.search.timer,
    );
    // Worker-process pool (`--workers N`): candidates evaluate in `ifko
    // worker` children. Spawn failure is the documented degradation path
    // — the engine just keeps evaluating in-process.
    if cfg.workers_of() > 0 {
        let spec = crate::worker::WorkerSpec::blas(
            &kernel.name(),
            machine,
            context,
            n,
            cfg.seed,
            &cfg.search,
            &scope,
        );
        match cfg.spawn_worker_pool(&spec) {
            Some(pool) => engine = engine.with_worker_pool(pool),
            None => reg.counter(metrics::ENGINE_WORKER_FALLBACKS).inc(),
        }
    }
    let tune_span = Span::root(sink, scope.key(), "tune");
    let t0 = std::time::Instant::now();

    let src = hil_source(kernel.op, kernel.prec);
    let parse_span = tune_span.child("parse");
    let sess = CompileSession::from_source(&src, machine);
    drop(parse_span);
    let sess = sess.map_err(|e| TuneError(format!("{}: {e}", kernel.name())))?;
    if cfg.profile_pipeline {
        sess.enable_profiling();
    }
    let workload = Workload::generate(n, cfg.seed);

    // Warm start: a stored winner for this kernel/precision/machine/
    // context/revision is re-verified through the engine before it can
    // end the search early (see `strategy::run_search`).
    let prec = format!("{:?}", kernel.prec);
    let key = cfg.db.as_ref().map(|db| {
        db_key(
            &kernel.name(),
            &prec,
            &scope.machine,
            context.label(),
            db.rev(),
        )
    });
    let warm = match (&cfg.db, &key) {
        (Some(db), Some(k)) => db.lookup(k),
        _ => None,
    };

    // The static cost model for this session: locality follows the
    // timing context (out-of-cache streams from memory; the in-L2
    // context is bounded by the L2 side of the model). Always attached —
    // at `--model-prune 0` predictions are trace-only.
    let locality = if context == Context::OutOfCache {
        ifko_fko::Locality::Mem
    } else {
        ifko_fko::Locality::L2
    };
    let model = |p: &TransformParams| {
        sess.predict(p, machine)
            .ok()
            .map(|pred| pred.predicted_cycles(n as u64, locality))
    };

    // The kernel's static feature vector at FKO defaults: the similarity
    // key stored with every tuned record, and — when the exact warm
    // lookup missed — the probe for a transfer seed from the nearest
    // tuned neighbor.
    let defaults_sfv = sess
        .predict(&TransformParams::defaults(sess.report(), machine), machine)
        .ok()
        .map(|pred| pred.features().values);
    let transfer = match (&cfg.db, &key, &warm, &defaults_sfv) {
        (Some(db), Some(k), None, Some(sfv)) => db.nearest_by_features(sfv, k),
        _ => None,
    };

    let result = crate::strategy::run_search(
        cfg.strategy,
        cfg.budget,
        warm.as_ref(),
        transfer.as_ref(),
        Some(&model),
        sess.report(),
        machine,
        &cfg.search,
        cfg.seed,
        &engine,
        &scope,
        |search_id| {
            blas_eval_point(
                &sess,
                kernel,
                &workload,
                context,
                machine,
                &cfg.search,
                Some(&engine),
                &scope,
                search_id,
            )
        },
    );
    let recompile_span = tune_span.child("recompile");
    let compiled = sess.compile(&result.best, CompileOpts::default());
    drop(recompile_span);
    let compiled = compiled.map_err(|e| {
        TuneError(format!(
            "{}: best params failed to recompile: {e}",
            kernel.name()
        ))
    })?;

    let args = crate::runner::KernelArgs {
        kernel,
        workload: &workload,
        context,
    };
    // One clean run of the winner yields both the reported cycles (the
    // paper's timer protocol over its cycle count) and its counter
    // vector.
    let final_span = tune_span.child("final-time");
    let out = crate::runner::run_once(&compiled, &args, machine);
    drop(final_span);
    reg.counter(metrics::ENGINE_SIMULATIONS).inc();
    let out =
        out.map_err(|e| TuneError(format!("{}: winner failed to run: {e}", kernel.name())))?;
    let cycles = cfg.final_timer.time_from(out.stats.cycles, &compiled.name);
    let mflops = flops_rate(kernel, n, cycles, machine);
    let features = FeatureVector::from_stats(&out.stats, n as u64);

    // Persist the verified winner — unless this run itself was answered
    // by the database (re-storing would overwrite the finder's name).
    if let (Some(db), Some(key)) = (&cfg.db, &key) {
        if result.strategy != STRATEGY_WARM {
            db.store_with(
                &crate::strategy::TunedRecord {
                    key: key.clone(),
                    kernel: kernel.name(),
                    prec,
                    machine: scope.machine.clone(),
                    context: context.label().to_string(),
                    rev: db.rev().to_string(),
                    n,
                    seed: cfg.seed,
                    strategy: result.winner_strategy.clone(),
                    cycles: result.best_cycles,
                    params: result.best.clone(),
                    features: defaults_sfv.clone(),
                },
                cfg.search.faults.as_ref(),
            );
        }
    }

    reg.counter(metrics::TUNE_RUNS).inc();
    reg.histogram(metrics::TUNE_WALL_US, metrics::US_BUCKETS)
        .observe(t0.elapsed().as_micros() as u64);
    let pipe = sess.stats();
    reg.counter(metrics::PIPE_COMPILES).add(pipe.compiles);
    reg.counter(metrics::PIPE_SUBCACHE_HITS)
        .add(pipe.subcache_hits);
    reg.counter(metrics::PIPE_SUBCACHE_MISSES)
        .add(pipe.subcache_misses);

    Ok(TuneOutcome {
        kernel,
        machine: machine.name.to_string(),
        context,
        n,
        table3_row: result.best.table3_row(sess.report()),
        result,
        compiled,
        cycles,
        mflops,
        pipeline_profile: sess.profile(),
        features,
    })
}

/// Time FKO's static defaults under a [`TuneConfig`] (called by
/// `TuneConfig::time_defaults`).
pub(crate) fn defaults_with_config(kernel: Kernel, cfg: &TuneConfig) -> Result<u64, TuneError> {
    let machine = &cfg.machine;
    let context = cfg.context;
    let n = cfg.size();
    let src = hil_source(kernel.op, kernel.prec);
    let sess = CompileSession::from_source(&src, machine)
        .map_err(|e| TuneError(format!("{}: {e}", kernel.name())))?;
    let params = TransformParams::defaults(sess.report(), machine);
    let compiled = sess
        .compile(&params, CompileOpts::default())
        .map_err(|e| TuneError(format!("{}: {e}", kernel.name())))?;
    let workload = Workload::generate(n, cfg.seed);
    let args = crate::runner::KernelArgs {
        kernel,
        workload: &workload,
        context,
    };
    // One run: verify its outputs, then time its cycle count.
    let out =
        crate::runner::run_once(&compiled, &args, machine).map_err(|e| TuneError(e.to_string()))?;
    crate::tester::verify(kernel, &workload, &out)
        .map_err(|e| TuneError(format!("{} defaults failed verify: {e}", kernel.name())))?;
    Ok(cfg.final_timer.time_from(out.stats.cycles, &compiled.name))
}

/// MFLOPS for a kernel run (paper Figure 5 metric).
pub fn flops_rate(kernel: Kernel, n: usize, cycles: u64, machine: &MachineConfig) -> f64 {
    kernel.flops(n as u64) as f64 * machine.mhz as f64 / cycles.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(out.features.get("cycles_per_elem").unwrap() > 0.0);
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
        assert_eq!(out.machine, "Opteron");
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
