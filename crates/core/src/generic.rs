//! Tuning *arbitrary* user-written HIL kernels — the paper's long-range
//! goal ("in keeping the search in the compiler, we hope to generalize it
//! enough to tune almost any floating point kernel").
//!
//! Unlike the BLAS suite, an arbitrary kernel has no reference
//! implementation, so candidates are verified **differentially**: every
//! candidate's outputs (all pointer-argument arrays, plus the scalar or
//! integer return value) are compared against the outputs of the same
//! kernel compiled with every transformation off. Reductions reassociate
//! under SIMD/AE, so floating comparisons use a size-scaled tolerance.

use crate::config::TuneConfig;
use crate::eval::{fnv64, EvalRecord, EvalScope, Span};
use crate::runner::{simulate, Context, Operands};
use crate::search::{SearchOptions, SearchResult};
use crate::strategy::{db_key, STRATEGY_WARM};
use ifko_fko::{
    ArgSlot, CompileError, CompileOpts, CompileSession, CompiledKernel, TransformParams,
};
use ifko_xsim::isa::Prec;
use ifko_xsim::rng::Rng64;
use ifko_xsim::{MachineConfig, RunStats};

/// A workload for an arbitrary kernel, shaped by its argument convention.
#[derive(Clone, Debug)]
pub struct GenericWorkload {
    pub n: usize,
    /// One data vector per pointer argument, in argument order.
    pub vectors: Vec<Vec<f64>>,
    /// One value per FP scalar argument, in argument order.
    pub scalars: Vec<f64>,
}

impl GenericWorkload {
    /// Build a deterministic workload matching `compiled`'s convention.
    pub fn for_kernel(compiled: &CompiledKernel, n: usize, seed: u64) -> GenericWorkload {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x9e37);
        let n_ptrs = compiled
            .arg_convention
            .iter()
            .filter(|a| matches!(a, ArgSlot::PtrReg(_)))
            .count();
        let n_scal = compiled
            .arg_convention
            .iter()
            .filter(|a| matches!(a, ArgSlot::FReg(_)))
            .count();
        GenericWorkload {
            n,
            vectors: (0..n_ptrs)
                .map(|_| (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect())
                .collect(),
            scalars: (0..n_scal).map(|_| rng.range_f64(0.5, 1.5)).collect(),
        }
    }
}

/// Captured outputs of a generic run.
#[derive(Clone, Debug)]
pub struct GenericOutputs {
    pub ret_f: f64,
    pub ret_i: i64,
    pub vectors: Vec<Vec<f64>>,
    pub cycles: u64,
    /// Full simulator counters of the run (`cycles` above is
    /// `stats.cycles`, kept as its own field for convenience).
    pub stats: RunStats,
}

/// Execute a compiled kernel against a generic workload (one pooled
/// simulation, see [`crate::runner::simulate`]).
pub fn run_generic(
    compiled: &CompiledKernel,
    w: &GenericWorkload,
    context: Context,
    machine: &MachineConfig,
) -> Result<GenericOutputs, String> {
    let eb = compiled.prec.bytes();
    let ops = Operands {
        n: w.n,
        vectors: &w.vectors,
        scalars: &w.scalars,
        capacity: ((w.n as u64 * eb) * (w.vectors.len() as u64 + 1) + (1 << 20)) as usize,
    };
    let raw = simulate(compiled, &ops, context, machine).map_err(|e| e.0)?;
    Ok(GenericOutputs {
        ret_f: raw.ret_f,
        ret_i: raw.ret_i,
        vectors: raw.vectors,
        cycles: raw.stats.cycles,
        stats: raw.stats,
    })
}

/// Differential comparison against the untransformed baseline, with a
/// size-scaled tolerance for reassociated reductions.
fn outputs_agree(a: &GenericOutputs, b: &GenericOutputs, prec: Prec, n: usize) -> bool {
    let eps = match prec {
        Prec::S => f32::EPSILON as f64,
        Prec::D => f64::EPSILON,
    };
    let tol = eps * (n.max(4) as f64).sqrt() * 16.0;
    let close = |x: f64, y: f64| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0);
    if a.ret_i != b.ret_i || !close(a.ret_f, b.ret_f) {
        return false;
    }
    a.vectors.len() == b.vectors.len()
        && a.vectors
            .iter()
            .zip(&b.vectors)
            .all(|(va, vb)| va.iter().zip(vb).all(|(x, y)| close(*x, *y)))
}

/// The per-candidate evaluator for an arbitrary HIL source: chaos-aware
/// compile (retried with backoff), simulate, differential verification
/// against the untransformed baseline, and chaos tester flakes — the
/// generic-path twin of `search::blas_eval_point`. Shared between the
/// in-process engine ([`tune_source_with_config`]) and the worker
/// protocol ([`crate::worker::serve`]), which is what keeps remote
/// evaluation bit-identical to local.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generic_eval_point<'a>(
    sess: &'a CompileSession,
    w: &'a GenericWorkload,
    baseline: &'a GenericOutputs,
    prec: Prec,
    context: Context,
    machine: &'a MachineConfig,
    opts: &'a SearchOptions,
    engine: Option<&crate::eval::EvalEngine>,
    scope: &'a EvalScope,
    search_id: u64,
) -> impl Fn(&TransformParams) -> EvalRecord + Sync + 'a {
    let sink = engine.and_then(|e| e.trace().cloned());
    let simulations = engine.map(|e| e.metrics().counter(crate::metrics::ENGINE_SIMULATIONS));
    let n = w.n;
    move |p: &TransformParams| -> EvalRecord {
        let eval_span = Span::with_parent(sink.clone(), scope.key(), "eval", Some(search_id));
        let fkey = opts.faults.as_ref().map(|_| scope.point_key(p));
        let mut retries = 0u32;
        let mut nfaults = 0u32;
        // Chaos: transient compile failures, retried with backoff
        // (same contract as the BLAS path in `search.rs`).
        if let (Some(plan), Some(key)) = (opts.faults.as_ref(), fkey.as_deref()) {
            let mut attempt = 0u32;
            while plan.compile_fails(key, attempt) {
                nfaults += 1;
                if attempt >= opts.max_retries {
                    return EvalRecord::failed(retries, nfaults);
                }
                retries += 1;
                std::thread::sleep(plan.backoff(attempt));
                attempt += 1;
            }
        }
        let compile_span = eval_span.child("compile");
        let compile_id = compile_span.id();
        let mut stages: Vec<(&'static str, std::time::Duration)> = Vec::new();
        let mut observe = |stage: &'static str, wall: std::time::Duration| {
            stages.push((stage, wall));
        };
        let c = sess.compile(
            p,
            CompileOpts::observed(cfg!(debug_assertions) || opts.verify_ir, &mut observe),
        );
        drop(compile_span);
        for (stage, wall) in stages {
            Span::emit(&sink, scope.key(), stage, Some(compile_id), wall);
        }
        let Ok(c) = c else {
            return EvalRecord {
                retries,
                faults: nfaults,
                ..EvalRecord::rejected()
            };
        };
        // One simulation: verified differentially, and its exact cycle
        // count is the candidate's time (this path applies no timer
        // interference; the BLAS path runs the timer's statistics over
        // its one run).
        let sim_span = eval_span.child("simulate");
        let got = run_generic(&c, w, context, machine);
        drop(sim_span);
        if let Some(c) = &simulations {
            c.inc();
        }
        let Ok(got) = got else {
            return EvalRecord {
                retries,
                faults: nfaults,
                ..EvalRecord::rejected()
            };
        };
        let _test_span = eval_span.child("test");
        if !outputs_agree(&got, baseline, prec, n) {
            return EvalRecord {
                cycles: None,
                stats: Some(got.stats),
                retries,
                faults: nfaults,
                ..EvalRecord::default()
            };
        }
        // Chaos: the differential tester may flake; retry until a
        // clean verdict or the budget runs out.
        if let (Some(plan), Some(key)) = (opts.faults.as_ref(), fkey.as_deref()) {
            let mut attempt = 0u32;
            while plan.tester_flakes(key, attempt) {
                nfaults += 1;
                if attempt >= opts.max_retries {
                    return EvalRecord::failed(retries, nfaults);
                }
                retries += 1;
                std::thread::sleep(plan.backoff(attempt));
                let _ = outputs_agree(&got, baseline, prec, n);
                attempt += 1;
            }
        }
        EvalRecord {
            cycles: Some(got.cycles),
            stats: Some(got.stats),
            retries,
            faults: nfaults,
            ..EvalRecord::default()
        }
    }
}

/// Result of tuning an arbitrary kernel.
pub struct GenericTuneOutcome {
    pub result: SearchResult,
    pub compiled: CompiledKernel,
    /// Per-stage compile-time profile (empty unless
    /// [`TuneConfig::profile_pipeline`](crate::TuneConfig::profile_pipeline)
    /// is on).
    pub pipeline_profile: Vec<ifko_fko::StageProfile>,
    /// The winner's size-normalized counter vector (one clean run of the
    /// recompiled winner) — the transfer warm-start hook (ROADMAP item 3).
    pub features: ifko_xsim::FeatureVector,
}

/// Tune a user HIL kernel under a [`TuneConfig`] (called by
/// `TuneConfig::tune_source`). Candidates run through the config's
/// evaluation engine: batched across its worker threads, memoized in its
/// cache under a source-fingerprinted scope, and traced to its sink.
pub(crate) fn tune_source_with_config(
    src: &str,
    cfg: &TuneConfig,
) -> Result<GenericTuneOutcome, CompileError> {
    let machine = &cfg.machine;
    let context = cfg.context;
    let n = cfg.size();
    let opts = &cfg.search;
    let sess = CompileSession::from_source(src, machine)?;
    if cfg.profile_pipeline {
        sess.enable_profiling();
    }
    // Baseline: everything off.
    let base_compiled = sess.compile(&TransformParams::off(), CompileOpts::default())?;
    let w = GenericWorkload::for_kernel(&base_compiled, n, cfg.seed);
    let baseline =
        run_generic(&base_compiled, &w, context, machine).map_err(CompileError::codegen)?;
    let prec = base_compiled.prec;

    let mut engine = cfg.engine();
    // Arbitrary sources have no registry name: scope the cache by routine
    // name plus a content hash, so two different bodies never collide.
    let label = format!("hil:{}#{:016x}", sess.ir().name, fnv64(src.as_bytes()));
    let scope = EvalScope::new(label, machine, context, n, cfg.seed, &opts.timer);
    // Worker-process pool (`--workers N`): the handshake ships the HIL
    // source itself, so workers rebuild the identical session + baseline.
    if cfg.workers_of() > 0 {
        let spec =
            crate::worker::WorkerSpec::generic(src, machine, context, n, cfg.seed, opts, &scope);
        match cfg.spawn_worker_pool(&spec) {
            Some(pool) => engine = engine.with_worker_pool(pool),
            None => engine
                .metrics()
                .counter(crate::metrics::ENGINE_WORKER_FALLBACKS)
                .inc(),
        }
    }

    // Warm start, keyed by the content-hashed label (see `driver.rs`).
    let prec_label = format!("{prec:?}");
    let key = cfg.db.as_ref().map(|db| {
        db_key(
            &scope.kernel,
            &prec_label,
            &scope.machine,
            context.label(),
            db.rev(),
        )
    });
    let warm = match (&cfg.db, &key) {
        (Some(db), Some(k)) => db.lookup(k),
        _ => None,
    };

    // Static cost model (same contract as the BLAS driver): locality
    // follows the timing context; predictions ride the trace at
    // `--model-prune 0` and gate candidates above it.
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
        opts,
        cfg.seed,
        &engine,
        &scope,
        |search_id| {
            generic_eval_point(
                &sess,
                &w,
                &baseline,
                prec,
                context,
                machine,
                opts,
                Some(&engine),
                &scope,
                search_id,
            )
        },
    );

    if let (Some(db), Some(key)) = (&cfg.db, &key) {
        if result.strategy != STRATEGY_WARM {
            db.store_with(
                &crate::strategy::TunedRecord {
                    key: key.clone(),
                    kernel: scope.kernel.clone(),
                    prec: prec_label,
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
                opts.faults.as_ref(),
            );
        }
    }
    let compiled = sess.compile(&result.best, CompileOpts::default())?;
    let features = run_generic(&compiled, &w, context, machine)
        .map(|out| ifko_xsim::FeatureVector::from_stats(&out.stats, n as u64))
        .map_err(CompileError::codegen)?;
    let pipe = sess.stats();
    let reg = engine.metrics();
    // The baseline run above and the winner's feature run.
    reg.counter(crate::metrics::ENGINE_SIMULATIONS).add(2);
    reg.counter(crate::metrics::PIPE_COMPILES)
        .add(pipe.compiles);
    reg.counter(crate::metrics::PIPE_SUBCACHE_HITS)
        .add(pipe.subcache_hits);
    reg.counter(crate::metrics::PIPE_SUBCACHE_MISSES)
        .add(pipe.subcache_misses);
    Ok(GenericTuneOutcome {
        result,
        compiled,
        pipeline_profile: sess.profile(),
        features,
    })
}

/// Tune any HIL source on a machine/context: analyze, establish the
/// untransformed-baseline outputs, then line-search with differential
/// verification. Convenience wrapper over
/// [`TuneConfig::tune_source`](crate::config::TuneConfig::tune_source).
pub fn tune_source(
    src: &str,
    machine: &MachineConfig,
    context: Context,
    n: usize,
    seed: u64,
    opts: &SearchOptions,
) -> Result<GenericTuneOutcome, CompileError> {
    let cfg = TuneConfig::paper()
        .machine(machine.clone())
        .context(context)
        .n(n)
        .seed(seed)
        .search(opts.clone());
    tune_source_with_config(src, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_xsim::p4e;

    const WAXPBY: &str = r#"
ROUTINE waxpy(alpha, X, Y, W, N);
PARAMS :: alpha = DOUBLE, X = DOUBLE_PTR, Y = DOUBLE_PTR, W = DOUBLE_PTR:OUT, N = INT;
SCALARS :: x = DOUBLE, y = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    x *= alpha;
    y = Y[0];
    x += y;
    W[0] = x;
    X += 1;
    Y += 1;
    W += 1;
  LOOP_END
ROUT_END
"#;

    #[test]
    fn tunes_nonsuite_kernel_differentially() {
        let mach = p4e();
        let opts = SearchOptions::quick();
        let out = tune_source(WAXPBY, &mach, Context::OutOfCache, 4000, 7, &opts).unwrap();
        assert!(out.result.best_cycles <= out.result.default_cycles);
        assert!(out.result.evaluations > 5);
        assert!(out.result.best.simd, "waxpby vectorizes");
        // The search must have improved markedly over the scalar baseline.
        assert!(out.result.speedup_over_default() >= 1.0);
    }

    #[test]
    fn differential_check_rejects_nothing_on_correct_compiler() {
        let mach = p4e();
        let opts = SearchOptions::quick();
        let out = tune_source(WAXPBY, &mach, Context::InL2, 1024, 3, &opts).unwrap();
        assert_eq!(out.result.rejected, 0, "all candidates should verify");
    }

    #[test]
    fn generic_workload_matches_convention() {
        let mach = p4e();
        let sess = CompileSession::from_source(WAXPBY, &mach).unwrap();
        let c = sess
            .compile(&TransformParams::off(), CompileOpts::default())
            .unwrap();
        let w = GenericWorkload::for_kernel(&c, 100, 1);
        assert_eq!(w.vectors.len(), 3);
        assert_eq!(w.scalars.len(), 1);
        let out = run_generic(&c, &w, Context::OutOfCache, &mach).unwrap();
        // w = alpha*x + y
        for i in 0..100 {
            let want = w.scalars[0] * w.vectors[0][i] + w.vectors[1][i];
            assert!((out.vectors[2][i] - want).abs() < 1e-12);
        }
    }
}
