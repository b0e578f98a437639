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
use crate::runner::{simulate, Context, Operands};
use crate::search::{SearchOptions, SearchResult};
use ifko_fko::{ArgSlot, CompileError, CompiledKernel};
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
pub(crate) fn outputs_agree(a: &GenericOutputs, b: &GenericOutputs, prec: Prec, n: usize) -> bool {
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
    cfg.tune_source(src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_fko::{CompileOpts, CompileSession, TransformParams};
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
