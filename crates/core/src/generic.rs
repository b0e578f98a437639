//! Operands and differential checking for *arbitrary* user-written HIL
//! kernels — the paper's long-range goal ("in keeping the search in the
//! compiler, we hope to generalize it enough to tune almost any floating
//! point kernel").
//!
//! [`GenericWorkload`] is the one operand set a tune runs on: a `.hil`
//! source's is generated from its argument convention
//! ([`GenericWorkload::for_kernel`]), a suite kernel's is moved out of
//! its BLAS `Workload` (`[x, y][..n_vectors]`, `[alpha, beta]`), and
//! every run of either returns one [`Outputs`]. What differs between the
//! two is only the oracle (see `subject.rs`): an arbitrary kernel has no
//! reference implementation, so its candidates are verified
//! **differentially** — every output (all pointer-argument arrays, plus
//! the scalar or integer return value) is compared against the outputs
//! of the same kernel compiled with every transformation off. Reductions
//! reassociate under SIMD/AE, so floating comparisons use a size-scaled
//! tolerance. Tuning a source is
//! [`TuneConfig::tune_source`](crate::TuneConfig::tune_source).

use crate::runner::{image_bytes, simulate, Context, Operands, Outputs};
use ifko_fko::{ArgSlot, CompiledKernel};
use ifko_xsim::isa::Prec;
use ifko_xsim::rng::Rng64;
use ifko_xsim::MachineConfig;

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

/// [`Outputs`] under the name the system benchmark
/// (`benchmark/src/staged.rs`) still uses for a `.hil` run.
pub type GenericOutputs = Outputs;

/// Execute a compiled kernel against a generic workload (one pooled
/// simulation, see [`crate::runner::simulate`]).
pub fn run_generic(
    compiled: &CompiledKernel,
    w: &GenericWorkload,
    context: Context,
    machine: &MachineConfig,
) -> Result<Outputs, String> {
    let ops = Operands {
        n: w.n,
        vectors: &w.vectors,
        scalars: &w.scalars,
        capacity: image_bytes(w.n, compiled.prec, w.vectors.len() + 1),
    };
    simulate(compiled, &ops, context, machine).map_err(|e| e.0)
}

/// Differential comparison against the untransformed baseline, with a
/// size-scaled tolerance for reassociated reductions.
pub(crate) fn outputs_agree(a: &Outputs, b: &Outputs, prec: Prec, n: usize) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TuneConfig;
    use crate::search::SearchOptions;
    use ifko_fko::{CompileOpts, CompileSession, TransformParams};
    use ifko_xsim::p4e;

    fn quick(context: Context, n: usize, seed: u64) -> TuneConfig {
        TuneConfig::paper()
            .machine(p4e())
            .context(context)
            .n(n)
            .seed(seed)
            .search(SearchOptions::quick())
    }

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
        let out = quick(Context::OutOfCache, 4000, 7)
            .tune_source(WAXPBY)
            .unwrap();
        assert!(out.result.best_cycles <= out.result.default_cycles);
        assert!(out.result.evaluations > 5);
        assert!(out.result.best.simd, "waxpby vectorizes");
        // The search must have improved markedly over the scalar baseline.
        assert!(out.result.speedup_over_default() >= 1.0);
    }

    #[test]
    fn differential_check_rejects_nothing_on_correct_compiler() {
        let out = quick(Context::InL2, 1024, 3).tune_source(WAXPBY).unwrap();
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
