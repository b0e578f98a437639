//! Pipeline-level properties: determinism of the simulator and search,
//! monotonicity of the tuner, and agreement across machines on functional
//! results. Cases are drawn from the in-repo `Rng64` with fixed seeds, so
//! the suite runs ungated in Tier-1 and a failure names its case.

use ifko::runner::{run_once, Context, KernelArgs, Outputs};
use ifko::{verify, TuneConfig};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{CompileOpts, CompileSession, TransformParams};
use ifko_xsim::isa::Prec;
use ifko_xsim::{opteron, p4e, MachineConfig, Rng64};

const OPS: [BlasOp; 9] = [
    BlasOp::Swap,
    BlasOp::Scal,
    BlasOp::Copy,
    BlasOp::Axpy,
    BlasOp::Dot,
    BlasOp::Asum,
    BlasOp::Iamax,
    BlasOp::Rot,
    BlasOp::Nrm2,
];

/// One random case: a kernel, a size in `1..max_n`, a workload seed in
/// `0..max_seed`.
fn case(rng: &mut Rng64, max_n: usize, max_seed: usize) -> (BlasOp, usize, u64) {
    let op = OPS[rng.range_usize(OPS.len())];
    let n = 1 + rng.range_usize(max_n - 1);
    (op, n, rng.range_usize(max_seed) as u64)
}

/// Compile `op` (double precision) at FKO's defaults for `mach` and run
/// it once out of cache.
fn run_defaults(op: BlasOp, w: &Workload, mach: &MachineConfig) -> Outputs {
    let sess = CompileSession::from_source(&hil_source(op, Prec::D), mach).unwrap();
    let params = TransformParams::defaults(sess.report(), mach);
    let compiled = sess.compile(&params, CompileOpts::default()).unwrap();
    let args = KernelArgs {
        kernel: Kernel { op, prec: Prec::D },
        workload: w,
        context: Context::OutOfCache,
    };
    run_once(&compiled, &args, mach).unwrap()
}

/// Two identical runs produce identical cycle counts and outputs — the
/// determinism the whole timing methodology relies on.
#[test]
fn simulation_is_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0001);
    for _ in 0..24 {
        let (op, n, seed) = case(&mut rng, 400, 100);
        let w = Workload::generate(n, seed);
        let a = run_defaults(op, &w, &p4e());
        let b = run_defaults(op, &w, &p4e());
        let what = format!("{op:?} n={n} seed={seed}");
        assert_eq!(a.stats.cycles, b.stats.cycles, "{what}");
        assert_eq!(a.stats.insts, b.stats.insts, "{what}");
        assert_eq!(a.ret_f.to_bits(), b.ret_f.to_bits(), "{what}");
        assert_eq!(a.vectors[0], b.vectors[0], "{what}");
    }
}

/// The two machines produce bit-identical *functional* results for the
/// same kernel and workload (they differ only in timing).
#[test]
fn machines_agree_functionally() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0002);
    for _ in 0..24 {
        let (op, n, seed) = case(&mut rng, 300, 100);
        let w = Workload::generate(n, seed);
        let [a, b] = [p4e(), opteron()].map(|mach| {
            let out = run_defaults(op, &w, &mach);
            verify(Kernel { op, prec: Prec::D }, &w, &out).unwrap();
            out
        });
        let what = format!("{op:?} n={n} seed={seed}");
        assert_eq!(a.ret_f.to_bits(), b.ret_f.to_bits(), "{what}");
        assert_eq!(a.ret_i, b.ret_i, "{what}");
        assert_eq!(a.vectors, b.vectors, "{what}");
    }
}

/// Tuning never loses to the defaults, for any kernel and seed.
#[test]
fn tuner_is_monotone() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0003);
    for _ in 0..6 {
        let op = OPS[rng.range_usize(OPS.len())];
        let seed = rng.range_usize(50) as u64;
        let k = Kernel { op, prec: Prec::S };
        let t = TuneConfig::quick(2000).seed(seed).tune(k).unwrap();
        assert!(
            t.result.best_cycles <= t.result.default_cycles,
            "{op:?} seed={seed}: tuned {} > default {}",
            t.result.best_cycles,
            t.result.default_cycles
        );
    }
}
