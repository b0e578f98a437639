//! Property-based compiler correctness: arbitrary transformation
//! parameters and problem sizes never change kernel semantics. This is
//! the reproduction's strongest guarantee — the empirical search may try
//! any point in this space, so every point must be correct.
//!
//! Uses the in-repo `Rng64`, so it runs ungated in the tier-1 suite.

use ifko_fko::ir::{PrefKind, PtrId};
use ifko_fko::{ArgSlot, CompileOpts, CompileSession, PrefSpec, RetSlot, TransformParams};
use ifko_xsim::{opteron, p4e, Cpu, FReg, IReg, MachineConfig, Memory, Rng64};

const CASES: usize = 48;

/// An arbitrary point: any unroll and prefetch setting for each of the
/// kernel's `n_ptrs` pointers, accumulator expansion only when the kernel
/// has a reduction.
fn arb_params(rng: &mut Rng64, n_ptrs: usize, has_red: bool) -> TransformParams {
    let kinds = [
        None,
        Some(PrefKind::Nta),
        Some(PrefKind::T0),
        Some(PrefKind::T1),
        Some(PrefKind::W),
    ];
    let mut p = TransformParams::off();
    p.simd = rng.gen_bool(0.5);
    p.unroll = [1u32, 2, 3, 4, 5, 8, 16, 32][rng.range_usize(8)];
    p.accum_expand = if has_red {
        [1u32, 2, 3, 4, 6][rng.range_usize(5)]
    } else {
        1
    };
    p.wnt = rng.gen_bool(0.5);
    p.prefetch = (0..n_ptrs)
        .map(|i| PrefSpec {
            ptr: PtrId(i as u32),
            kind: kinds[rng.range_usize(kinds.len())],
            dist: rng.range_usize(2048) as i64,
        })
        .collect();
    p.loop_control = rng.gen_bool(0.5);
    p.cisc_memops = rng.gen_bool(0.5);
    p.copy_prop = rng.gen_bool(0.5);
    p
}

/// Run a two-vector kernel and return (ret_f, ret_i, x, y).
fn exec(
    src: &str,
    mach: &MachineConfig,
    params: &TransformParams,
    n: usize,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
) -> (f64, i64, Vec<f64>, Vec<f64>) {
    let sess = CompileSession::from_source(src, mach).unwrap();
    let compiled = sess
        .compile(params, CompileOpts::default())
        .unwrap_or_else(|e| panic!("compile failed under {params:?}: {e}"));
    let mut mem = Memory::new(16 << 20);
    let xa = mem.alloc_vector(n.max(1) as u64, 8);
    let ya = mem.alloc_vector(n.max(1) as u64, 8);
    mem.store_f64_slice(xa, xs).unwrap();
    mem.store_f64_slice(ya, ys).unwrap();
    let frame = if compiled.frame_bytes > 0 {
        mem.alloc(compiled.frame_bytes, 16)
    } else {
        0
    };
    let mut cpu = Cpu::new(mach.clone());
    cpu.flush_caches();
    let mut ptrs = [xa, ya].into_iter();
    for slot in &compiled.arg_convention {
        match slot {
            ArgSlot::PtrReg(r) => cpu.set_ireg(IReg(*r), ptrs.next().unwrap() as i64),
            ArgSlot::IntReg(r) => cpu.set_ireg(IReg(*r), n as i64),
            ArgSlot::FReg(r) => cpu.set_freg_f64(FReg(*r), alpha),
        }
    }
    cpu.set_ireg(IReg(7), frame as i64);
    cpu.run(&compiled.program, &mut mem).unwrap();
    (
        if compiled.ret == RetSlot::F0 {
            cpu.freg_f64(FReg(0))
        } else {
            0.0
        },
        if compiled.ret == RetSlot::I0 {
            cpu.ireg(IReg(0))
        } else {
            0
        },
        mem.load_f64_slice(xa, n).unwrap(),
        mem.load_f64_slice(ya, n).unwrap(),
    )
}

fn data(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s % 2000) as f64 - 1000.0) / 512.0
    };
    (
        (0..n).map(|_| next()).collect(),
        (0..n).map(|_| next()).collect(),
    )
}

const DOT: &str = r#"
ROUTINE dot(X, Y, N);
PARAMS :: X = DOUBLE_PTR, Y = DOUBLE_PTR, N = INT;
SCALARS :: dot = DOUBLE:OUT, x = DOUBLE, y = DOUBLE;
ROUT_BEGIN
  dot = 0.0;
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    dot += x * y;
    X += 1;
    Y += 1;
  LOOP_END
  RETURN dot;
ROUT_END
"#;

const AXPY: &str = r#"
ROUTINE axpy(alpha, X, Y, N);
PARAMS :: alpha = DOUBLE, X = DOUBLE_PTR, Y = DOUBLE_PTR:INOUT, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    x *= alpha;
    Y[0] += x;
    X += 1;
    Y += 1;
  LOOP_END
ROUT_END
"#;

const IAMAX: &str = r#"
ROUTINE iamax(X, N);
PARAMS :: X = DOUBLE_PTR, N = INT;
SCALARS :: amax = DOUBLE, imax = INT:OUT, x = DOUBLE;
ROUT_BEGIN
  amax = -1.0;
  imax = 0;
  !! TUNE LOOP
  LOOP i = N, 0, -1
  LOOP_BODY
    x = X[0];
    x = ABS x;
    IF (x > amax) GOTO NEWMAX;
  ENDOFLOOP:
    X += 1;
  LOOP_END
  RETURN imax;
NEWMAX:
  amax = x;
  imax = N - i;
  GOTO ENDOFLOOP;
ROUT_END
"#;

/// ddot under `params`: the sum within reassociation error, both operands
/// untouched.
fn check_ddot(mach: &MachineConfig, params: &TransformParams, n: usize, seed: u64) {
    let (xs, ys) = data(n, seed);
    let want: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
    let (got, _, x_after, y_after) = exec(DOT, mach, params, n, 0.0, &xs, &ys);
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "got {got} want {want}, n={n} under {params:?}"
    );
    assert_eq!(x_after, xs, "dot must not write X");
    assert_eq!(y_after, ys, "dot must not write Y");
}

/// ddot is correct under arbitrary parameters, sizes, machines.
#[test]
fn ddot_correct_under_arbitrary_params() {
    let mut rng = Rng64::seed_from_u64(0xf40_0001);
    for _ in 0..CASES {
        let params = arb_params(&mut rng, 2, true);
        let (n, seed) = (rng.range_usize(600), rng.range_usize(1000) as u64);
        let mach = if rng.gen_bool(0.5) { opteron() } else { p4e() };
        check_ddot(&mach, &params, n, seed);
    }
}

/// The committed `proptest` regression: six accumulators under unroll 4
/// with a remainder-heavy N = 14 (two full trips of the expanded body,
/// then the cleanup loop).
#[test]
fn regression_ddot_six_accumulators_unroll_four_n14() {
    let mut params = TransformParams::off();
    params.unroll = 4;
    params.accum_expand = 6;
    params.loop_control = true;
    params.dead_code_elim = true;
    params.branch_cleanup = true;
    params.prefetch = (0..2)
        .map(|i| PrefSpec {
            ptr: PtrId(i),
            kind: None,
            dist: 0,
        })
        .collect();
    check_ddot(&p4e(), &params, 14, 0);
}

/// daxpy is bit-exact under arbitrary parameters (no reductions, so
/// reassociation cannot change results).
#[test]
fn daxpy_exact_under_arbitrary_params() {
    let mut rng = Rng64::seed_from_u64(0xf40_0002);
    let mach = p4e();
    for _ in 0..CASES {
        let params = arb_params(&mut rng, 2, false);
        let (n, seed) = (rng.range_usize(600), rng.range_usize(1000) as u64);
        let (xs, ys) = data(n, seed);
        let alpha = 1.25;
        let (_, _, x_after, y_after) = exec(AXPY, &mach, &params, n, alpha, &xs, &ys);
        for i in 0..n {
            assert_eq!(y_after[i], ys[i] + alpha * xs[i], "i={i} under {params:?}");
        }
        assert_eq!(x_after, xs);
    }
}

/// idamax (control flow + cold blocks + unroll) returns the exact
/// first-maximum index under arbitrary parameters.
#[test]
fn idamax_exact_under_arbitrary_params() {
    let mut rng = Rng64::seed_from_u64(0xf40_0003);
    let mach = p4e();
    for _ in 0..CASES {
        let params = arb_params(&mut rng, 1, false);
        let (n, seed) = (1 + rng.range_usize(399), rng.range_usize(1000) as u64);
        let (xs, _) = data(n, seed);
        let want = xs
            .iter()
            .enumerate()
            .fold((0usize, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v.abs() > bv {
                    (i, v.abs())
                } else {
                    (bi, bv)
                }
            })
            .0 as i64;
        let (_, got, ..) = exec(IAMAX, &mach, &params, n, 0.0, &xs, &xs);
        assert_eq!(got, want, "n={n} params={params:?}");
    }
}
