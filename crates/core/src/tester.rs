//! Correctness tester: compares a kernel run's outputs against the Rust
//! reference implementation at the kernel's own precision. The paper runs
//! the tester on every candidate the search tries — "unnecessary in
//! theory, but useful in practice" — and so do we: a transformation bug
//! rejects the candidate instead of silently winning the search.

use crate::runner::Outputs;
use ifko_blas::ops::{BlasOp, Kernel};
use ifko_blas::{reference as r, Workload};
use ifko_xsim::isa::Prec;
use std::borrow::Cow;

/// Verification failure description.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyError(pub String);

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for VerifyError {}

/// Relative tolerance for reductions: vectorization and accumulator
/// expansion reorder the sum, so bit-exactness cannot be demanded; the
/// bound scales with machine epsilon and problem size.
fn reduction_tol(prec: Prec, n: usize) -> f64 {
    let eps = match prec {
        Prec::S => f32::EPSILON as f64,
        Prec::D => f64::EPSILON,
    };
    eps * (n.max(4) as f64).sqrt() * 8.0
}

/// An element type the references run at: the bridge between a
/// workload's f64 data and a kernel's own precision. Whole vectors cross
/// it as [`Cow`]s, so double precision — where there is nothing to
/// convert — borrows the workload instead of copying it.
trait Elem: r::Real + std::ops::Sub<Output = Self> + 'static {
    const PREC: Prec;
    fn narrow(v: f64) -> Self;
    fn widen(self) -> f64;
    fn narrow_all(v: &[f64]) -> Cow<'_, [Self]>;
    fn want(v: Cow<'_, [Self]>) -> Want<'_>;
    fn nrm2(x: &[Self]) -> Self;
}

impl Elem for f64 {
    const PREC: Prec = Prec::D;
    fn narrow(v: f64) -> f64 {
        v
    }
    fn widen(self) -> f64 {
        self
    }
    fn narrow_all(v: &[f64]) -> Cow<'_, [f64]> {
        Cow::Borrowed(v)
    }
    fn want(v: Cow<'_, [f64]>) -> Want<'_> {
        Want::D(v)
    }
    fn nrm2(x: &[f64]) -> f64 {
        r::nrm2_f64(x)
    }
}

impl Elem for f32 {
    const PREC: Prec = Prec::S;
    fn narrow(v: f64) -> f32 {
        v as f32
    }
    fn widen(self) -> f64 {
        self as f64
    }
    fn narrow_all(v: &[f64]) -> Cow<'_, [f32]> {
        Cow::Owned(v.iter().map(|&e| e as f32).collect())
    }
    fn want(v: Cow<'_, [f32]>) -> Want<'_> {
        Want::S(v.into_owned())
    }
    fn nrm2(x: &[f32]) -> f32 {
        r::nrm2_f32(x)
    }
}

/// The expected final contents of one operand vector, at the kernel's
/// precision (an [`Outputs`] vector is compared element by element, each
/// expected element widened as it is read).
#[derive(Clone, Debug)]
enum Want<'w> {
    D(Cow<'w, [f64]>),
    S(Vec<f32>),
}

impl Want<'_> {
    fn expect(&self, name: &str, got: &[f64]) -> Result<(), VerifyError> {
        match self {
            Want::D(want) => expect_vec(name, got, want),
            Want::S(want) => expect_vec(name, got, want),
        }
    }
}

/// What a kernel must return.
#[derive(Clone, Debug)]
enum Ret {
    Nothing,
    Scalar { want: f64, tol: f64 },
    Index(i64),
}

/// What a correct run of one kernel on one workload leaves behind: the
/// Rust reference's results at the kernel's own precision. Computed once
/// ([`into_owned`](Expected::into_owned) to keep it) and checked against
/// every candidate's run.
#[derive(Clone, Debug)]
pub struct Expected<'w> {
    kernel: Kernel,
    /// Final contents of each operand the kernel may touch — a read-only
    /// operand of a vector-producing kernel must come back unchanged —
    /// or `None` where the outputs are not compared.
    x: Option<Want<'w>>,
    y: Option<Want<'w>>,
    ret: Ret,
}

impl<'w> Expected<'w> {
    /// Run the reference for `kernel` on `w`.
    pub fn of(kernel: Kernel, w: &'w Workload) -> Expected<'w> {
        match kernel.prec {
            Prec::D => Expected::at::<f64>(kernel, w),
            Prec::S => Expected::at::<f32>(kernel, w),
        }
    }

    fn at<T: Elem>(kernel: Kernel, w: &'w Workload) -> Expected<'w> {
        let mut x = T::narrow_all(&w.x);
        let mut y = match kernel.op.n_vectors() {
            1 => Cow::Borrowed(&[][..]),
            _ => T::narrow_all(&w.y),
        };
        let (alpha, beta) = (T::narrow(w.alpha), T::narrow(w.beta));
        let scalar = |want: T| Ret::Scalar {
            want: want.widen(),
            tol: reduction_tol(T::PREC, w.n),
        };
        // (compare x, compare y, return value)
        let (cmp_x, cmp_y, ret) = match kernel.op {
            // Swap and copy move whole vectors: so does their reference,
            // without touching the data.
            BlasOp::Swap => {
                std::mem::swap(&mut x, &mut y);
                (true, true, Ret::Nothing)
            }
            BlasOp::Copy => {
                y = x.clone();
                (true, true, Ret::Nothing)
            }
            BlasOp::Scal => {
                r::scal(alpha, x.to_mut());
                (true, false, Ret::Nothing)
            }
            BlasOp::Axpy => {
                r::axpy(alpha, &x, y.to_mut());
                (true, true, Ret::Nothing)
            }
            BlasOp::Rot => {
                r::rot(alpha, beta, x.to_mut(), y.to_mut());
                (true, true, Ret::Nothing)
            }
            BlasOp::Dot => (false, false, scalar(r::dot(&x, &y))),
            BlasOp::Asum => (false, false, scalar(r::asum(&x))),
            BlasOp::Nrm2 => (false, false, scalar(T::nrm2(&x))),
            BlasOp::Iamax => (false, false, Ret::Index(r::iamax(&x) as i64)),
        };
        Expected {
            kernel,
            x: cmp_x.then(|| T::want(x)),
            y: cmp_y.then(|| T::want(y)),
            ret,
        }
    }

    /// The same expectation, no longer borrowing the workload.
    pub fn into_owned(self) -> Expected<'static> {
        let own = |v: Want<'_>| match v {
            Want::D(v) => Want::D(Cow::Owned(v.into_owned())),
            Want::S(v) => Want::S(v),
        };
        Expected {
            kernel: self.kernel,
            x: self.x.map(own),
            y: self.y.map(own),
            ret: self.ret,
        }
    }

    /// Check one run's outputs against the expectation: `x` is the run's
    /// first operand vector, `y` its second (a missing one reads as
    /// empty, so it fails on length).
    pub fn check(&self, out: &Outputs) -> Result<(), VerifyError> {
        let got = |i: usize| out.vectors.get(i).map_or(&[][..], Vec::as_slice);
        if let Some(x) = &self.x {
            x.expect("x", got(0))?;
        }
        if let Some(y) = &self.y {
            y.expect("y", got(1))?;
        }
        match self.ret {
            Ret::Nothing => Ok(()),
            Ret::Scalar { want, tol } => expect_scalar(out.ret_f, want, tol),
            Ret::Index(want) if out.ret_i == want => Ok(()),
            Ret::Index(want) => Err(VerifyError(format!(
                "{}: got {}, want {want}",
                self.kernel.name(),
                out.ret_i
            ))),
        }
    }
}

/// Verify one run against the references.
pub fn verify(kernel: Kernel, w: &Workload, out: &Outputs) -> Result<(), VerifyError> {
    Expected::of(kernel, w).check(out)
}

fn expect_vec<W: Copy + Into<f64>>(name: &str, got: &[f64], want: &[W]) -> Result<(), VerifyError> {
    if got.len() != want.len() {
        return Err(VerifyError(format!(
            "{name}: length mismatch {} vs {}",
            got.len(),
            want.len()
        )));
    }
    // Nearly every element is equal: settle those a block at a time
    // without branching, and look closely only at a block holding a
    // difference or a NaN.
    const BLOCK: usize = 64;
    for (b, (gs, ws)) in got.chunks(BLOCK).zip(want.chunks(BLOCK)).enumerate() {
        if !gs
            .iter()
            .zip(ws)
            .fold(false, |d, (g, w)| d | (*g != (*w).into()))
        {
            continue;
        }
        for (i, (g, w)) in gs.iter().zip(ws).enumerate() {
            let w: f64 = (*w).into();
            if *g != w && !(g.is_nan() && w.is_nan()) {
                let i = b * BLOCK + i;
                return Err(VerifyError(format!("{name}[{i}]: got {g}, want {w}")));
            }
        }
    }
    Ok(())
}

fn expect_scalar(got: f64, want: f64, rel_tol: f64) -> Result<(), VerifyError> {
    let tol = rel_tol * want.abs().max(1.0);
    if (got - want).abs() > tol {
        return Err(VerifyError(format!(
            "scalar result: got {got}, want {want} (tol {tol:.3e})"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_once, Context, KernelArgs};
    use ifko_blas::hil_src::hil_source;
    use ifko_fko::compile_defaults;
    use ifko_xsim::p4e;

    /// Every kernel x precision verifies under FKO defaults.
    #[test]
    fn all_kernels_verify_under_defaults() {
        let mach = p4e();
        let w = Workload::generate(600, 11);
        for k in ifko_blas::ALL_KERNELS {
            let src = hil_source(k.op, k.prec);
            let compiled =
                compile_defaults(&src, &mach).unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            let out = run_once(
                &compiled,
                &KernelArgs {
                    kernel: k,
                    workload: &w,
                    context: Context::OutOfCache,
                },
                &mach,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            verify(k, &w, &out).unwrap_or_else(|e| panic!("{} failed verify: {e}", k.name()));
        }
    }

    #[test]
    fn detects_wrong_scalar() {
        let w = Workload::generate(8, 1);
        let out = Outputs {
            ret_f: 123.0,
            ret_i: 0,
            vectors: vec![w.x.clone(), w.y.clone()],
            cycles: 0,
            stats: Default::default(),
        };
        let k = ifko_blas::Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        };
        assert!(verify(k, &w, &out).is_err());
    }

    #[test]
    fn detects_unmodified_output_vector() {
        let w = Workload::generate(8, 2);
        let out = Outputs {
            ret_f: 0.0,
            ret_i: 0,
            vectors: vec![w.x.clone(), w.y.clone()], // axpy should have changed y
            cycles: 0,
            stats: Default::default(),
        };
        let k = ifko_blas::Kernel {
            op: BlasOp::Axpy,
            prec: Prec::D,
        };
        assert!(verify(k, &w, &out).is_err());
    }

    /// A kernel that produces vectors must leave its read-only operand
    /// alone, in either precision: one changed element of `x` fails
    /// copy and axpy although `y` is right.
    #[test]
    fn detects_clobbered_input_vector() {
        let w = Workload::generate(8, 3);
        for op in [BlasOp::Copy, BlasOp::Axpy] {
            for prec in [Prec::D, Prec::S] {
                let k = ifko_blas::Kernel { op, prec };
                // A run that did exactly what the reference does ...
                let (x, y) = match prec {
                    Prec::D => {
                        let mut y = w.y.clone();
                        match op {
                            BlasOp::Copy => r::copy(&w.x, &mut y),
                            _ => r::axpy(w.alpha, &w.x, &mut y),
                        }
                        (w.x.clone(), y)
                    }
                    Prec::S => {
                        let (x, mut y) = (w.x_f32(), w.y_f32());
                        match op {
                            BlasOp::Copy => r::copy(&x, &mut y),
                            _ => r::axpy(w.alpha as f32, &x, &mut y),
                        }
                        let widen = |v: Vec<f32>| v.into_iter().map(f64::from).collect();
                        (widen(x), widen(y))
                    }
                };
                let mut out = Outputs {
                    ret_f: 0.0,
                    ret_i: 0,
                    vectors: vec![x, y],
                    cycles: 0,
                    stats: Default::default(),
                };
                verify(k, &w, &out).unwrap_or_else(|e| panic!("{}: {e}", k.name()));
                // ... except for one element of its input.
                out.vectors[0][3] = 999.0;
                assert!(verify(k, &w, &out).is_err(), "{}", k.name());
            }
        }
    }

    #[test]
    fn vector_mismatch_names_its_element_and_nan_matches_nan() {
        let mut want = vec![1.5f32; 200];
        want[70] = f32::NAN;
        let mut got: Vec<f64> = want.iter().map(|&v| v as f64).collect();
        assert_eq!(expect_vec("y", &got, &want), Ok(()));
        got[131] = -1.5;
        let err = expect_vec("y", &got, &want).unwrap_err();
        assert_eq!(err.0, "y[131]: got -1.5, want 1.5");
        got[70] = 0.0;
        let err = expect_vec("y", &got, &want).unwrap_err();
        assert_eq!(err.0, "y[70]: got 0, want NaN");
        assert!(expect_vec("y", &got[..199], &want).is_err());
    }

    #[test]
    fn reduction_tolerance_scales() {
        assert!(reduction_tol(Prec::S, 80000) > reduction_tol(Prec::S, 100));
        assert!(reduction_tol(Prec::D, 1000) < reduction_tol(Prec::S, 1000));
    }
}
