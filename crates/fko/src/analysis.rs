//! Kernel analysis and communication with the search (paper §2.2.2).
//!
//! "Unlike a normal compiler, a compiler used in an iterative search needs
//! to be able to communicate key aspects of its analysis of the code being
//! optimized." FKO reports: architecture information (cache levels, line
//! sizes), the loop identified for tuning, its maximum safe unrolling,
//! whether it can be SIMD vectorized, per-scalar sets/uses with a role
//! classification, the scalars that are valid targets for accumulator
//! expansion, and the arrays that are valid targets for prefetch (any
//! array whose references increment with the loop, unless the user
//! overrode this with `!! NOPREFETCH` mark-up).

use crate::ir::*;
use ifko_xsim::MachineConfig;

/// Why a loop cannot be vectorized (reported back to the search).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VecBlocker {
    /// Control flow inside the body (e.g. the `iamax` branch — the paper
    /// notes neither icc nor iFKO vectorize it automatically).
    ControlFlow,
    /// A loop-carried scalar that is not a recognized reduction.
    CarriedScalar(String),
    /// The body reads the induction variable.
    ReadsInduction,
    /// Unsupported operation in the body.
    UnsupportedOp(String),
    /// No loop to vectorize.
    NoLoop,
}

impl std::fmt::Display for VecBlocker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VecBlocker::ControlFlow => write!(f, "loop body contains control flow"),
            VecBlocker::CarriedScalar(s) => {
                write!(f, "loop-carried scalar `{s}` is not a sum reduction")
            }
            VecBlocker::ReadsInduction => write!(f, "body reads the induction variable"),
            VecBlocker::UnsupportedOp(s) => write!(f, "unsupported op: {s}"),
            VecBlocker::NoLoop => write!(f, "no tuned loop"),
        }
    }
}

/// Role of an FP scalar with respect to the tuned loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalarRole {
    /// Defined before use each iteration — renamed per unroll copy.
    Private,
    /// Only updated via `acc += expr` — accumulator-expansion candidate.
    ReductionAdd,
    /// Read-only inside the loop — broadcast when vectorizing.
    Invariant,
    /// Any other loop-carried scalar (e.g. the running max in `iamax`).
    Carried,
}

/// Per-scalar report entry.
#[derive(Clone, Debug)]
pub struct ScalarInfo {
    pub vreg: V,
    pub class: VClass,
    pub role: ScalarRole,
    /// Static def / use counts inside the loop (the paper's "sets and uses").
    pub sets: u32,
    pub uses: u32,
    /// HIL source line of the scalar's declaration (0 = unknown).
    pub line: u32,
}

/// Architecture summary reported to the search.
#[derive(Clone, Debug)]
pub struct ArchInfo {
    pub name: String,
    /// (size bytes, line bytes) per cache level, nearest first.
    pub caches: Vec<(u64, u64)>,
    /// Prefetch instruction flavours available.
    pub prefetch_kinds: Vec<PrefKind>,
    /// The paper's `Lₑ` for this kernel's element size.
    pub line_elems: u64,
}

/// The full analysis report.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    pub arch: ArchInfo,
    pub has_tuned_loop: bool,
    /// Maximum safe unroll factor (conservative cap).
    pub max_unroll: u32,
    /// `Ok(())` if SIMD vectorization is legal, otherwise the blocker.
    pub vectorizable: Result<(), VecBlocker>,
    pub scalars: Vec<ScalarInfo>,
    /// Accumulator-expansion candidates (vregs of `ReductionAdd` scalars).
    pub ae_candidates: Vec<V>,
    /// Prefetch candidates: arrays whose references increment with the loop
    /// and are not excluded by mark-up.
    pub pf_candidates: Vec<PtrId>,
    /// Arrays written in the loop (non-temporal-write targets).
    pub wnt_candidates: Vec<PtrId>,
    pub elem_bytes: u64,
    /// HIL source line of the tuned `LOOP` header (0 = unknown).
    pub loop_line: u32,
}

/// Hard cap on unrolling (the search never needs more; body size is also
/// bounded by the machine's loop buffer in practice).
pub const MAX_UNROLL_CAP: u32 = 128;

/// Analyze a lowered kernel for a given machine.
pub fn analyze(k: &KernelIr, mach: &MachineConfig) -> AnalysisReport {
    let arch = ArchInfo {
        name: mach.name.to_string(),
        caches: vec![(mach.l1.size, mach.l1.line), (mach.l2.size, mach.l2.line)],
        prefetch_kinds: mach.prefetch_kinds.to_vec(),
        line_elems: mach.line_elems(k.prec.bytes()),
    };
    let Some(l) = &k.loop_ else {
        return AnalysisReport {
            arch,
            has_tuned_loop: false,
            max_unroll: 1,
            vectorizable: Err(VecBlocker::NoLoop),
            scalars: vec![],
            ae_candidates: vec![],
            pf_candidates: vec![],
            wnt_candidates: vec![],
            elem_bytes: k.prec.bytes(),
            loop_line: k.loop_line,
        };
    };

    let scalars = classify_scalars(k, l);
    let vectorizable = check_vectorizable(k, l, &scalars);
    let ae_candidates: Vec<V> = scalars
        .iter()
        .filter(|s| s.role == ScalarRole::ReductionAdd)
        .map(|s| s.vreg)
        .collect();
    let pf_candidates: Vec<PtrId> = l
        .bumps
        .iter()
        .filter(|(p, e)| *e != 0 && !k.ptrs[p.0 as usize].no_prefetch)
        .map(|(p, _)| *p)
        .collect();
    let wnt_candidates: Vec<PtrId> = (0..k.ptrs.len() as u32)
        .map(PtrId)
        .filter(|p| {
            l.body
                .iter()
                .chain(&l.cold)
                .any(|o| matches!(o, Op::FSt { mem, .. } if mem.ptr == *p))
        })
        .collect();

    AnalysisReport {
        arch,
        has_tuned_loop: true,
        max_unroll: MAX_UNROLL_CAP,
        vectorizable,
        scalars,
        ae_candidates,
        pf_candidates,
        wnt_candidates,
        elem_bytes: k.prec.bytes(),
        loop_line: k.loop_line,
    }
}

/// Classify every vreg accessed in the loop (body + cold).
pub fn classify_scalars(k: &KernelIr, l: &LoopIr) -> Vec<ScalarInfo> {
    #[derive(Default, Clone)]
    struct Acc {
        sets: u32,
        uses: u32,
        first_is_def: Option<bool>,
        /// All accesses are tied `acc = acc + b` updates.
        all_red_add: bool,
        any: bool,
        in_cold: bool,
    }
    // One entry per vreg; `any` marks the ones the loop touches.
    let mut table = vec![Acc::default(); k.vregs.len()];
    let counter_vregs: Vec<V> = match &l.counter {
        Counter::Hidden { trips } => vec![*trips],
        Counter::Visible { ivar, n, .. } => vec![*ivar, *n],
    };

    let visit = |op: &Op, cold: bool, table: &mut [Acc]| {
        // Reduction-add pattern: FBin{Add, dst, a==dst, b != dst}.
        let red_target = match op {
            Op::FBin {
                op: FOp::Add,
                dst,
                a,
                b,
                ..
            } if dst == a => match b {
                RoM::Reg(r) if r == dst => None,
                _ => Some(*dst),
            },
            _ => None,
        };
        if let Some(acc_v) = red_target {
            let e = &mut table[acc_v as usize];
            if !e.any {
                e.all_red_add = true;
                e.first_is_def = Some(false);
            }
            e.any = true;
            e.sets += 1;
            e.uses += 1;
            e.in_cold |= cold;
            // Other operands handled below, minus the acc.
        }
        op.for_each_use(&mut |u| {
            if red_target == Some(u) {
                return;
            }
            let e = &mut table[u as usize];
            if !e.any {
                e.first_is_def = Some(false);
            }
            e.any = true;
            e.uses += 1;
            e.all_red_add = false;
            e.in_cold |= cold;
        });
        if let Some(d) = op.def() {
            if red_target == Some(d) {
                return;
            }
            let e = &mut table[d as usize];
            if !e.any {
                e.first_is_def = Some(true);
            }
            e.any = true;
            e.sets += 1;
            e.all_red_add = false;
            e.in_cold |= cold;
        }
    };
    for op in &l.body {
        visit(op, false, &mut table);
    }
    for op in &l.cold {
        visit(op, true, &mut table);
    }

    // Post-loop *uses* (live-out), including the return value.
    let mut used_in_post = vec![false; k.vregs.len()];
    for op in &k.post {
        op.for_each_use(&mut |u| used_in_post[u as usize] = true);
    }
    if let RetVal::F(v) | RetVal::I(v) = k.ret {
        used_in_post[v as usize] = true;
    }

    let mut out = Vec::new();
    for (v, acc) in table.iter().enumerate() {
        let v = v as V;
        if !acc.any || counter_vregs.contains(&v) {
            continue;
        }
        let role = if acc.sets == 0 {
            ScalarRole::Invariant
        } else if acc.all_red_add && !acc.in_cold {
            ScalarRole::ReductionAdd
        } else if acc.first_is_def == Some(true) && !used_in_post[v as usize] && !acc.in_cold {
            ScalarRole::Private
        } else {
            ScalarRole::Carried
        };
        out.push(ScalarInfo {
            vreg: v,
            class: k.class(v),
            role,
            sets: acc.sets,
            uses: acc.uses,
            line: k.vreg_line(v),
        });
    }
    out
}

fn check_vectorizable(k: &KernelIr, l: &LoopIr, scalars: &[ScalarInfo]) -> Result<(), VecBlocker> {
    if !l.cold.is_empty() {
        return Err(VecBlocker::ControlFlow);
    }
    for op in &l.body {
        match op {
            Op::Label(_) | Op::Br(_) | Op::CondBr { .. } | Op::FCmp { .. } | Op::ICmp { .. } => {
                return Err(VecBlocker::ControlFlow)
            }
            Op::FLd { .. } | Op::FSt { .. } | Op::FMov { .. } | Op::FAbs { .. } => {}
            Op::FSqrt { .. } => return Err(VecBlocker::UnsupportedOp("scalar sqrt".into())),
            Op::FBin { op, .. } => match op {
                FOp::Add | FOp::Sub | FOp::Mul | FOp::Div | FOp::Max => {}
            },
            Op::FConst { .. } | Op::FZero { .. } => {}
            Op::IMov { .. } | Op::IConst { .. } | Op::IBin { .. } => {
                return Err(VecBlocker::ReadsInduction)
            }
            other => return Err(VecBlocker::UnsupportedOp(format!("{other:?}"))),
        }
    }
    for s in scalars {
        if s.class != VClass::Int && s.role == ScalarRole::Carried {
            let name = format!("v{}", s.vreg);
            return Err(VecBlocker::CarriedScalar(name));
        }
    }
    let _ = k;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use ifko_hil::compile_frontend;
    use ifko_xsim::p4e;

    fn report(src: &str) -> (KernelIr, AnalysisReport) {
        let (r, info) = compile_frontend(src).unwrap();
        let k = lower(&r, &info).unwrap();
        let rep = analyze(&k, &p4e());
        (k, rep)
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

    #[test]
    fn dot_is_vectorizable_with_one_ae_candidate() {
        let (_, rep) = report(DOT);
        assert!(rep.vectorizable.is_ok());
        assert_eq!(rep.ae_candidates.len(), 1);
        assert_eq!(rep.pf_candidates.len(), 2);
        assert!(rep.wnt_candidates.is_empty(), "dot stores nothing");
        assert!(rep.has_tuned_loop);
        assert_eq!(rep.arch.line_elems, 8); // doubles per 64B line
    }

    #[test]
    fn dot_scalar_roles() {
        let (_, rep) = report(DOT);
        let roles: Vec<ScalarRole> = rep.scalars.iter().map(|s| s.role).collect();
        assert!(roles.contains(&ScalarRole::ReductionAdd));
        assert!(roles.contains(&ScalarRole::Private));
        // x and y are private; dot is the reduction.
        let n_priv = roles.iter().filter(|r| **r == ScalarRole::Private).count();
        assert!(n_priv >= 2);
    }

    const AMAX: &str = r#"
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

    #[test]
    fn amax_is_not_vectorizable_and_has_no_ae() {
        let (_, rep) = report(AMAX);
        assert_eq!(rep.vectorizable, Err(VecBlocker::ControlFlow));
        assert!(rep.ae_candidates.is_empty());
        assert_eq!(rep.pf_candidates.len(), 1);
    }

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

    #[test]
    fn axpy_invariant_alpha_and_wnt_candidate() {
        let (k, rep) = report(AXPY);
        assert!(rep.vectorizable.is_ok());
        // alpha is invariant.
        let alpha_v = match k.params.iter().find_map(|p| match p {
            ParamSlot::FScalar { vreg } => Some(*vreg),
            _ => None,
        }) {
            Some(v) => v,
            None => panic!("alpha param missing"),
        };
        let info = rep.scalars.iter().find(|s| s.vreg == alpha_v).unwrap();
        assert_eq!(info.role, ScalarRole::Invariant);
        // Y is a WNT candidate (stored in the loop); X is not.
        assert_eq!(rep.wnt_candidates, vec![PtrId(1)]);
        // No AE candidate (Y[0] += x updates memory, not a scalar acc).
        assert!(rep.ae_candidates.is_empty());
    }

    #[test]
    fn noprefetch_excludes_array() {
        let src = r#"
!! NOPREFETCH X
ROUTINE scalcp(X, N);
PARAMS :: X = DOUBLE_PTR:INOUT, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    X[0] = x;
    X += 1;
  LOOP_END
ROUT_END
"#;
        let (_, rep) = report(src);
        assert!(rep.pf_candidates.is_empty());
    }
}
