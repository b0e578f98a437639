//! The fundamental transformations (paper §2.2.3), applied once, in a
//! fixed order: SIMD vectorization (SV), loop unrolling (UR), loop-control
//! optimization (LC, realized as a peephole in [`crate::opt`]), accumulator
//! expansion (AE), prefetch insertion (PF), and non-temporal writes (WNT) —
//! followed by linearization of the loop structure into a flat virtual-
//! register program (`LinearKernel`): trip-count computation, the unrolled
//! main loop with latch-combined pointer bumps, the reduction epilogues,
//! a scalar remainder loop (instantiated from the untransformed body so
//! arbitrary N remain correct), and the cold out-of-line blocks at the end.

use crate::analysis::{classify_scalars, AnalysisReport, ScalarRole};
use crate::ir::*;
use crate::params::TransformParams;

/// Transform failure.
#[derive(Clone, PartialEq, Debug)]
pub struct XformError(pub String);

impl std::fmt::Display for XformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for XformError {}

/// A fully linearized kernel on virtual registers. `PartialEq` backs the
/// compile session's post-xform sub-candidate cache: a fingerprint match is
/// confirmed by structural equality before the cached artifact is reused.
#[derive(Clone, PartialEq, Debug)]
pub struct LinearKernel {
    pub name: String,
    pub prec: Prec,
    pub ptrs: Vec<PtrInfo>,
    pub params: Vec<ParamSlot>,
    pub vregs: Vec<VClass>,
    pub ops: Vec<Op>,
    pub ret: RetVal,
    pub n_labels: u32,
}

impl LinearKernel {
    pub fn new_vreg(&mut self, c: VClass) -> V {
        self.vregs.push(c);
        (self.vregs.len() - 1) as V
    }
    pub fn new_label(&mut self) -> LabelId {
        self.n_labels += 1;
        LabelId(self.n_labels - 1)
    }
}

/// Reusable working set for [`apply_transforms_with`]: the role table,
/// the renaming tables of loop copies, and the prefetch insertion buffer
/// survive across candidates in a compile session.
#[derive(Default)]
pub struct XformScratch {
    /// Role of every vreg the loop touches, indexed by `V`.
    roles: Vec<Option<ScalarRole>>,
    copier: Copier,
    inserts: Vec<(usize, Op)>,
}

/// Placeholder target of the body's jump to the halt label, resolved by
/// [`finish`] once the halt label exists.
const HALT: LabelId = LabelId(u32::MAX);

/// Dense sentinel for "no vector twin" in [`vectorize`]'s table.
const NO_V: V = V::MAX;

fn role(roles: &[Option<ScalarRole>], v: V) -> Option<ScalarRole> {
    roles.get(v as usize).copied().flatten()
}

fn set_role(roles: &mut Vec<Option<ScalarRole>>, v: V, r: ScalarRole) {
    let i = v as usize;
    if roles.len() <= i {
        roles.resize(i + 1, None);
    }
    roles[i] = Some(r);
}

/// Apply the fundamental transformations and linearize.
pub fn apply_transforms(
    kernel: &KernelIr,
    params: &TransformParams,
    rep: &AnalysisReport,
) -> Result<LinearKernel, XformError> {
    apply_transforms_with(kernel, params, rep, &mut XformScratch::default())
}

/// [`apply_transforms`] with caller-owned scratch (the session-reuse path).
/// `rep` must be the analysis of `kernel`: its scalar roles seed the
/// transforms.
pub fn apply_transforms_with(
    kernel: &KernelIr,
    params: &TransformParams,
    rep: &AnalysisReport,
    scratch: &mut XformScratch,
) -> Result<LinearKernel, XformError> {
    let mut k = kernel.clone();
    // `orig` is the untransformed loop, kept for the remainder.
    let (Some(mut l), Some(orig)) = (k.loop_.take(), kernel.loop_.as_ref()) else {
        return Err(XformError("kernel has no tuned loop".into()));
    };

    // Role table over the original vregs, from the analysis of this same
    // untransformed loop; SV adds its vector twins.
    debug_assert!(
        classify_scalars(&k, &l)
            .iter()
            .map(|s| (s.vreg, s.role))
            .eq(rep.scalars.iter().map(|s| (s.vreg, s.role))),
        "the analysis report does not describe this kernel"
    );
    let roles = &mut scratch.roles;
    roles.clear();
    roles.resize(k.vregs.len(), None);
    for s in &rep.scalars {
        set_role(roles, s.vreg, s.role);
    }

    let mut epilogue: Vec<Op> = Vec::new();

    // ---- SV: SIMD vectorization ----
    let do_simd = params.simd && rep.vectorizable.is_ok();
    if do_simd {
        vectorize(&mut k, &mut l, roles, &mut epilogue)?;
    }

    // ---- UR: loop unrolling ----
    let unroll = params.unroll.max(1);
    let (mut body, mut cold) = if unroll > 1 {
        unroll_loop(&mut k, &l, roles, unroll, &mut scratch.copier)
    } else {
        (std::mem::take(&mut l.body), std::mem::take(&mut l.cold))
    };

    // ---- AE: accumulator expansion ----
    let ae = params.accum_expand.max(1);
    if ae > 1 {
        accumulate_expand(&mut k, &mut body, roles, ae, &mut epilogue, do_simd)?;
    }

    // ---- PF: prefetch insertion ----
    insert_prefetches(&k, &mut body, &l, unroll, params, &mut scratch.inserts);

    // ---- WNT: non-temporal writes ----
    if params.wnt {
        for op in body.iter_mut().chain(cold.iter_mut()) {
            if let Op::FSt { nt, .. } = op {
                *nt = true;
            }
        }
    }

    // ---- linearize ----
    linearize(k, l, orig, body, cold, epilogue, unroll, scratch)
}

/// Replace scalar FP ops by vector ops; returns via out-params the updated
/// role table and reduction epilogue.
fn vectorize(
    k: &mut KernelIr,
    l: &mut LoopIr,
    roles: &mut Vec<Option<ScalarRole>>,
    epilogue: &mut Vec<Op>,
) -> Result<(), XformError> {
    let veclen = k.prec.veclen();
    let n = k.vregs.len();
    // Map each FP scalar vreg used in the body to a vector twin.
    let mut in_body = vec![false; n];
    for op in &l.body {
        op.for_each_use(&mut |v| in_body[v as usize] = true);
        if let Some(d) = op.def() {
            in_body[d as usize] = true;
        }
    }
    let mut vmap = vec![NO_V; n];
    let mut pre_add: Vec<Op> = Vec::new();
    for v in (0..n as V).filter(|&v| in_body[v as usize]) {
        if k.class(v) != VClass::F {
            continue;
        }
        let r = role(roles, v).unwrap_or(ScalarRole::Private);
        let nv = k.new_vreg(VClass::Vec);
        match r {
            ScalarRole::Invariant => {
                // Broadcast once before the loop.
                pre_add.push(Op::FBcast { dst: nv, src: v });
            }
            ScalarRole::ReductionAdd => {
                // Vector accumulator, zeroed before the loop; horizontal
                // sum folded into the original scalar after it.
                pre_add.push(Op::FZero {
                    dst: nv,
                    w: Width::V,
                });
                let t = k.new_vreg(VClass::F);
                epilogue.push(Op::FHSum { dst: t, src: nv });
                epilogue.push(Op::FBin {
                    op: FOp::Add,
                    dst: v,
                    a: v,
                    b: RoM::Reg(t),
                    w: Width::S,
                });
            }
            ScalarRole::Private => {}
            ScalarRole::Carried => {
                return Err(XformError("cannot vectorize carried scalar".into()))
            }
        }
        set_role(roles, nv, r);
        vmap[v as usize] = nv;
    }
    // Rewrite the body.
    let mut sub = |v: V| match vmap[v as usize] {
        NO_V => v,
        nv => nv,
    };
    for op in &mut l.body {
        op.map_uses(&mut sub);
        op.map_def(&mut sub);
        match op {
            Op::FLd { w, .. }
            | Op::FSt { w, .. }
            | Op::FMov { w, .. }
            | Op::FBin { w, .. }
            | Op::FAbs { w, .. }
            | Op::FZero { w, .. } => *w = Width::V,
            Op::FConst { .. } => {
                return Err(XformError("FP constant inside loop body (hoist it)".into()))
            }
            _ => {}
        }
    }
    k.pre.extend(pre_add);
    l.vectorized = true;
    l.elems_per_iter *= veclen;
    for (_, e) in &mut l.bumps {
        *e *= veclen as i64;
    }
    Ok(())
}

/// Produce `unroll` copies of the body (and cold blocks), renaming private
/// vregs and labels per copy, shifting memory offsets, and adjusting
/// induction-variable uses.
fn unroll_loop(
    k: &mut KernelIr,
    l: &LoopIr,
    roles: &[Option<ScalarRole>],
    unroll: u32,
    copier: &mut Copier,
) -> (Vec<Op>, Vec<Op>) {
    copier.plan(k, l, roles);
    let mut body = Vec::with_capacity(l.body.len() * unroll as usize);
    let mut cold = Vec::with_capacity(l.cold.len() * unroll as usize);
    for c in 0..unroll {
        copier.emit(k, l, c, c != 0, &mut body, &mut cold);
    }
    (body, cold)
}

/// Renaming tables for copies of one loop. [`Copier::plan`] runs once per
/// loop; each [`Copier::emit`] then costs one pass over the loop's ops,
/// through dense maps from an original vreg, label or pointer id to its
/// name or bump in the current copy.
#[derive(Default)]
struct Copier {
    /// Private vregs and labels of the loop, ascending: the order in which
    /// a renamed copy allocates their fresh names.
    privates: Vec<V>,
    labels: Vec<LabelId>,
    /// Name of each original vreg / label in the current copy.
    vmap: Vec<V>,
    lmap: Vec<LabelId>,
    /// Per-iteration element bump, indexed by pointer id.
    bump_of: Vec<i64>,
    /// The visible induction variable, when the loop reads it.
    ivar: Option<V>,
}

impl Copier {
    fn plan(&mut self, k: &KernelIr, l: &LoopIr, roles: &[Option<ScalarRole>]) {
        let ops = || l.body.iter().chain(&l.cold);
        self.privates.clear();
        self.labels.clear();
        for op in ops() {
            let mut note = |v: V| {
                if role(roles, v) == Some(ScalarRole::Private) {
                    self.privates.push(v);
                }
            };
            op.for_each_use(&mut note);
            if let Some(d) = op.def() {
                note(d);
            }
            if let Op::Label(id) = op {
                self.labels.push(*id);
            }
        }
        self.privates.sort_unstable();
        self.privates.dedup();
        self.labels.sort_by_key(|l| l.0);
        self.labels.dedup();
        self.vmap.clear();
        self.vmap.extend(0..k.vregs.len() as V);
        self.lmap.clear();
        self.lmap.extend((0..k.n_labels).map(LabelId));
        self.bump_of.clear();
        self.bump_of.resize(k.ptrs.len(), 0);
        for &(p, e) in &l.bumps {
            if let Some(b) = self.bump_of.get_mut(p.0 as usize) {
                *b = e;
            }
        }
        self.ivar = match l.counter {
            Counter::Visible { ivar, .. } if ops().any(|o| o.reads(ivar)) => Some(ivar),
            _ => None,
        };
    }

    /// Append copy `copy` of the planned loop `l` to `body` and `cold`.
    /// `rename` gives the copy fresh private vregs and labels (copy 0 of
    /// the main loop keeps the originals). A later copy that reads the
    /// induction variable reads `ivar - copy`, materialized once at its top.
    fn emit(
        &mut self,
        k: &mut KernelIr,
        l: &LoopIr,
        copy: u32,
        rename: bool,
        body: &mut Vec<Op>,
        cold: &mut Vec<Op>,
    ) {
        for &v in &self.privates {
            self.vmap[v as usize] = if rename { k.new_vreg(k.class(v)) } else { v };
        }
        for &lab in &self.labels {
            self.lmap[lab.0 as usize] = if rename { k.new_label() } else { lab };
        }
        let ivar_sub = match self.ivar {
            Some(iv) if copy > 0 => {
                let t = k.new_vreg(VClass::Int);
                body.push(Op::IMov { dst: t, src: iv });
                body.push(Op::IBin {
                    op: IOp::Sub,
                    dst: t,
                    a: t,
                    b: IOrImm::Imm(copy as i64),
                });
                Some((iv, t))
            }
            _ => None,
        };
        let this = &*self;
        let name = |v: V| this.vmap.get(v as usize).copied().unwrap_or(v);
        let rewrite = |op: &Op| {
            let mut op = op.clone();
            op.map_uses(&mut |v| match ivar_sub {
                Some((iv, t)) if v == iv => t,
                _ => name(v),
            });
            op.map_def(&mut |v| name(v));
            if let Some(mem) = op.mem_mut() {
                let bump = this.bump_of.get(mem.ptr.0 as usize).copied().unwrap_or(0);
                mem.off_elems += copy as i64 * bump;
            }
            if let Op::Label(id) | Op::Br(id) | Op::CondBr { target: id, .. } = &mut op {
                *id = this.lmap.get(id.0 as usize).copied().unwrap_or(*id);
            }
            op
        };
        body.extend(l.body.iter().map(rewrite));
        cold.extend(l.cold.iter().map(rewrite));
    }
}

/// Rewrite reduction updates to rotate over `ae` accumulators; zero the
/// extras in `pre` and fold them in the epilogue.
fn accumulate_expand(
    k: &mut KernelIr,
    body: &mut [Op],
    roles: &[Option<ScalarRole>],
    ae: u32,
    epilogue: &mut Vec<Op>,
    vectorized: bool,
) -> Result<(), XformError> {
    // Accumulators present in this (possibly vectorized) body.
    let accs: Vec<V> = {
        let mut vs: Vec<V> = body
            .iter()
            .filter_map(|o| match o {
                Op::FBin {
                    op: FOp::Add,
                    dst,
                    a,
                    ..
                } if dst == a => Some(*dst),
                _ => None,
            })
            .filter(|&v| role(roles, v) == Some(ScalarRole::ReductionAdd))
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    };
    if accs.is_empty() {
        return Err(XformError(
            "accumulator expansion requested but no candidates".into(),
        ));
    }
    let class = if vectorized { VClass::Vec } else { VClass::F };
    let w = if vectorized { Width::V } else { Width::S };
    let mut fold_ops = Vec::new();
    let mut pre_add = Vec::new();
    for &acc in &accs {
        // acc_0 is the original; create ae-1 extras.
        let mut bank = vec![acc];
        for _ in 1..ae {
            let nv = k.new_vreg(class);
            pre_add.push(Op::FZero { dst: nv, w });
            bank.push(nv);
        }
        // Rotate occurrences.
        let mut occ = 0usize;
        for op in body.iter_mut() {
            if let Op::FBin {
                op: FOp::Add,
                dst,
                a,
                ..
            } = op
            {
                if *dst == acc && *a == acc {
                    let slot = bank[occ % bank.len()];
                    *dst = slot;
                    *a = slot;
                    occ += 1;
                }
            }
        }
        // Fold extras back into the original before any SV epilogue.
        for &extra in &bank[1..] {
            fold_ops.push(Op::FBin {
                op: FOp::Add,
                dst: acc,
                a: acc,
                b: RoM::Reg(extra),
                w,
            });
        }
    }
    k.pre.extend(pre_add);
    // Folds must precede the (SV) horizontal-sum epilogue.
    let mut new_epi = fold_ops;
    new_epi.append(epilogue);
    *epilogue = new_epi;
    Ok(())
}

/// Insert prefetch ops into the unrolled body: one per cache line consumed
/// per array per unrolled iteration, spread through the body, with
/// distances stepping a line apart (paper: "prefetching one array can
/// require multiple prefetch requests in the unrolled loop body, as each
/// x86 prefetch instruction fetches only one cache line").
fn insert_prefetches(
    k: &KernelIr,
    body: &mut Vec<Op>,
    l: &LoopIr,
    unroll: u32,
    params: &TransformParams,
    inserts: &mut Vec<(usize, Op)>,
) {
    const LINE: i64 = 64;
    inserts.clear();
    for spec in &params.prefetch {
        let Some(kind) = spec.kind else { continue };
        let bump = l
            .bumps
            .iter()
            .find(|(p, _)| *p == spec.ptr)
            .map(|(_, e)| *e)
            .unwrap_or(0);
        if bump == 0 {
            continue;
        }
        let bytes_per_iter = bump * unroll as i64 * k.prec.bytes() as i64;
        let n_pref = ((bytes_per_iter + LINE - 1) / LINE).max(1);
        for j in 0..n_pref {
            let pos = (body.len() * (j as usize + 1)) / (n_pref as usize + 1);
            inserts.push((
                pos,
                Op::Prefetch {
                    ptr: spec.ptr,
                    dist_bytes: spec.dist + j * LINE,
                    kind,
                },
            ));
        }
    }
    if inserts.is_empty() {
        return;
    }
    // Merge in one pass. A prefetch lands before the op at its position;
    // prefetches sharing a position go in reverse order of the specs that
    // asked for them.
    inserts.sort_by_key(|(pos, _)| std::cmp::Reverse(*pos));
    inserts.reverse();
    let old = std::mem::take(body);
    body.reserve(old.len() + inserts.len());
    let mut pending = inserts.drain(..).peekable();
    for (i, op) in old.into_iter().enumerate() {
        while let Some((_, pf)) = pending.next_if(|(pos, _)| *pos <= i) {
            body.push(pf);
        }
        body.push(op);
    }
    body.extend(pending.map(|(_, pf)| pf));
}

/// Assemble the final flat program.
#[allow(clippy::too_many_arguments)]
fn linearize(
    mut k: KernelIr,
    l: LoopIr,
    orig: &LoopIr,
    mut body: Vec<Op>,
    cold: Vec<Op>,
    epilogue: Vec<Op>,
    unroll: u32,
    sc: &mut XformScratch,
) -> Result<LinearKernel, XformError> {
    let step = (l.elems_per_iter * unroll as u64) as i64;
    let total_bumps: Vec<(PtrId, i64)> = l
        .bumps
        .iter()
        .map(|(p, e)| (*p, e * unroll as i64))
        .collect();

    let mut ops = param_moves(&k.params);
    ops.append(&mut k.pre);

    // Main loop. Per counter shape: the counter, its trip control, and
    // the counter of the scalar remainder loop, if the step leaves one.
    let (ctr, trip, rem) = match l.counter {
        Counter::Hidden { trips: n } => {
            let t_main = k.new_vreg(VClass::Int);
            ops.push(Op::IMov {
                dst: t_main,
                src: n,
            });
            let t_rem = if step > 1 {
                ops.push(Op::IBin {
                    op: IOp::Div,
                    dst: t_main,
                    a: t_main,
                    b: IOrImm::Imm(step),
                });
                let t_rem = k.new_vreg(VClass::Int);
                ops.push(Op::IMov { dst: t_rem, src: n });
                ops.push(Op::IBin {
                    op: IOp::Rem,
                    dst: t_rem,
                    a: t_rem,
                    b: IOrImm::Imm(step),
                });
                Some(t_rem)
            } else {
                None
            };
            (t_main, BY_ONE, t_rem)
        }
        Counter::Visible { ivar, n, down } => {
            if !down {
                return Err(XformError(
                    "visible upward counters are not supported".into(),
                ));
            }
            ops.push(Op::IMov { dst: ivar, src: n });
            if unroll > 1 {
                // Remainder: continue while ivar >= 1 with the original body.
                (ivar, ((step, Cond::Lt), step, (step, Cond::Ge)), Some(ivar))
            } else {
                (ivar, ((0, Cond::Le), step, (0, Cond::Gt)), None)
            }
        }
    };
    counted_loop(&mut k, &mut ops, ctr, trip, &mut body, &total_bumps);
    ops.extend(epilogue);

    // Scalar remainder loop from the untransformed body.
    let mut rem_cold = Vec::new();
    if let Some(ctr) = rem {
        let mut rbody = Vec::new();
        sc.copier.plan(&k, orig, &sc.roles);
        sc.copier
            .emit(&mut k, orig, 0, true, &mut rbody, &mut rem_cold);
        counted_loop(&mut k, &mut ops, ctr, BY_ONE, &mut rbody, &orig.bumps);
    }
    ops.append(&mut k.post);
    ops.push(Op::Br(HALT));
    ops.extend(cold);
    ops.append(&mut rem_cold);
    finish(k, ops)
}

/// A counted loop's control: the guard `(imm, cond)` under which the
/// counter skips the loop, the decrement per trip, and the latch
/// `(imm, cond)` under which it loops back.
type Trip = ((i64, Cond), i64, (i64, Cond));

/// Count down by one while positive.
const BY_ONE: Trip = ((0, Cond::Le), 1, (0, Cond::Gt));

/// Append a counted loop on `ctr`: each trip runs `body` and the pointer
/// bumps, then steps the counter as `trip` says.
fn counted_loop(
    k: &mut KernelIr,
    ops: &mut Vec<Op>,
    ctr: V,
    trip: Trip,
    body: &mut Vec<Op>,
    bumps: &[(PtrId, i64)],
) {
    let (guard, dec, latch) = trip;
    let top = k.new_label();
    let done = k.new_label();
    ops.push(Op::ICmp {
        a: ctr,
        b: IOrImm::Imm(guard.0),
    });
    ops.push(Op::CondBr {
        cond: guard.1,
        target: done,
    });
    ops.push(Op::Label(top));
    ops.append(body);
    ops.extend(bumps.iter().map(|&(ptr, elems)| Op::PtrBump { ptr, elems }));
    ops.push(Op::IBin {
        op: IOp::Sub,
        dst: ctr,
        a: ctr,
        b: IOrImm::Imm(dec),
    });
    ops.push(Op::ICmp {
        a: ctr,
        b: IOrImm::Imm(latch.0),
    });
    ops.push(Op::CondBr {
        cond: latch.1,
        target: top,
    });
    ops.push(Op::Label(done));
}

/// Materialize non-pointer parameters from their arrival registers as
/// ordinary defs, so register allocation (and spilling) treats them like
/// any other value. Arrival registers follow the shared calling
/// convention: ints/pointers count up from r0, FP scalars down from x7.
fn param_moves(params: &[ParamSlot]) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut int_slot = 0u8;
    let mut fp_slot = 7u8;
    for pslot in params {
        match pslot {
            ParamSlot::Ptr(_) => int_slot += 1,
            ParamSlot::Int { vreg } => {
                ops.push(Op::IParamMov {
                    dst: *vreg,
                    arrival: int_slot,
                });
                int_slot += 1;
            }
            ParamSlot::FScalar { vreg } => {
                ops.push(Op::FParamMov {
                    dst: *vreg,
                    arrival: fp_slot,
                });
                fp_slot -= 1;
            }
        }
    }
    ops
}

/// Resolve the halt-jump placeholder and package the linear kernel.
fn finish(mut k: KernelIr, mut ops: Vec<Op>) -> Result<LinearKernel, XformError> {
    let halt_label = k.new_label();
    for op in &mut ops {
        if *op == Op::Br(HALT) {
            *op = Op::Br(halt_label);
        }
    }
    // The halt label is bound at the end of the op stream; codegen places
    // the return-value move and Halt there.
    ops.push(Op::Label(halt_label));
    Ok(LinearKernel {
        name: k.name,
        prec: k.prec,
        ptrs: k.ptrs,
        params: k.params,
        vregs: k.vregs,
        ops,
        ret: k.ret,
        n_labels: k.n_labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::lower::lower;
    use ifko_hil::compile_frontend;
    use ifko_xsim::p4e;

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

    fn setup(src: &str) -> (KernelIr, AnalysisReport) {
        let (r, info) = compile_frontend(src).unwrap();
        let k = lower(&r, &info).unwrap();
        let rep = analyze(&k, &p4e());
        (k, rep)
    }

    #[test]
    fn scalar_untransformed_linearizes() {
        let (k, rep) = setup(DOT);
        let lin = apply_transforms(&k, &TransformParams::off(), &rep).unwrap();
        // One loop, no remainder (step == 1): exactly two CondBr for the
        // main loop plus none for a remainder.
        let brs = lin
            .ops
            .iter()
            .filter(|o| matches!(o, Op::CondBr { .. }))
            .count();
        assert_eq!(brs, 2);
        assert!(lin.ops.iter().any(|o| matches!(o, Op::PtrBump { .. })));
        assert!(!lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::IBin { op: IOp::Div, .. })));
    }

    #[test]
    fn vectorized_kernel_has_vector_ops_and_epilogue() {
        let (k, rep) = setup(DOT);
        let mut p = TransformParams::off();
        p.simd = true;
        let lin = apply_transforms(&k, &p, &rep).unwrap();
        assert!(lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::FLd { w: Width::V, .. })));
        assert!(lin.ops.iter().any(|o| matches!(o, Op::FHSum { .. })));
        // Remainder loop exists (step = 2 for doubles).
        assert!(lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::IBin { op: IOp::Rem, .. })));
        // Vector bump: 2 elems * 8 bytes per iteration.
        assert!(lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::PtrBump { elems: 2, .. })));
    }

    #[test]
    fn unroll_duplicates_and_shifts_offsets() {
        let (k, rep) = setup(DOT);
        let mut p = TransformParams::off();
        p.unroll = 4;
        let lin = apply_transforms(&k, &p, &rep).unwrap();
        let offs: Vec<i64> = lin
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::FLd { mem, .. } if mem.ptr == PtrId(0) => Some(mem.off_elems),
                _ => None,
            })
            .collect();
        // Main loop copies at offsets 0..3, plus the remainder load at 0.
        assert_eq!(offs, vec![0, 1, 2, 3, 0]);
        // Combined bump of 4 elems; remainder bump of 1.
        assert!(lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::PtrBump { elems: 4, .. })));
        assert!(lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::PtrBump { elems: 1, .. })));
    }

    #[test]
    fn sv_plus_unroll_compose() {
        let (k, rep) = setup(DOT);
        let mut p = TransformParams::off();
        p.simd = true;
        p.unroll = 4;
        let lin = apply_transforms(&k, &p, &rep).unwrap();
        // Vector loads at vector offsets 0, 2, 4, 6 (elems).
        let offs: Vec<i64> = lin
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::FLd {
                    mem, w: Width::V, ..
                } if mem.ptr == PtrId(0) => Some(mem.off_elems),
                _ => None,
            })
            .collect();
        assert_eq!(offs, vec![0, 2, 4, 6]);
        assert!(lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::PtrBump { elems: 8, .. })));
    }

    #[test]
    fn ae_rotates_accumulators() {
        let (k, rep) = setup(DOT);
        let mut p = TransformParams::off();
        p.unroll = 4;
        p.accum_expand = 2;
        let lin = apply_transforms(&k, &p, &rep).unwrap();
        // The reduction adds in the main body must target 2 distinct accs.
        let mut accs: Vec<V> = lin
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::FBin {
                    op: FOp::Add,
                    dst,
                    a,
                    b: RoM::Reg(_),
                    w: Width::S,
                } if dst == a => Some(*dst),
                _ => None,
            })
            .collect();
        accs.sort_unstable();
        accs.dedup();
        assert!(accs.len() >= 2, "expected >=2 accumulators, got {accs:?}");
        assert!(lin.ops.iter().any(|o| matches!(o, Op::FZero { .. })));
    }

    #[test]
    fn prefetch_count_scales_with_unroll() {
        let (k, rep) = setup(DOT);
        let mut p = TransformParams::defaults(&rep, &p4e());
        p.simd = false;
        p.unroll = 16; // 16 doubles = 2 lines per array per iter
        let lin = apply_transforms(&k, &p, &rep).unwrap();
        let prefs = lin
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Prefetch { .. }))
            .count();
        assert_eq!(prefs, 4, "2 arrays x 2 lines per unrolled iteration");
    }

    #[test]
    fn wnt_marks_stores() {
        let src = r#"
ROUTINE copy(X, Y, N);
PARAMS :: X = DOUBLE_PTR, Y = DOUBLE_PTR:OUT, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    Y[0] = x;
    X += 1;
    Y += 1;
  LOOP_END
ROUT_END
"#;
        let (k, rep) = setup(src);
        let mut p = TransformParams::off();
        p.wnt = true;
        let lin = apply_transforms(&k, &p, &rep).unwrap();
        assert!(lin
            .ops
            .iter()
            .any(|o| matches!(o, Op::FSt { nt: true, .. })));
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
    fn amax_unrolls_with_duplicated_cold_blocks() {
        let (k, rep) = setup(AMAX);
        let mut p = TransformParams::off();
        p.unroll = 4;
        let lin = apply_transforms(&k, &p, &rep).unwrap();
        // 4 cold copies in main + 1 in remainder = 5 labels' worth of
        // cold Br-back ops, plus loop-structure branches.
        let labels = lin.ops.iter().filter(|o| matches!(o, Op::Label(_))).count();
        assert!(
            labels >= 10,
            "expected many labels after unroll, got {labels}"
        );
        // Induction adjustments appear (IMov from ivar then Sub imm).
        assert!(lin.ops.iter().any(|o| matches!(
            o,
            Op::IBin {
                op: IOp::Sub,
                b: IOrImm::Imm(2),
                ..
            }
        )));
    }
}
