//! The repeatable transformations (paper §2.2.4), applied in an
//! optimization block that repeats while they keep changing the code:
//! copy propagation, dead-code elimination, the x86 CISC memory-operand
//! peephole ("exploit the fact that the x86 is not a true load/store
//! architecture — relatively important when the ISA has only eight
//! registers"), loop-control optimization (dec-and-branch), and branch
//! chaining / useless-jump / useless-label elimination, which together
//! merge basic blocks (critical after extensive loop unrolling).

use crate::dataflow;
use crate::ir::*;
use crate::params::TransformParams;
use crate::xform::LinearKernel;

/// Dense sentinel for "no entry" in vreg-indexed tables.
const NO_V: V = V::MAX;

/// Reusable working set for the optimization block. A compile session
/// keeps one per pipeline scratch set so the per-pass tables (use counts,
/// copy table, label positions, liveness bit-vectors) are allocated once
/// per session instead of once per pass per candidate.
#[derive(Default)]
pub struct OptScratch {
    /// Use count per vreg.
    use_count: Vec<u32>,
    /// Copy table per vreg (`NO_V` = absent), and the def count of the
    /// copy's source when it was recorded: a copy holds while its source's
    /// def count is unchanged, so redefining a source drops every copy of
    /// it at once.
    copies: Vec<V>,
    copy_stamp: Vec<u32>,
    /// Defs seen so far per vreg.
    defs: Vec<u32>,
    /// Vregs written into `copies` since the last label, for O(touched)
    /// clears.
    touched: Vec<V>,
    /// Label position table (`usize::MAX` = absent), indexed by `LabelId`.
    label_pos: Vec<usize>,
    /// Labels referenced by some branch, indexed by `LabelId`.
    referenced: Vec<bool>,
    /// Per-op keep mask of the passes that delete ops.
    keep: Vec<bool>,
    /// CFG and liveness solver storage.
    cfg: dataflow::Cfg,
    live: dataflow::LivenessScratch,
    /// Current live set during the per-block backward DCE scan.
    live_now: dataflow::BitVec,
    /// Deferred branch retargets.
    retargets: Vec<(usize, LabelId)>,
}

impl OptScratch {
    /// The source `v` is a live copy of, if any.
    fn copy_of(&self, v: V) -> Option<V> {
        match self.copies[v as usize] {
            NO_V => None,
            root => (self.copy_stamp[v as usize] == self.defs[root as usize]).then_some(root),
        }
    }
}

/// Run the repeatable optimization block to a fixed point.
pub fn optimize(k: &mut LinearKernel, params: &TransformParams) {
    optimize_with(k, params, &mut OptScratch::default());
}

/// [`optimize`] with caller-owned scratch buffers (the session-reuse path).
pub fn optimize_with(k: &mut LinearKernel, params: &TransformParams, s: &mut OptScratch) {
    for _ in 0..8 {
        let mut changed = false;
        if params.copy_prop {
            changed |= copy_propagate_with(k, s);
            changed |= coalesce_movs_with(k, s);
        }
        if params.dead_code_elim {
            changed |= dead_code_elim_with(k, s);
        }
        if params.cisc_memops {
            changed |= fuse_mem_operands_with(k, s);
        }
        if params.loop_control {
            changed |= loop_control(k);
        }
        if params.branch_cleanup {
            changed |= branch_cleanup_with(k, s);
        }
        if !changed {
            break;
        }
    }
}

/// Forward copy propagation within extended basic blocks (reset at labels).
/// The tied `a` operand of two-address `FBin`/`IBin` is never substituted,
/// preserving the `dst == a` invariant.
pub fn copy_propagate(k: &mut LinearKernel) -> bool {
    copy_propagate_with(k, &mut OptScratch::default())
}

fn copy_propagate_with(k: &mut LinearKernel, s: &mut OptScratch) -> bool {
    let mut changed = false;
    let nv = k.vregs.len();
    s.copies.clear();
    s.copies.resize(nv, NO_V);
    s.copy_stamp.clear();
    s.copy_stamp.resize(nv, 0);
    s.defs.clear();
    s.defs.resize(nv, 0);
    s.touched.clear();
    for op in &mut k.ops {
        if matches!(op, Op::Label(_)) {
            for &t in &s.touched {
                s.copies[t as usize] = NO_V;
            }
            s.touched.clear();
            continue;
        }
        // Substitute uses (except tied operands).
        match op {
            Op::FBin { b: RoM::Reg(r), .. }
            | Op::IBin {
                b: IOrImm::Reg(r), ..
            } => {
                if let Some(nv) = s.copy_of(*r) {
                    *r = nv;
                    changed = true;
                }
            }
            Op::FBin { .. } | Op::IBin { .. } | Op::IDecFlags(_) => {}
            _ => op.map_uses(&mut |v| match s.copy_of(v) {
                Some(nv) => {
                    changed |= nv != v;
                    nv
                }
                None => v,
            }),
        }
        // Update the copy table.
        let new_copy = match op {
            Op::FMov { dst, src, .. } => Some((*dst, *src)),
            Op::IMov { dst, src } => Some((*dst, *src)),
            _ => None,
        };
        if let Some(d) = op.def() {
            s.copies[d as usize] = NO_V;
            s.defs[d as usize] += 1;
        }
        if let Some((d, src)) = new_copy {
            let root = s.copy_of(src).unwrap_or(src);
            if d != src && root != d {
                s.copies[d as usize] = root;
                s.copy_stamp[d as usize] = s.defs[root as usize];
                s.touched.push(d);
            }
        }
    }
    changed
}

/// Coalesce `def v; mov t, v` pairs where `v` has no other use: the def
/// writes `t` directly and the move disappears. This catches the tied
/// two-address chains copy propagation must not touch (e.g. the
/// `t = x; t *= y` shape produced by expression lowering).
pub fn coalesce_movs(k: &mut LinearKernel) -> bool {
    coalesce_movs_with(k, &mut OptScratch::default())
}

fn count_uses(k: &LinearKernel, use_count: &mut Vec<u32>) {
    use_count.clear();
    use_count.resize(k.vregs.len(), 0);
    for op in &k.ops {
        op.for_each_use(&mut |u| use_count[u as usize] += 1);
    }
    match k.ret {
        RetVal::F(v) | RetVal::I(v) => use_count[v as usize] += 1,
        RetVal::None => {}
    }
}

fn coalesce_movs_with(k: &mut LinearKernel, s: &mut OptScratch) -> bool {
    count_uses(k, &mut s.use_count);
    s.keep.clear();
    s.keep.resize(k.ops.len(), true);
    let mut changed = false;
    let mut i = 0;
    while i + 1 < k.ops.len() {
        let (dst, src, is_f) = match &k.ops[i + 1] {
            Op::FMov { dst, src, .. } => (*dst, *src, true),
            Op::IMov { dst, src } => (*dst, *src, false),
            _ => {
                i += 1;
                continue;
            }
        };
        let def_matches = k.ops[i].def() == Some(src)
            && s.use_count[src as usize] == 1
            && !k.ops[i].reads(src)
            && !k.ops[i].reads(dst);
        // Classes must be compatible (mov direction fixes them equal).
        let class_ok = if is_f {
            k.vregs[dst as usize] == k.vregs[src as usize]
        } else {
            true
        };
        if def_matches && class_ok {
            k.ops[i].map_def(&mut |v| if v == src { dst } else { v });
            // Tied ops: the `a` operand mirrors the def.
            if let Op::FBin { dst: d, a, .. } = &mut k.ops[i] {
                if a == &src {
                    *a = *d;
                }
            }
            if let Op::IBin { dst: d, a, .. } = &mut k.ops[i] {
                if a == &src {
                    *a = *d;
                }
            }
            // The move goes; the scan resumes after it.
            s.keep[i + 1] = false;
            changed = true;
            i += 1;
        }
        i += 1;
    }
    if changed {
        retain_kept(&mut k.ops, &s.keep);
    }
    changed
}

/// Drop every op whose `keep` entry is false, in one pass.
fn retain_kept(ops: &mut Vec<Op>, keep: &[bool]) {
    let mut idx = 0;
    ops.retain(|_| {
        idx += 1;
        keep[idx - 1]
    });
}

/// Remove pure ops whose results are never used (iterated to fixpoint by
/// the caller). Built on the dataflow framework's liveness analysis: an op
/// is dead when it has no side effect and its destination is not live
/// after it, which also catches defs shadowed by a redefinition before
/// any use — strictly stronger than a whole-program used-set while staying
/// loop-safe.
pub fn dead_code_elim(k: &mut LinearKernel) -> bool {
    dead_code_elim_with(k, &mut OptScratch::default())
}

fn dead_code_elim_with(k: &mut LinearKernel, s: &mut OptScratch) -> bool {
    let is_pure_def = |op: &Op| -> Option<V> {
        match op {
            Op::FLd { dst, .. }
            | Op::FMov { dst, .. }
            | Op::FConst { dst, .. }
            | Op::FZero { dst, .. }
            | Op::FBin { dst, .. }
            | Op::FAbs { dst, .. }
            | Op::FSqrt { dst, .. }
            | Op::FBcast { dst, .. }
            | Op::FHSum { dst, .. }
            | Op::FHMax { dst, .. }
            | Op::IConst { dst, .. }
            | Op::IMov { dst, .. }
            | Op::IBin { dst, .. } => Some(*dst),
            Op::IParamMov { dst, .. } | Op::FParamMov { dst, .. } => Some(*dst),
            _ => None,
        }
    };
    let ret_buf;
    let exit_live: &[V] = match k.ret {
        RetVal::F(v) | RetVal::I(v) => {
            ret_buf = [v];
            &ret_buf
        }
        RetVal::None => &[],
    };
    let nvregs = k.vregs.len();
    dataflow::build_cfg_into(&k.ops, &mut s.cfg);
    let cfg = &s.cfg;
    dataflow::liveness_into(&k.ops, nvregs, exit_live, cfg, &mut s.live);

    s.keep.clear();
    s.keep.resize(k.ops.len(), true);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let live_now = &mut s.live_now;
        live_now.reset(nvregs);
        live_now.union_with(&s.live.live_out[b]);
        for i in (blk.start..blk.end).rev() {
            let op = &k.ops[i];
            let dead = match is_pure_def(op) {
                Some(d) => !live_now.get(d as usize),
                None => false,
            };
            let self_move = matches!(op, Op::FMov { dst, src, .. } if dst == src)
                || matches!(op, Op::IMov { dst, src } if dst == src);
            if dead || self_move {
                s.keep[i] = false;
                continue;
            }
            if let Some(d) = op.def() {
                live_now.clear(d as usize);
            }
            op.for_each_use(&mut |u| live_now.set(u as usize));
        }
    }
    if s.keep.iter().all(|&kp| kp) {
        return false;
    }
    retain_kept(&mut k.ops, &s.keep);
    true
}

/// Fuse a single-use `FLd` into the memory operand of the consuming
/// `FBin`/`FCmp` when no intervening op can change the loaded location.
pub fn fuse_mem_operands(k: &mut LinearKernel) -> bool {
    fuse_mem_operands_with(k, &mut OptScratch::default())
}

fn fuse_mem_operands_with(k: &mut LinearKernel, s: &mut OptScratch) -> bool {
    count_uses(k, &mut s.use_count);
    s.keep.clear();
    s.keep.resize(k.ops.len(), true);
    let mut changed = false;
    'outer: for i in 0..k.ops.len() {
        let (dst, mem, w) = match &k.ops[i] {
            Op::FLd { dst, mem, w } => (*dst, *mem, *w),
            _ => continue,
        };
        if s.use_count[dst as usize] != 1 {
            continue;
        }
        // Find the single consumer in the same block, with no hazards.
        for j in i + 1..k.ops.len() {
            match &k.ops[j] {
                Op::Label(_) | Op::Br(_) | Op::CondBr { .. } => continue 'outer,
                Op::FSt { mem: smem, .. } if smem.ptr == mem.ptr => continue 'outer,
                Op::PtrBump { ptr, .. } if *ptr == mem.ptr => continue 'outer,
                Op::FLd { dst: d2, .. } if *d2 == dst => continue 'outer,
                op2 if op2.reads(dst) => {
                    match &mut k.ops[j] {
                        Op::FBin {
                            a,
                            b: b @ RoM::Reg(_),
                            w: w2,
                            ..
                        } if *b == RoM::Reg(dst) && *w2 == w && *a != dst => {
                            *b = RoM::Mem(mem);
                            s.keep[i] = false;
                            changed = true;
                        }
                        Op::FCmp {
                            a,
                            b: b @ RoM::Reg(_),
                        } if *b == RoM::Reg(dst) && w == Width::S && *a != dst => {
                            *b = RoM::Mem(mem);
                            s.keep[i] = false;
                            changed = true;
                        }
                        _ => {}
                    }
                    continue 'outer;
                }
                _ => {}
            }
        }
    }
    if changed {
        retain_kept(&mut k.ops, &s.keep);
    }
    changed
}

/// LC: rewrite `x -= 1; cmp x, 0; jcc` into `dec x; jcc`.
pub fn loop_control(k: &mut LinearKernel) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i + 2 < k.ops.len() {
        let dec = match (&k.ops[i], &k.ops[i + 1], &k.ops[i + 2]) {
            (
                Op::IBin {
                    op: IOp::Sub,
                    dst,
                    a,
                    b: IOrImm::Imm(1),
                },
                Op::ICmp {
                    a: ca,
                    b: IOrImm::Imm(0),
                },
                Op::CondBr {
                    cond: Cond::Gt | Cond::Ge | Cond::Ne | Cond::Eq | Cond::Le,
                    ..
                },
            ) if dst == a && ca == dst => Some(*dst),
            _ => None,
        };
        if let Some(x) = dec {
            k.ops[i] = Op::IDecFlags(x);
            k.ops.remove(i + 1);
            changed = true;
        }
        i += 1;
    }
    changed
}

/// Branch chaining, useless-jump elimination, and useless-label
/// elimination (merging basic blocks).
pub fn branch_cleanup(k: &mut LinearKernel) -> bool {
    branch_cleanup_with(k, &mut OptScratch::default())
}

fn branch_cleanup_with(k: &mut LinearKernel, s: &mut OptScratch) -> bool {
    let mut changed = false;

    // Map label -> position (last occurrence wins, as with map collection).
    let nl = k.n_labels as usize;
    s.label_pos.clear();
    s.label_pos.resize(nl, usize::MAX);
    for (i, o) in k.ops.iter().enumerate() {
        if let Op::Label(l) = o {
            s.label_pos[l.0 as usize] = i;
        }
    }

    // Branch chaining: a branch to a label followed immediately by an
    // unconditional Br is retargeted.
    let positions = &s.label_pos;
    let chase = |mut l: LabelId| -> LabelId {
        let mut hops = 0;
        while hops < 8 {
            let pos = match positions.get(l.0 as usize) {
                Some(&p) if p != usize::MAX => p,
                _ => break,
            };
            // Skip consecutive labels.
            let mut q = pos + 1;
            while matches!(k.ops.get(q), Some(Op::Label(_))) {
                q += 1;
            }
            match k.ops.get(q) {
                Some(Op::Br(next)) => {
                    l = *next;
                    hops += 1;
                }
                _ => break,
            }
        }
        l
    };
    s.retargets.clear();
    for (i, op) in k.ops.iter().enumerate() {
        match op {
            Op::Br(l) | Op::CondBr { target: l, .. } => {
                let n = chase(*l);
                if n != *l {
                    s.retargets.push((i, n));
                }
            }
            _ => {}
        }
    }
    for &(i, n) in &s.retargets {
        match &mut k.ops[i] {
            Op::Br(l) | Op::CondBr { target: l, .. } => {
                *l = n;
                changed = true;
            }
            _ => {}
        }
    }

    // Useless jumps: Br to the label that directly follows (possibly after
    // other labels).
    let mut i = 0;
    while i < k.ops.len() {
        if let Op::Br(l) = &k.ops[i] {
            let mut q = i + 1;
            let mut falls_through = false;
            while let Some(Op::Label(lab)) = k.ops.get(q) {
                if lab == l {
                    falls_through = true;
                    break;
                }
                q += 1;
            }
            if falls_through {
                k.ops.remove(i);
                changed = true;
                continue;
            }
        }
        i += 1;
    }

    // Useless labels: never referenced (keep the last label, which is the
    // halt label — it is always referenced by the structural Br, but guard
    // anyway).
    s.referenced.clear();
    s.referenced.resize(nl, false);
    for o in &k.ops {
        if let Op::Br(l) | Op::CondBr { target: l, .. } = o {
            s.referenced[l.0 as usize] = true;
        }
    }
    let referenced = &s.referenced;
    let before = k.ops.len();
    let last_idx = k.ops.len().saturating_sub(1);
    let mut idx = 0;
    k.ops.retain(|op| {
        let keep = match op {
            Op::Label(l) => referenced[l.0 as usize] || idx == last_idx,
            _ => true,
        };
        idx += 1;
        keep
    });
    changed |= k.ops.len() != before;
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::lower::lower;
    use crate::xform::apply_transforms;
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

    fn linear(src: &str, p: &TransformParams) -> LinearKernel {
        let (r, info) = compile_frontend(src).unwrap();
        let k = lower(&r, &info).unwrap();
        let rep = analyze(&k, &p4e());
        apply_transforms(&k, p, &rep).unwrap()
    }

    #[test]
    fn pipeline_shrinks_dot_body() {
        let mut k = linear(DOT, &TransformParams::off());
        let before = k.ops.len();
        optimize(&mut k, &TransformParams::off());
        assert!(
            k.ops.len() < before,
            "optimization must shrink the op count"
        );
        // The multiply should now take its Y operand from memory.
        assert!(k.ops.iter().any(|o| matches!(
            o,
            Op::FBin {
                op: FOp::Mul,
                b: RoM::Mem(_),
                ..
            }
        )));
        // Loop control: dec-and-branch replaces sub+cmp.
        assert!(k.ops.iter().any(|o| matches!(o, Op::IDecFlags(_))));
    }

    #[test]
    fn copy_prop_then_dce_removes_mov_chain() {
        let mut k = linear(DOT, &TransformParams::off());
        // Body contains FMov t, x (from `dot += x*y` lowering). After
        // copy-prop + DCE the extra moves disappear.
        copy_propagate(&mut k);
        dead_code_elim(&mut k);
        let movs = k
            .ops
            .iter()
            .filter(|o| matches!(o, Op::FMov { .. }))
            .count();
        assert!(
            movs <= 1,
            "most FMovs should be propagated away, {movs} left"
        );
    }

    #[test]
    fn fusion_requires_single_use() {
        // In swap-like code the loaded value is stored (not an FBin use),
        // so no fusion happens.
        let src = r#"
ROUTINE swap(X, Y, N);
PARAMS :: X = DOUBLE_PTR:INOUT, Y = DOUBLE_PTR:INOUT, N = INT;
SCALARS :: a = DOUBLE, b = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    a = X[0];
    b = Y[0];
    X[0] = b;
    Y[0] = a;
    X += 1;
    Y += 1;
  LOOP_END
ROUT_END
"#;
        let mut k = linear(src, &TransformParams::off());
        let before: Vec<Op> = k.ops.clone();
        fuse_mem_operands(&mut k);
        assert_eq!(before, k.ops, "stores must not be fused");
    }

    #[test]
    fn fusion_blocked_by_store_to_same_pointer() {
        let src = r#"
ROUTINE scal(X, alpha, N);
PARAMS :: X = DOUBLE_PTR:INOUT, alpha = DOUBLE, N = INT;
SCALARS :: x = DOUBLE;
ROUT_BEGIN
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    x *= alpha;
    X[0] = x;
    X += 1;
  LOOP_END
ROUT_END
"#;
        let mut k = linear(src, &TransformParams::off());
        optimize(&mut k, &TransformParams::off());
        // x is multiply-used (load, multiplied, stored): the load of X[0]
        // must remain a load, not be folded past the store.
        assert!(k.ops.iter().any(|o| matches!(o, Op::FLd { .. })));
    }

    #[test]
    fn branch_cleanup_removes_jump_to_next() {
        let mut k = linear(DOT, &TransformParams::off());
        // The structural `Br halt_label` immediately precedes the halt
        // label when there is no cold code: cleanup removes it.
        optimize(&mut k, &TransformParams::off());
        let has_br_to_next = k.ops.windows(2).any(|w| match (&w[0], &w[1]) {
            (Op::Br(l), Op::Label(l2)) => l == l2,
            _ => false,
        });
        assert!(!has_br_to_next);
    }

    #[test]
    fn lc_can_be_disabled() {
        let mut k = linear(DOT, &TransformParams::off());
        let mut p = TransformParams::off();
        p.loop_control = false;
        optimize(&mut k, &p);
        assert!(!k.ops.iter().any(|o| matches!(o, Op::IDecFlags(_))));
    }
}
