//! Register allocation: linear scan over textual live hulls, with
//! loop-aware extension and spilling to a frame area.
//!
//! The target has eight integer and eight FP/vector registers (the paper's
//! "relatively important when the ISA has only eight registers"). Pointer
//! and integer parameters stay pinned in their arrival registers
//! (r0..r_{k-1}); `r7` is reserved as the frame pointer for spill slots;
//! an FP scalar parameter (alpha) arrives pinned in `x7`. Everything else
//! is allocated by linear scan.
//!
//! Liveness is approximated by the *textual hull* of each vreg
//! (first-to-last position), extended across any backward-branch region it
//! is first *used* in (loop-carried values live across the back edge), and
//! across cold-block spans attached to that region. This is conservative
//! but sound for the single-loop kernel shapes FKO compiles.

use crate::ir::*;
use crate::xform::LinearKernel;

/// A physical register assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phys {
    I(u8),
    F(u8),
}

/// Result of allocation.
#[derive(Clone, Debug, Default)]
pub struct Allocation {
    /// Register of each vreg, indexed by `V`.
    map: Vec<Option<Phys>>,
    /// Number of 16-byte frame slots used by spills.
    pub frame_slots: u32,
    /// Diagnostics: how many vregs were spilled.
    pub spilled: u32,
}

impl Allocation {
    /// The register `v` is assigned to, if any.
    pub fn get(&self, v: V) -> Option<Phys> {
        self.map.get(v as usize).copied().flatten()
    }

    /// Assign `v` to `phys`, or unassign it with `None`.
    pub fn set(&mut self, v: V, phys: Option<Phys>) {
        let i = v as usize;
        if self.map.len() <= i {
            self.map.resize(i + 1, None);
        }
        self.map[i] = phys;
    }
}

/// Allocation failure (pathological pressure even after spilling).
#[derive(Clone, Debug, PartialEq)]
pub struct AllocError(pub String);

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for AllocError {}

/// Integer registers reserved: the frame pointer.
pub const FRAME_REG: u8 = 7;
/// FP register used for an incoming scalar FP parameter.
pub const FPARAM_REG: u8 = 7;
/// Scratch registers used only by spill reload/store code. They must be
/// disjoint from every *arrival* register: integer arguments count up from
/// r0 (so high registers are safe), FP scalar arguments count DOWN from x7
/// (so FP scratch sits below the two possible arrival slots x7/x6).
const I_SCRATCH: [u8; 2] = [6, 5];
const F_SCRATCH: [u8; 2] = [5, 4];

struct Hull {
    v: V,
    start: usize,
    end: usize,
    class: VClass,
}

/// Reusable working set for [`allocate_with`]: dense first/last-position
/// tables, the label-position and cold-span tables, the branch and region
/// lists, and the hull vector, allocated once per compile session instead
/// of once per candidate.
#[derive(Default)]
pub struct AllocScratch {
    first: Vec<usize>,
    last: Vec<usize>,
    first_is_use: Vec<bool>,
    label_pos: Vec<usize>,
    branches: Vec<(usize, usize)>,
    cold_end: Vec<usize>,
    extended: Vec<(usize, usize)>,
    hulls: Vec<Hull>,
}

const NO_POS: usize = usize::MAX;

/// Compute textual hulls with loop/cold extension.
#[cfg(test)]
fn hulls(k: &LinearKernel) -> Vec<Hull> {
    let mut s = AllocScratch::default();
    hulls_into(k, &mut s);
    s.hulls
}

fn hulls_into(k: &LinearKernel, sc: &mut AllocScratch) {
    let n = k.ops.len();
    let nv = k.vregs.len();
    sc.first.clear();
    sc.first.resize(nv, NO_POS);
    sc.last.clear();
    sc.last.resize(nv, NO_POS);
    sc.first_is_use.clear();
    sc.first_is_use.resize(nv, false);
    for (i, op) in k.ops.iter().enumerate() {
        op.for_each_use(&mut |u| {
            let u = u as usize;
            if sc.first[u] == NO_POS {
                sc.first[u] = i;
                sc.first_is_use[u] = true;
            }
            sc.last[u] = i;
        });
        if let Some(d) = op.def() {
            let d = d as usize;
            if sc.first[d] == NO_POS {
                sc.first[d] = i;
                sc.first_is_use[d] = false;
            }
            sc.last[d] = i;
        }
    }
    // The return value is live to the very end.
    match k.ret {
        RetVal::F(v) | RetVal::I(v) => {
            sc.last[v as usize] = n;
            if sc.first[v as usize] == NO_POS {
                sc.first[v as usize] = 0;
            }
        }
        RetVal::None => {}
    }
    // Parameter vregs are live from entry.
    for p in &k.params {
        match p {
            ParamSlot::Int { vreg } | ParamSlot::FScalar { vreg } => {
                if sc.first[*vreg as usize] != NO_POS {
                    sc.first[*vreg as usize] = 0;
                }
            }
            ParamSlot::Ptr(_) => {}
        }
    }

    // Backward-branch regions: (label position, branch position), plus the
    // spans of cold blocks targeted from inside them.
    sc.label_pos.clear();
    sc.label_pos.resize(k.n_labels as usize, NO_POS);
    for (i, o) in k.ops.iter().enumerate() {
        if let Op::Label(l) = o {
            sc.label_pos[l.0 as usize] = i;
        }
    }
    let lpos = |l: &LabelId| match sc.label_pos.get(l.0 as usize) {
        Some(&p) if p != NO_POS => Some(p),
        _ => None,
    };
    // Every branch to a bound label, in op order: (position, target).
    sc.branches.clear();
    for (i, op) in k.ops.iter().enumerate() {
        if let Op::CondBr { target, .. } | Op::Br(target) = op {
            if let Some(tp) = lpos(target) {
                sc.branches.push((i, tp));
            }
        }
    }
    // Where a cold span starting at each position ends: its terminating
    // Br, or the last op.
    sc.cold_end.clear();
    sc.cold_end.resize(n, n.saturating_sub(1));
    for q in (0..n.saturating_sub(1)).rev() {
        sc.cold_end[q] = if matches!(k.ops[q], Op::Br(_)) {
            q
        } else {
            sc.cold_end[q + 1]
        };
    }
    // Extend each backward-branch region over the cold spans it branches
    // into (targets beyond the region end — cold code jumps back, so
    // anything live in the region is live during the cold block too).
    sc.extended.clear();
    for &(e, s) in sc.branches.iter().filter(|&&(i, tp)| tp < i) {
        let first = sc.branches.partition_point(|&(j, _)| j < s);
        let hi = sc.branches[first..]
            .iter()
            .take_while(|&&(j, _)| j <= e)
            .filter(|&&(_, tp)| tp > e)
            .map(|&(_, tp)| sc.cold_end[tp])
            .fold(e, usize::max);
        sc.extended.push((s, hi));
    }

    sc.hulls.clear();
    for v in 0..nv {
        let s = sc.first[v];
        if s == NO_POS {
            continue;
        }
        let mut start = s;
        let mut end = sc.last[v];
        let carried_here = sc.first_is_use[v];
        for &(rs, re) in &sc.extended {
            let touches = start <= re && end >= rs;
            if touches && (carried_here || (start < rs || end > re)) {
                // Loop-carried (first access is a use) or live across part
                // of the region: cover the whole region.
                start = start.min(rs);
                end = end.max(re);
            }
        }
        sc.hulls.push(Hull {
            v: v as V,
            start,
            end,
            class: k.vregs[v],
        });
    }
    sc.hulls.sort_by_key(|h| (h.start, h.v));
}

/// Pools available to the allocator given the parameter layout.
fn pools(k: &LinearKernel, reserve_scratch: bool) -> (Vec<u8>, Vec<u8>) {
    let n_int_params = k
        .params
        .iter()
        .filter(|p| matches!(p, ParamSlot::Ptr(_) | ParamSlot::Int { .. }))
        .count() as u8;
    let n_fparams = k
        .params
        .iter()
        .filter(|p| matches!(p, ParamSlot::FScalar { .. }))
        .count() as u8;
    let mut ipool: Vec<u8> = (n_int_params..FRAME_REG).collect();
    // FP scalar params arrive pinned in x7, x6, ... (one per param).
    let mut fpool: Vec<u8> = (0..8u8).filter(|r| *r <= FPARAM_REG - n_fparams).collect();
    if reserve_scratch {
        ipool.retain(|r| !I_SCRATCH.contains(r));
        fpool.retain(|r| !F_SCRATCH.contains(r));
    }
    (ipool, fpool)
}

/// Allocate registers for `k`, rewriting spilled accesses into frame
/// loads/stores through scratch registers. On success the returned map
/// covers every vreg remaining in `k.ops`.
pub fn allocate(k: &mut LinearKernel) -> Result<Allocation, AllocError> {
    allocate_with(k, &mut AllocScratch::default())
}

/// [`allocate`] with caller-provided scratch buffers. Hulls are computed
/// once per call (`k` is not mutated between allocation attempts) and
/// shared by the spill retry passes.
pub fn allocate_with(
    k: &mut LinearKernel,
    sc: &mut AllocScratch,
) -> Result<Allocation, AllocError> {
    hulls_into(k, sc);
    // First try without reserving scratch registers.
    if let Ok(alloc) = try_allocate(k, &sc.hulls, false) {
        return Ok(alloc);
    }
    // Spilling needed: reserve scratch regs and retry, then rewrite.
    let (mut alloc, spilled) = allocate_with_spills(k, &sc.hulls)?;
    rewrite_spills(k, &mut alloc, &spilled)?;
    Ok(alloc)
}

fn try_allocate(
    k: &LinearKernel,
    hs: &[Hull],
    reserve_scratch: bool,
) -> Result<Allocation, Vec<V>> {
    let (ipool, fpool) = pools(k, reserve_scratch);
    let mut free_i = ipool;
    let mut free_f = fpool;
    let mut active: Vec<(usize, V, Phys)> = Vec::new(); // (end, vreg, reg)
    let mut alloc = Allocation {
        map: vec![None; k.vregs.len()],
        ..Allocation::default()
    };
    let mut failed: Vec<V> = Vec::new();
    for h in hs {
        // Expire.
        active.retain(|(end, _, reg)| {
            if *end < h.start {
                match reg {
                    Phys::I(r) => free_i.push(*r),
                    Phys::F(r) => free_f.push(*r),
                }
                false
            } else {
                true
            }
        });
        let pool = match h.class {
            VClass::Int => &mut free_i,
            VClass::F | VClass::Vec => &mut free_f,
        };
        if let Some(r) = pool.pop() {
            let phys = match h.class {
                VClass::Int => Phys::I(r),
                _ => Phys::F(r),
            };
            alloc.set(h.v, Some(phys));
            active.push((h.end, h.v, phys));
        } else {
            // Spill the active interval (same class) with the furthest
            // end, or this one.
            let same_class = |p: &Phys, c: VClass| match (p, c) {
                (Phys::I(_), VClass::Int) => true,
                (Phys::F(_), VClass::Int) => false,
                (Phys::I(_), _) => false,
                (Phys::F(_), _) => true,
            };
            let victim = active
                .iter()
                .enumerate()
                .filter(|(_, (_, _, p))| same_class(p, h.class))
                .max_by_key(|(_, (end, _, _))| *end);
            match victim {
                Some((idx, &(vend, vv, vreg))) if vend > h.end => {
                    // Steal the victim's register.
                    active.remove(idx);
                    alloc.set(vv, None);
                    failed.push(vv);
                    alloc.set(h.v, Some(vreg));
                    active.push((h.end, h.v, vreg));
                }
                _ => failed.push(h.v),
            }
        }
    }
    if failed.is_empty() {
        Ok(alloc)
    } else {
        Err(failed)
    }
}

fn allocate_with_spills(k: &LinearKernel, hs: &[Hull]) -> Result<(Allocation, Vec<V>), AllocError> {
    match try_allocate(k, hs, true) {
        Ok(a) => Ok((a, vec![])),
        Err(spilled) => {
            // Allocate everything except the spilled set.
            let (ipool, fpool) = pools(k, true);
            let mut free_i = ipool;
            let mut free_f = fpool;
            let mut active: Vec<(usize, Phys)> = Vec::new();
            let mut is_spilled = vec![false; k.vregs.len()];
            for &v in &spilled {
                is_spilled[v as usize] = true;
            }
            let mut alloc = Allocation {
                map: vec![None; k.vregs.len()],
                frame_slots: 0,
                spilled: spilled.len() as u32,
            };
            for h in hs {
                if is_spilled[h.v as usize] {
                    continue;
                }
                active.retain(|(end, reg)| {
                    if *end < h.start {
                        match reg {
                            Phys::I(r) => free_i.push(*r),
                            Phys::F(r) => free_f.push(*r),
                        }
                        false
                    } else {
                        true
                    }
                });
                let pool = match h.class {
                    VClass::Int => &mut free_i,
                    _ => &mut free_f,
                };
                let Some(r) = pool.pop() else {
                    return Err(AllocError(format!(
                        "register pressure too high even after spilling {} vregs",
                        spilled.len()
                    )));
                };
                let phys = match h.class {
                    VClass::Int => Phys::I(r),
                    _ => Phys::F(r),
                };
                alloc.set(h.v, Some(phys));
                active.push((h.end, phys));
            }
            Ok((alloc, spilled))
        }
    }
}

/// Frame pseudo-pointer: spills address `[FRAME_REG + slot*16]`. We encode
/// frame accesses as `FSpill*`/`ISpill*` ops resolved by codegen.
fn rewrite_spills(
    k: &mut LinearKernel,
    alloc: &mut Allocation,
    spilled: &[V],
) -> Result<(), AllocError> {
    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of = vec![NO_SLOT; k.vregs.len()];
    for (i, v) in spilled.iter().enumerate() {
        slot_of[*v as usize] = i as u32;
    }
    let slot = |v: V| match slot_of.get(v as usize) {
        Some(&s) if s != NO_SLOT => Some(s),
        _ => None,
    };
    alloc.frame_slots = spilled.len() as u32;

    let mut out: Vec<Op> = Vec::with_capacity(k.ops.len() * 2);
    for mut op in std::mem::take(&mut k.ops) {
        // Capture the def BEFORE use-renaming: tied ops (dst == src, e.g.
        // IDecFlags) would otherwise report the scratch register as their
        // def and skip the store-back.
        let orig_def = op.def();
        // Map each spilled use to a scratch reg, reloading it first. An op
        // reads at most two vregs; one read twice is reloaded twice and
        // read from its second reload.
        let mut reloads = [(V::MAX, V::MAX); 2];
        let mut n_reloads = 0usize;
        let (mut scratch_i, mut scratch_f) = (0usize, 0usize);
        op.for_each_use(&mut |u| {
            let Some(slot) = slot(u) else { return };
            let class = k.vregs[u as usize];
            k.vregs.push(class);
            let nv = (k.vregs.len() - 1) as V;
            let sreg = match class {
                VClass::Int => {
                    let r = I_SCRATCH[scratch_i.min(1)];
                    scratch_i += 1;
                    Phys::I(r)
                }
                _ => {
                    let r = F_SCRATCH[scratch_f.min(1)];
                    scratch_f += 1;
                    Phys::F(r)
                }
            };
            alloc.set(nv, Some(sreg));
            out.push(match class {
                VClass::Int => Op::ISpillLd { dst: nv, slot },
                VClass::F => Op::FSpillLd {
                    dst: nv,
                    slot,
                    w: Width::S,
                },
                VClass::Vec => Op::FSpillLd {
                    dst: nv,
                    slot,
                    w: Width::V,
                },
            });
            reloads[n_reloads.min(1)] = (u, nv);
            n_reloads += 1;
        });
        let reload_of = |v: V| reloads.iter().rev().find(|r| r.0 == v).map(|r| r.1);
        op.map_uses(&mut |v| reload_of(v).unwrap_or(v));
        // Map a spilled def to a scratch reg + store.
        let Some((d, slot)) = orig_def.and_then(|d| Some((d, slot(d)?))) else {
            out.push(op);
            continue;
        };
        let class = k.vregs[d as usize];
        // Reuse the reload scratch if the def was also a use (tied ops) so
        // the value flows through the same register.
        let nv = reload_of(d).unwrap_or_else(|| {
            k.vregs.push(class);
            let nv = (k.vregs.len() - 1) as V;
            let sreg = match class {
                VClass::Int => Phys::I(I_SCRATCH[0]),
                _ => Phys::F(F_SCRATCH[0]),
            };
            alloc.set(nv, Some(sreg));
            nv
        });
        op.map_def(&mut |v| if v == d { nv } else { v });
        out.push(op);
        out.push(match class {
            VClass::Int => Op::ISpillSt { slot, src: nv },
            VClass::F => Op::FSpillSt {
                slot,
                src: nv,
                w: Width::S,
            },
            VClass::Vec => Op::FSpillSt {
                slot,
                src: nv,
                w: Width::V,
            },
        });
    }
    k.ops = out;
    // A spilled return value is reloaded into a scratch register at the
    // very end (after the halt label) so codegen can deliver it.
    let ret_v = match k.ret {
        RetVal::F(v) | RetVal::I(v) => Some(v),
        RetVal::None => None,
    };
    if let Some((v, slot)) = ret_v.and_then(|v| Some((v, slot(v)?))) {
        let class = k.vregs[v as usize];
        k.vregs.push(class);
        let nv = (k.vregs.len() - 1) as V;
        match class {
            VClass::Int => {
                alloc.set(nv, Some(Phys::I(I_SCRATCH[0])));
                k.ops.push(Op::ISpillLd { dst: nv, slot });
                k.ret = RetVal::I(nv);
            }
            VClass::F => {
                alloc.set(nv, Some(Phys::F(F_SCRATCH[0])));
                k.ops.push(Op::FSpillLd {
                    dst: nv,
                    slot,
                    w: Width::S,
                });
                k.ret = RetVal::F(nv);
            }
            VClass::Vec => return Err(AllocError("vector return value cannot spill".into())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::lower::lower;
    use crate::opt::optimize;
    use crate::params::TransformParams;
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
        let mut lin = apply_transforms(&k, p, &rep).unwrap();
        optimize(&mut lin, p);
        lin
    }

    fn all_vregs(k: &LinearKernel) -> Vec<V> {
        let mut vs: Vec<V> = k
            .ops
            .iter()
            .flat_map(|o| {
                let mut vs = Vec::new();
                o.for_each_use(&mut |v| vs.push(v));
                vs.into_iter().chain(o.def())
            })
            .chain(match k.ret {
                RetVal::F(v) | RetVal::I(v) => Some(v),
                RetVal::None => None,
            })
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    #[test]
    fn simple_dot_allocates_without_spills() {
        let mut k = linear(DOT, &TransformParams::off());
        let alloc = allocate(&mut k).unwrap();
        assert_eq!(alloc.spilled, 0);
        for v in all_vregs(&k) {
            assert!(alloc.get(v).is_some(), "vreg {v} unallocated");
        }
    }

    #[test]
    fn allocation_respects_classes_and_reservations() {
        let mut p = TransformParams::off();
        p.simd = true;
        p.unroll = 4;
        p.accum_expand = 2;
        let mut k = linear(DOT, &p);
        let alloc = allocate(&mut k).unwrap();
        for v in 0..k.vregs.len() as V {
            let Some(phys) = alloc.get(v) else { continue };
            match (k.vregs[v as usize], phys) {
                (VClass::Int, Phys::I(r)) => {
                    assert!(r < FRAME_REG, "int vreg in frame reg");
                    assert!(r >= 3, "params r0..r2 are pinned");
                }
                (VClass::F | VClass::Vec, Phys::F(_)) => {}
                other => panic!("class/phys mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn no_two_overlapping_hulls_share_a_register() {
        let mut p = TransformParams::off();
        p.simd = true;
        p.unroll = 8;
        p.accum_expand = 4;
        let mut k = linear(DOT, &p);
        let alloc = allocate(&mut k).unwrap();
        // Re-derive hulls and check pairwise.
        let hs = super::hulls(&k);
        for a in &hs {
            for b in &hs {
                if a.v >= b.v {
                    continue;
                }
                let (Some(pa), Some(pb)) = (alloc.get(a.v), alloc.get(b.v)) else {
                    continue;
                };
                if pa == pb {
                    let overlap = a.start <= b.end && b.start <= a.end;
                    assert!(
                        !overlap,
                        "v{} and v{} share {:?} with overlapping hulls",
                        a.v, b.v, pa
                    );
                }
            }
        }
    }

    #[test]
    fn extreme_pressure_spills_and_still_allocates() {
        // UR=32 with AE=6 on vectorized dot produces heavy FP pressure.
        let mut p = TransformParams::off();
        p.simd = true;
        p.unroll = 32;
        p.accum_expand = 6;
        let mut k = linear(DOT, &p);
        match allocate(&mut k) {
            Ok(alloc) => {
                for v in all_vregs(&k) {
                    assert!(alloc.get(v).is_some(), "vreg {v} unallocated");
                }
                // Either it fits (good allocator) or it spilled.
                if alloc.spilled > 0 {
                    assert!(alloc.frame_slots > 0);
                    assert!(k
                        .ops
                        .iter()
                        .any(|o| matches!(o, Op::FSpillLd { .. } | Op::FSpillSt { .. })));
                }
            }
            Err(e) => panic!("allocation failed: {e}"),
        }
    }
}
