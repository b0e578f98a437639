//! Generic worklist dataflow over the linear op stream.
//!
//! The linear IR (`LinearKernel::ops`, or any `&[Op]` slice) has labels and
//! branches but no explicit block structure. This module builds a CFG over
//! it and runs two classic bit-vector dataflow problems to a worklist
//! fixpoint: liveness (backward, may) and definite assignment ("every use
//! dominated by a def": forward, must). The optimizer's dead-code
//! elimination and the stage verifier both run on top of it, so the same
//! analyses that power transforms also machine-check their output.

use crate::ir::{Op, V};

// ---------------------------------------------------------------------------
// Bit vectors
// ---------------------------------------------------------------------------

/// A fixed-width bit set used as the dataflow lattice element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitVec {
    words: Vec<u64>,
    nbits: usize,
}

impl BitVec {
    pub fn empty(nbits: usize) -> BitVec {
        BitVec {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }
    pub fn full(nbits: usize) -> BitVec {
        let mut b = BitVec {
            words: vec![!0u64; nbits.div_ceil(64)],
            nbits,
        };
        b.trim();
        b
    }
    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.nbits;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= !0u64 >> extra;
            }
        }
    }
    /// Re-shape this bit vector to `nbits`, all clear, reusing the word
    /// storage. The scratch-buffer path uses this instead of
    /// [`BitVec::empty`] so a reused buffer costs no allocation.
    pub fn reset(&mut self, nbits: usize) {
        self.words.clear();
        self.words.resize(nbits.div_ceil(64), 0);
        self.nbits = nbits;
    }
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
    pub fn union_with(&mut self, other: &BitVec) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
    pub fn intersect_with(&mut self, other: &BitVec) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }
    /// `self |= gen | (inp & !kill)` is the usual transfer; this helper does
    /// `self = gen | (inp & !kill)` in place.
    fn transfer(&mut self, inp: &BitVec, gen: &BitVec, kill: &BitVec) {
        for i in 0..self.words.len() {
            self.words[i] = gen.words[i] | (inp.words[i] & !kill.words[i]);
        }
    }
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
    /// Indices of all set bits, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| wi * 64 + b)
        })
    }
}

// ---------------------------------------------------------------------------
// Control-flow graph
// ---------------------------------------------------------------------------

/// A maximal straight-line run of ops. `start..end` indexes into the op
/// stream the CFG was built from.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub start: usize,
    pub end: usize,
    pub succs: Vec<usize>,
    pub preds: Vec<usize>,
}

/// CFG over a linear op stream.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    /// Block index of every op.
    pub block_of: Vec<usize>,
    /// First block binding each label, indexed by label id.
    label_block: Vec<usize>,
}

impl Cfg {
    pub fn entry(&self) -> usize {
        0
    }
}

/// Dense sentinel for "no entry" in label-indexed tables.
pub(crate) const NONE: usize = usize::MAX;

/// Fill `table`, indexed by label id, with `at(i)` for the first op `i`
/// that binds each label and [`NONE`] for the rest. It is sized by the
/// largest label id the ops bind, so it needs no label count and
/// tolerates the corrupt streams the verifier is handed.
pub(crate) fn label_table(ops: &[Op], at: impl Fn(usize) -> usize, table: &mut Vec<usize>) {
    table.clear();
    for (i, op) in ops.iter().enumerate() {
        if let Op::Label(l) = op {
            let l = l.0 as usize;
            if table.len() <= l {
                table.resize(l + 1, NONE);
            }
            if table[l] == NONE {
                table[l] = at(i);
            }
        }
    }
}

/// Build the CFG. Leaders are op 0, every label, and every op following a
/// branch. Branches to labels that do not exist simply get no edge (the
/// verifier reports them separately; the solver stays total).
pub fn build_cfg(ops: &[Op]) -> Cfg {
    let mut cfg = Cfg::default();
    build_cfg_into(ops, &mut cfg);
    cfg
}

/// [`build_cfg`] into `cfg`, reusing its storage: the optimizer rebuilds
/// the CFG on every dead-code pass, so a reused `Cfg` costs no allocation.
pub(crate) fn build_cfg_into(ops: &[Op], cfg: &mut Cfg) {
    let n = ops.len();
    let mut nb = 0;
    cfg.block_of.clear();
    for (i, op) in ops.iter().enumerate() {
        let leader = i == 0
            || matches!(op, Op::Label(_))
            || matches!(ops[i - 1], Op::Br(_) | Op::CondBr { .. });
        if leader {
            if nb > 0 {
                cfg.blocks[nb - 1].end = i;
            }
            start_block(cfg, nb, i, n);
            nb += 1;
        }
        cfg.block_of.push(nb - 1);
    }
    if nb == 0 {
        start_block(cfg, 0, 0, 0);
        nb = 1;
    }
    cfg.blocks.truncate(nb);
    // First block carrying each label (duplicates are a verifier error).
    let block_of = &cfg.block_of;
    label_table(ops, |i| block_of[i], &mut cfg.label_block);
    for b in 0..nb {
        let last = cfg.blocks[b].end.checked_sub(1).and_then(|i| ops.get(i));
        let (target, falls_through) = match last {
            Some(Op::Br(l)) => (Some(l), false),
            Some(Op::CondBr { target, .. }) => (Some(target), true),
            _ => (None, true),
        };
        let succs = &mut cfg.blocks[b].succs;
        if let Some(&t) = target.and_then(|l| cfg.label_block.get(l.0 as usize)) {
            if t != NONE {
                succs.push(t);
            }
        }
        if falls_through && b + 1 < nb {
            succs.push(b + 1);
        }
        succs.dedup();
    }
    for b in 0..nb {
        for i in 0..cfg.blocks[b].succs.len() {
            let s = cfg.blocks[b].succs[i];
            cfg.blocks[s].preds.push(b);
        }
    }
}

/// Make block `b` of `cfg` an empty block `start..end`, reusing the edge
/// lists of a block left there by an earlier build.
fn start_block(cfg: &mut Cfg, b: usize, start: usize, end: usize) {
    if b == cfg.blocks.len() {
        cfg.blocks.push(Block::default());
    }
    let blk = &mut cfg.blocks[b];
    blk.start = start;
    blk.end = end;
    blk.succs.clear();
    blk.preds.clear();
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// Per-block liveness: `live_in[b]` / `live_out[b]` are bit sets over vregs.
pub struct Liveness {
    pub live_in: Vec<BitVec>,
    pub live_out: Vec<BitVec>,
}

/// Reusable storage for [`liveness_into`]. One compile session keeps one of
/// these per pipeline scratch set, so the repeated dead-code-elimination
/// passes (up to eight per compile) stop re-allocating four `Vec<BitVec>`
/// each. After a call to [`liveness_into`], `live_in`/`live_out` hold the
/// solution for that call's CFG.
#[derive(Default)]
pub struct LivenessScratch {
    pub live_in: Vec<BitVec>,
    pub live_out: Vec<BitVec>,
    gen: Vec<BitVec>,
    kill: Vec<BitVec>,
    work: Vec<usize>,
    queued: Vec<bool>,
    is_exit: Vec<bool>,
    acc: BitVec,
}

impl LivenessScratch {
    fn reshape(&mut self, nb: usize, nbits: usize) {
        for vecs in [
            &mut self.live_in,
            &mut self.live_out,
            &mut self.gen,
            &mut self.kill,
        ] {
            vecs.resize_with(nb, || BitVec::empty(0));
            vecs.truncate(nb);
            for bv in vecs.iter_mut() {
                bv.reset(nbits);
            }
        }
        self.work.clear();
        self.queued.clear();
        self.queued.resize(nb, true);
        self.is_exit.clear();
        self.is_exit.resize(nb, false);
    }
}

impl Default for BitVec {
    fn default() -> Self {
        BitVec::empty(0)
    }
}

/// Classic backward may-analysis. `exit_live` (e.g. the return vreg) is
/// live-out of every exit block.
pub fn liveness(ops: &[Op], nvregs: usize, exit_live: &[V], cfg: &Cfg) -> Liveness {
    let mut s = LivenessScratch::default();
    liveness_into(ops, nvregs, exit_live, cfg, &mut s);
    Liveness {
        live_in: s.live_in,
        live_out: s.live_out,
    }
}

/// [`liveness`] into caller-owned scratch storage: a backward-union
/// worklist solver that allocates nothing when `s` is reused. The solution
/// lands in `s.live_in` / `s.live_out`.
pub fn liveness_into(
    ops: &[Op],
    nvregs: usize,
    exit_live: &[V],
    cfg: &Cfg,
    s: &mut LivenessScratch,
) {
    let nb = cfg.blocks.len();
    s.reshape(nb, nvregs);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        // Backward scan: gen = upward-exposed uses, kill = defs.
        let (gen, kill) = (&mut s.gen[b], &mut s.kill[b]);
        for i in (blk.start..blk.end).rev() {
            if let Some(d) = ops[i].def() {
                gen.clear(d as usize);
                kill.set(d as usize);
            }
            ops[i].for_each_use(&mut |u| gen.set(u as usize));
        }
    }
    // Boundary: exit_live is live-out of every exit block (one with no
    // successors: the halt block, and any dead tail).
    for b in 0..nb {
        s.is_exit[b] = cfg.blocks[b].succs.is_empty();
        if s.is_exit[b] {
            for &v in exit_live {
                s.live_out[b].set(v as usize);
            }
        }
    }
    for b in 0..nb {
        s.live_in[b].transfer(&s.live_out[b], &s.gen[b], &s.kill[b]);
    }
    s.work.extend(0..nb);
    while let Some(b) = s.work.pop() {
        s.queued[b] = false;
        if !cfg.blocks[b].succs.is_empty() {
            let acc = &mut s.acc;
            acc.reset(nvregs);
            for &n in &cfg.blocks[b].succs {
                acc.union_with(&s.live_in[n]);
            }
            std::mem::swap(&mut s.live_out[b], acc);
        }
        s.acc.reset(nvregs);
        s.acc.transfer(&s.live_out[b], &s.gen[b], &s.kill[b]);
        if s.acc != s.live_in[b] {
            std::mem::swap(&mut s.live_in[b], &mut s.acc);
            for &p in &cfg.blocks[b].preds {
                if !s.queued[p] {
                    s.queued[p] = true;
                    s.work.push(p);
                }
            }
        }
    }
}

/// Live-out set at every op index (one backward walk per block).
pub fn per_op_live_out(ops: &[Op], cfg: &Cfg, live: &Liveness) -> Vec<BitVec> {
    let mut per_op = vec![BitVec::empty(0); ops.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let mut cur = live.live_out[b].clone();
        for i in (blk.start..blk.end).rev() {
            per_op[i] = cur.clone();
            if let Some(d) = ops[i].def() {
                cur.clear(d as usize);
            }
            ops[i].for_each_use(&mut |u| cur.set(u as usize));
        }
    }
    per_op
}

// ---------------------------------------------------------------------------
// Definite assignment ("every use dominated by a def")
// ---------------------------------------------------------------------------

/// Forward must-analysis over vregs: a vreg is in the set iff every path
/// from entry to this point defines it. Returns the op indices (with the
/// offending vreg) of uses not dominated by a def.
pub fn undefined_uses(
    ops: &[Op],
    nvregs: usize,
    entry_defined: &[V],
    cfg: &Cfg,
) -> Vec<(usize, V)> {
    let nb = cfg.blocks.len();
    let mut gen = vec![BitVec::empty(nvregs); nb];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for op in &ops[blk.start..blk.end] {
            if let Some(d) = op.def() {
                gen[b].set(d as usize);
            }
        }
    }
    let mut boundary = BitVec::empty(nvregs);
    for &v in entry_defined {
        boundary.set(v as usize);
    }
    // Worklist fixpoint: defined at a block's entry = the intersection of
    // its predecessors' exits; at its exit = entry ∪ gen (nothing kills a
    // definition). Every block but the entry starts at top (all ones) so
    // unreachable code never weakens reachable facts.
    let mut inp = vec![BitVec::full(nvregs); nb];
    inp[cfg.entry()] = boundary.clone();
    let mut out = inp.clone();
    for b in 0..nb {
        out[b].union_with(&gen[b]);
    }
    let mut work: Vec<usize> = (0..nb).collect();
    let mut queued = vec![true; nb];
    while let Some(b) = work.pop() {
        queued[b] = false;
        if let Some((first, rest)) = cfg.blocks[b].preds.split_first() {
            let mut acc = out[*first].clone();
            for &n in rest {
                acc.intersect_with(&out[n]);
            }
            if b == cfg.entry() {
                // Boundary facts are all that holds at the entry, back
                // edges or not.
                acc.intersect_with(&boundary);
            }
            inp[b] = acc;
        }
        let mut new_out = inp[b].clone();
        new_out.union_with(&gen[b]);
        if new_out != out[b] {
            out[b] = new_out;
            for &d in &cfg.blocks[b].succs {
                if !queued[d] {
                    queued[d] = true;
                    work.push(d);
                }
            }
        }
    }
    let mut bad = Vec::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let mut defined = inp[b].clone();
        for (i, op) in ops.iter().enumerate().take(blk.end).skip(blk.start) {
            op.for_each_use(&mut |u| {
                if !defined.get(u as usize) {
                    bad.push((i, u));
                }
            });
            if let Some(d) = op.def() {
                defined.set(d as usize);
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn mem(off: i64) -> MemRef {
        MemRef {
            ptr: PtrId(0),
            off_elems: off,
        }
    }
    fn ld(dst: V, off: i64) -> Op {
        Op::FLd {
            dst,
            mem: mem(off),
            w: Width::S,
        }
    }
    fn st(src: V, off: i64) -> Op {
        Op::FSt {
            mem: mem(off),
            src,
            w: Width::S,
            nt: false,
        }
    }

    #[test]
    fn cfg_blocks_and_edges() {
        // b0: ld; condbr L0 | b1: ld; br L1 | b2(L0): st | b3(L1): st
        let ops = vec![
            ld(0, 0),
            Op::CondBr {
                cond: Cond::Gt,
                target: LabelId(0),
            },
            ld(1, 1),
            Op::Br(LabelId(1)),
            Op::Label(LabelId(0)),
            st(0, 2),
            Op::Label(LabelId(1)),
            st(1, 3),
        ];
        let cfg = build_cfg(&ops);
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.blocks[0].succs, vec![2, 1]);
        assert_eq!(cfg.blocks[1].succs, vec![3]);
        assert_eq!(cfg.blocks[2].succs, vec![3]);
        assert!(cfg.blocks[3].succs.is_empty());
        assert_eq!(cfg.blocks[3].preds, vec![1, 2]);
    }

    #[test]
    fn liveness_through_a_branch() {
        let ops = vec![
            ld(0, 0),
            Op::CondBr {
                cond: Cond::Gt,
                target: LabelId(0),
            },
            st(0, 1),
            Op::Label(LabelId(0)),
            st(0, 2),
        ];
        let cfg = build_cfg(&ops);
        let live = liveness(&ops, 1, &[], &cfg);
        // v0 is live out of block 0 (used on both paths).
        assert!(live.live_out[0].get(0));
        let per_op = per_op_live_out(&ops, &cfg, &live);
        assert!(per_op[0].get(0));
        // Dead after its last use.
        assert!(!per_op[4].get(0));
    }

    #[test]
    fn exit_live_keeps_return_value() {
        let ops = vec![ld(0, 0)];
        let cfg = build_cfg(&ops);
        let dead = liveness(&ops, 1, &[], &cfg);
        assert!(!dead.live_out[0].get(0));
        let live = liveness(&ops, 1, &[0], &cfg);
        assert!(live.live_out[0].get(0));
    }

    #[test]
    fn undefined_use_on_one_path_is_caught() {
        // v1 defined only on the fallthrough path, then used after the join.
        let ops = vec![
            ld(0, 0),
            Op::CondBr {
                cond: Cond::Gt,
                target: LabelId(0),
            },
            ld(1, 1),
            Op::Label(LabelId(0)),
            st(1, 2),
        ];
        let cfg = build_cfg(&ops);
        let bad = undefined_uses(&ops, 2, &[], &cfg);
        assert_eq!(bad, vec![(4, 1)]);
        // Declaring v1 defined at entry clears it.
        assert!(undefined_uses(&ops, 2, &[1], &cfg).is_empty());
    }

    #[test]
    fn unreachable_code_does_not_poison_definite_assignment() {
        let ops = vec![
            ld(0, 0),
            Op::Br(LabelId(0)),
            // Unreachable block using v1: starts at top (all-defined), so
            // it must not invalidate the reachable use of v0 below.
            st(1, 1),
            Op::Label(LabelId(0)),
            st(0, 2),
        ];
        let cfg = build_cfg(&ops);
        let bad = undefined_uses(&ops, 2, &[], &cfg);
        assert!(bad.iter().all(|&(_, v)| v != 0), "{bad:?}");
    }
}
