//! Global search strategies over the legality-gated parameter space:
//! seeded random sampling, hill climbing with restarts, and simulated
//! annealing.
//!
//! Unlike the line search, these treat the space as non-separable: a
//! candidate changes any subset of knobs at once. All three draw from the
//! in-repo seeded rng ([`Rng64`]), so a run is a pure function of
//! `(kernel, machine, context, n, seed, budget)` — same seed, same
//! trace (guarded by `tests/strategy_subsystem.rs`).
//!
//! The candidate space mirrors the legality rules of
//! [`precheck`](ifko_fko::precheck): unrolls capped at the analysis
//! bound, AE only when the kernel has a reduction, WNT only when the
//! loop writes an array, SIMD only when vectorization is legal. Points
//! the space generates are therefore never pruned for free — every probe
//! is a real question.

use super::SearchCtx;
use crate::search::{SearchOptions, PHASE_SEED};
use ifko_fko::{AnalysisReport, TransformParams};
use ifko_xsim::rng::Rng64;
use ifko_xsim::{MachineConfig, PrefKind};

/// Phase label for random-sampling probes.
pub const PHASE_RAND: &str = "RAND";
/// Phase label for hill-climbing probes.
pub const PHASE_HC: &str = "HC";
/// Phase label for simulated-annealing probes.
pub const PHASE_SA: &str = "SA";

/// Probes a global strategy spends when no budget is given (chosen to be
/// in the same ballpark as one full line search at the quick options).
const DEFAULT_PROBES: u64 = 96;

/// The legal transformation space, precomputed from the analysis report:
/// candidate value lists per dimension, with illegal settings excluded
/// up front.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    defaults: TransformParams,
    ur: Vec<u32>,
    dists: Vec<i64>,
    kinds: Vec<Option<PrefKind>>,
    ae: Vec<u32>,
    /// WNT may be toggled (the loop writes at least one array).
    wnt: bool,
    /// SIMD may be toggled (vectorization is legal).
    sv: bool,
}

impl SearchSpace {
    pub fn new(rep: &AnalysisReport, machine: &MachineConfig, opts: &SearchOptions) -> SearchSpace {
        let defaults = TransformParams::defaults(rep, machine);
        let mut ur: Vec<u32> = opts
            .ur_candidates
            .iter()
            .copied()
            .filter(|&u| u <= rep.max_unroll)
            .chain(std::iter::once(defaults.unroll))
            .collect();
        ur.sort_unstable();
        ur.dedup();
        let mut dists: Vec<i64> = opts
            .pf_dists
            .iter()
            .copied()
            .chain(defaults.prefetch.first().map(|s| s.dist))
            .collect();
        dists.sort_unstable();
        dists.dedup();
        if dists.is_empty() {
            dists.push(2 * machine.prefetch_line() as i64);
        }
        let kinds: Vec<Option<PrefKind>> = std::iter::once(None)
            .chain(machine.prefetch_kinds.iter().map(|k| Some(*k)))
            .collect();
        let ae: Vec<u32> = if rep.ae_candidates.is_empty() {
            vec![1]
        } else {
            let mut ae: Vec<u32> = opts
                .ae_candidates
                .iter()
                .copied()
                .chain(std::iter::once(1))
                .collect();
            ae.sort_unstable();
            ae.dedup();
            ae
        };
        SearchSpace {
            defaults,
            ur,
            dists,
            kinds,
            ae,
            wnt: !rep.wnt_candidates.is_empty(),
            sv: rep.vectorizable.is_ok(),
        }
    }

    /// The seeding point (FKO defaults).
    pub fn defaults(&self) -> &TransformParams {
        &self.defaults
    }

    /// Number of tunable dimensions (for sizing mutation loops).
    pub fn dims(&self) -> usize {
        2 + usize::from(self.wnt) + usize::from(self.sv) + 2 * self.defaults.prefetch.len()
    }

    /// A uniformly random legal point (biased toward SIMD on, which is
    /// nearly always right and keeps random sampling competitive).
    pub fn random(&self, rng: &mut Rng64) -> TransformParams {
        let mut p = self.defaults.clone();
        if self.sv {
            p.simd = rng.gen_bool(0.9);
        }
        p.unroll = self.ur[rng.range_usize(self.ur.len())];
        p.accum_expand = self.ae[rng.range_usize(self.ae.len())];
        if self.wnt {
            p.wnt = rng.gen_bool(0.5);
        }
        for spec in &mut p.prefetch {
            spec.kind = self.kinds[rng.range_usize(self.kinds.len())];
            spec.dist = self.dists[rng.range_usize(self.dists.len())];
        }
        p
    }

    /// Change exactly one dimension of `p` to a random different legal
    /// value (the annealing move).
    pub fn mutate(&self, p: &TransformParams, rng: &mut Rng64) -> TransformParams {
        let mut q = p.clone();
        // A handful of attempts: a drawn dimension may be degenerate
        // (single legal value), in which case we redraw.
        for _ in 0..8 {
            let npf = q.prefetch.len();
            let mut dim = rng.range_usize(self.dims());
            if dim == 0 {
                if let Some(v) = pick_other(&self.ur, q.unroll, rng) {
                    q.unroll = v;
                    return q;
                }
                continue;
            }
            dim -= 1;
            if dim == 0 {
                if let Some(v) = pick_other(&self.ae, q.accum_expand, rng) {
                    q.accum_expand = v;
                    return q;
                }
                continue;
            }
            dim -= 1;
            if self.wnt {
                if dim == 0 {
                    q.wnt = !q.wnt;
                    return q;
                }
                dim -= 1;
            }
            if self.sv {
                if dim == 0 {
                    q.simd = !q.simd;
                    return q;
                }
                dim -= 1;
            }
            let (arr, knob) = (dim / 2, dim % 2);
            if arr < npf {
                if knob == 0 {
                    if let Some(v) = pick_other(&self.kinds, q.prefetch[arr].kind, rng) {
                        q.prefetch[arr].kind = v;
                        return q;
                    }
                } else if let Some(v) = pick_other(&self.dists, q.prefetch[arr].dist, rng) {
                    q.prefetch[arr].dist = v;
                    return q;
                }
            }
        }
        q
    }

    /// All single-step neighbors of `p`: adjacent candidate values per
    /// dimension, in a fixed deterministic order (the hill-climbing
    /// neighborhood).
    pub fn neighbors(&self, p: &TransformParams) -> Vec<TransformParams> {
        let mut out = Vec::new();
        for v in adjacent(&self.ur, &p.unroll) {
            let mut q = p.clone();
            q.unroll = v;
            out.push(q);
        }
        for v in adjacent(&self.ae, &p.accum_expand) {
            let mut q = p.clone();
            q.accum_expand = v;
            out.push(q);
        }
        if self.wnt {
            let mut q = p.clone();
            q.wnt = !q.wnt;
            out.push(q);
        }
        if self.sv {
            let mut q = p.clone();
            q.simd = !q.simd;
            out.push(q);
        }
        for i in 0..p.prefetch.len() {
            for v in adjacent(&self.kinds, &p.prefetch[i].kind) {
                let mut q = p.clone();
                q.prefetch[i].kind = v;
                out.push(q);
            }
            for v in adjacent(&self.dists, &p.prefetch[i].dist) {
                let mut q = p.clone();
                q.prefetch[i].dist = v;
                out.push(q);
            }
        }
        out
    }
}

/// The values adjacent to `cur` in `list` (its predecessor and successor
/// when `cur` is a member; the first element otherwise).
fn adjacent<T: Clone + PartialEq>(list: &[T], cur: &T) -> Vec<T> {
    match list.iter().position(|v| v == cur) {
        Some(i) => {
            let mut out = Vec::new();
            if i > 0 {
                out.push(list[i - 1].clone());
            }
            if i + 1 < list.len() {
                out.push(list[i + 1].clone());
            }
            out
        }
        None => list.first().cloned().into_iter().collect(),
    }
}

/// A random member of `list` different from `cur` (`None` when there is
/// no such value).
fn pick_other<T: Clone + PartialEq>(list: &[T], cur: T, rng: &mut Rng64) -> Option<T> {
    let others: Vec<&T> = list.iter().filter(|v| **v != cur).collect();
    if others.is_empty() {
        None
    } else {
        Some(others[rng.range_usize(others.len())].clone())
    }
}

/// Evaluate the seeding point (FKO defaults, falling back to the fully
/// untransformed point, exactly like the line-search skeleton) and return
/// `(seed_point, seed_cycles)`: where hill climbing and annealing start.
pub(super) fn seed(ctx: &mut SearchCtx<'_>) -> (TransformParams, u64) {
    let d = TransformParams::defaults(ctx.rep(), ctx.machine());
    match ctx.submit(PHASE_SEED, std::slice::from_ref(&d))[0] {
        Some(c) => (d, c),
        None => {
            // Under a saturated chaos plan even the untransformed kernel
            // can fail transiently: seed at u64::MAX (any later success
            // wins) rather than panicking.
            let off = TransformParams::off();
            let c = ctx.submit(PHASE_SEED, std::slice::from_ref(&off))[0].unwrap_or(u64::MAX);
            (off, c)
        }
    }
}

/// How many probes this strategy should plan for: the budget's remaining
/// allowance, or [`DEFAULT_PROBES`] when unlimited.
fn planned_probes(ctx: &SearchCtx<'_>) -> u64 {
    ctx.remaining_probes().unwrap_or(DEFAULT_PROBES)
}

/// Candidates per random-sampling batch.
const RANDOM_BATCH: u64 = 16;

/// Seeded uniform random sampling: batches of independent draws over the
/// legal space. The simplest global baseline — and, because batches are
/// wide, the strategy that profits most from `--jobs`.
pub(super) fn random(ctx: &mut SearchCtx<'_>) {
    let space = SearchSpace::new(ctx.rep(), ctx.machine(), ctx.opts());
    let mut rng = Rng64::seed_from_u64(ctx.strategy_seed() ^ 0x52414e44); // "RAND"
    seed(ctx);
    let mut left = planned_probes(ctx);
    while left > 0 && !ctx.exhausted() {
        let take = left.min(RANDOM_BATCH);
        let cands: Vec<TransformParams> = (0..take).map(|_| space.random(&mut rng)).collect();
        ctx.submit(PHASE_RAND, &cands);
        left -= take;
    }
}

/// Random restarts after hill climbing's initial descent from the seed.
const RESTARTS: u32 = 3;

/// Steepest-descent hill climbing: evaluate the full single-step
/// neighborhood of the current point, move to its best strictly-improving
/// member, and stop at a local optimum. Escapes local optima with
/// [`RESTARTS`] seeded random restarts.
pub(super) fn hill_climb(ctx: &mut SearchCtx<'_>) {
    let space = SearchSpace::new(ctx.rep(), ctx.machine(), ctx.opts());
    let mut rng = Rng64::seed_from_u64(ctx.strategy_seed() ^ 0x48434c42); // "HCLB"
    let mut seeded = Some(seed(ctx));
    'restarts: for _ in 0..=RESTARTS {
        let (mut cur, mut cur_cycles) = match seeded.take() {
            Some(seeded) => seeded,
            None => {
                let start = space.random(&mut rng);
                match ctx.submit(PHASE_HC, std::slice::from_ref(&start))[0] {
                    Some(c) => (start, c),
                    None => continue, // start point rejected or out of budget
                }
            }
        };
        // Descend: the space is finite and every move strictly
        // improves, so this terminates without an iteration cap.
        loop {
            if ctx.exhausted() {
                break 'restarts;
            }
            let nbrs = space.neighbors(&cur);
            let results = ctx.submit(PHASE_HC, &nbrs);
            let mut step: Option<(usize, u64)> = None;
            for (i, res) in results.iter().enumerate() {
                if let Some(c) = *res {
                    if c < cur_cycles && step.is_none_or(|(_, b)| c < b) {
                        step = Some((i, c));
                    }
                }
            }
            match step {
                Some((i, c)) => {
                    cur = nbrs[i].clone();
                    cur_cycles = c;
                }
                None => break, // local optimum
            }
        }
    }
}

/// Annealing's initial relative temperature: the fraction of the current
/// cycles that a regression may cost and still be even odds to accept.
const T0: f64 = 0.25;

/// Simulated annealing: a single-mutation random walk that always accepts
/// improvements and accepts regressions with probability
/// `exp(-Δ/(T·cur))` under a linearly cooling relative temperature
/// (`T0 · (1 − i/iters)`). The walk wanders early and converges late; the
/// context keeps the best point ever seen.
pub(super) fn anneal(ctx: &mut SearchCtx<'_>) {
    let space = SearchSpace::new(ctx.rep(), ctx.machine(), ctx.opts());
    let mut rng = Rng64::seed_from_u64(ctx.strategy_seed() ^ 0x414e4e4c); // "ANNL"
    let (mut cur, mut cur_cycles) = seed(ctx);
    let iters = planned_probes(ctx).max(1);
    for i in 0..iters {
        if ctx.exhausted() {
            break;
        }
        let cand = space.mutate(&cur, &mut rng);
        if let Some(c) = ctx.submit(PHASE_SA, std::slice::from_ref(&cand))[0] {
            let t = T0 * (1.0 - i as f64 / iters as f64);
            let accept = if c <= cur_cycles {
                true
            } else if t <= 0.0 {
                false
            } else {
                let delta = (c - cur_cycles) as f64 / cur_cycles.max(1) as f64;
                rng.unit_f64() < (-delta / t).exp()
            };
            if accept {
                cur = cand;
                cur_cycles = c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_blas::hil_src::hil_source;
    use ifko_blas::ops::BlasOp;
    use ifko_fko::{analyze_kernel, precheck};
    use ifko_xsim::isa::Prec;
    use ifko_xsim::p4e;

    fn dot_space() -> (AnalysisReport, MachineConfig, SearchOptions) {
        let mach = p4e();
        let src = hil_source(BlasOp::Dot, Prec::D);
        let (_, rep) = analyze_kernel(&src, &mach).unwrap();
        (rep, mach, SearchOptions::quick())
    }

    #[test]
    fn space_generates_only_legal_points() {
        let (rep, mach, opts) = dot_space();
        let space = SearchSpace::new(&rep, &mach, &opts);
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..200 {
            let p = space.random(&mut rng);
            assert_eq!(precheck(&p, &rep), Ok(()), "illegal random point {p:?}");
            let q = space.mutate(&p, &mut rng);
            assert_eq!(precheck(&q, &rep), Ok(()), "illegal mutation {q:?}");
        }
        for n in space.neighbors(space.defaults()) {
            assert_eq!(precheck(&n, &rep), Ok(()), "illegal neighbor {n:?}");
        }
    }

    #[test]
    fn mutation_changes_exactly_one_dimension_or_nothing() {
        let (rep, mach, opts) = dot_space();
        let space = SearchSpace::new(&rep, &mach, &opts);
        let mut rng = Rng64::seed_from_u64(3);
        let p = space.defaults().clone();
        for _ in 0..100 {
            let q = space.mutate(&p, &mut rng);
            let mut diffs = 0;
            diffs += usize::from(p.simd != q.simd);
            diffs += usize::from(p.unroll != q.unroll);
            diffs += usize::from(p.accum_expand != q.accum_expand);
            diffs += usize::from(p.wnt != q.wnt);
            for (a, b) in p.prefetch.iter().zip(&q.prefetch) {
                diffs += usize::from(a.kind != b.kind);
                diffs += usize::from(a.dist != b.dist);
            }
            assert!(diffs <= 1, "mutation changed {diffs} dims: {p:?} -> {q:?}");
        }
    }

    #[test]
    fn neighbors_are_deterministic_and_nonempty() {
        let (rep, mach, opts) = dot_space();
        let space = SearchSpace::new(&rep, &mach, &opts);
        let a = space.neighbors(space.defaults());
        let b = space.neighbors(space.defaults());
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn adjacent_steps_walk_the_list() {
        assert_eq!(adjacent(&[1, 2, 4, 8], &4), vec![2, 8]);
        assert_eq!(adjacent(&[1, 2, 4, 8], &1), vec![2]);
        assert_eq!(adjacent(&[1, 2, 4, 8], &8), vec![4]);
        assert_eq!(adjacent(&[1, 2, 4, 8], &5), vec![1]);
    }
}
