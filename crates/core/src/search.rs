//! The iterative search (paper §2.3): a modified line search over the
//! fundamental transformation parameters.
//!
//! "In a pure line search, the N_T-dimensional problem is split into N_T
//! separate 1-D searches, where the starting points correspond to the
//! initial parameter selection (in our case, FKO defaults)." The
//! modifications that make this a "de-facto expert system / search
//! hybrid": the search understands which parameters interact (unrolling
//! changes how many prefetches fit in a body, so prefetch distance is
//! re-swept after the unroll phase — a restricted 2-D search), and every
//! candidate is verified for correctness before its timing can win.
//!
//! Phase order follows the paper's Figure 7 decomposition:
//! `[WNT, PF DST, PF INS, UR, AE]`, and per-phase gains are recorded so
//! that figure can be regenerated.
//!
//! Each 1-D phase submits its whole candidate sweep as **one batch** to
//! an evaluator; with an [`EvalEngine`](crate::eval::EvalEngine) behind
//! it, the batch fans out across threads and is memoized in the
//! cross-phase evaluation cache. The winner of a batch is chosen by a
//! serial in-order scan requiring a strict improvement, which is exactly
//! the serial loop's selection rule — so the search result is
//! bit-identical for any `jobs` count (the determinism invariant; see
//! `crates/core/src/eval.rs`).

use crate::eval::Tally;
use crate::fault::FaultPlan;
use crate::strategy::DriverResult;
use crate::timer::Timer;
use ifko_fko::{AnalysisReport, TransformParams};
use ifko_xsim::MachineConfig;

/// Which phase of the line search produced a gain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    Wnt,
    PfDist,
    PfIns,
    Ur,
    Ae,
}

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::Wnt => "WNT",
            Phase::PfDist => "PF DST",
            Phase::PfIns => "PF INS",
            Phase::Ur => "UR",
            Phase::Ae => "AE",
        }
    }
    /// The Figure 7 phases in paper order.
    pub fn figure7() -> [Phase; 5] {
        [
            Phase::Wnt,
            Phase::PfDist,
            Phase::PfIns,
            Phase::Ur,
            Phase::Ae,
        ]
    }
}

/// Cycles before/after one search phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseGain {
    pub phase: Phase,
    pub before: u64,
    pub after: u64,
}

impl PhaseGain {
    /// Multiplicative speedup contributed by this phase.
    pub fn speedup(&self) -> f64 {
        self.before as f64 / self.after.max(1) as f64
    }
}

/// Search configuration: the candidate sets each 1-D phase sweeps.
#[derive(Clone, Debug)]
pub struct SearchOptions {
    pub timer: Timer,
    /// Unroll factors to try.
    pub ur_candidates: Vec<u32>,
    /// Prefetch distances (bytes) to try per array.
    pub pf_dists: Vec<i64>,
    /// Accumulator counts to try.
    pub ae_candidates: Vec<u32>,
    /// Run the IR verifier between every pipeline stage for every
    /// candidate, even in release builds (always on under
    /// `debug_assertions`).
    pub verify_ir: bool,
    /// Consult the analysis-driven legality precheck before compiling a
    /// candidate: provably-futile points (e.g. accumulator expansion on
    /// a kernel with no reduction) are pruned for free. Winner-neutral —
    /// see `prune_equivalence.rs`.
    pub prune: bool,
    /// Fraction of each batch's fresh candidates to prune from the
    /// predicted-worst end of the static cost model's ranking
    /// (`--model-prune FRAC`). 0.0 (the default) disables pruning; the
    /// model then runs only when a trace sink will record its predictions.
    pub model_prune: f64,
    /// Chaos plan (`--chaos SEED[:RATE]`): inject deterministic transient
    /// faults into compile/tester/timing. `None` (the default) evaluates
    /// everything fault-free.
    pub faults: Option<FaultPlan>,
    /// Retry budget per fault site per candidate before the candidate is
    /// recorded as *failed* and skipped (`--max-retries`).
    pub max_retries: u32,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            timer: Timer::quick(),
            ur_candidates: vec![1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 64, 128],
            pf_dists: vec![64, 128, 256, 384, 512, 768, 1024, 1536, 1920, 2048],
            ae_candidates: vec![1, 2, 3, 4, 5, 6],
            verify_ir: false,
            prune: true,
            model_prune: 0.0,
            faults: None,
            max_retries: 2,
        }
    }
}

impl SearchOptions {
    /// A reduced search for tests and quick demos.
    pub fn quick() -> Self {
        SearchOptions {
            timer: Timer::quick(),
            ur_candidates: vec![1, 2, 4, 8, 16],
            pf_dists: vec![128, 512, 1024],
            ae_candidates: vec![1, 2, 4],
            verify_ir: false,
            prune: true,
            model_prune: 0.0,
            faults: None,
            max_retries: 2,
        }
    }
}

/// Outcome of a search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    pub best: TransformParams,
    pub best_cycles: u64,
    /// Cycles at FKO's static defaults (the paper's "FKO" data point).
    pub default_cycles: u64,
    pub gains: Vec<PhaseGain>,
    /// Candidate evaluations performed (compile+verify+time).
    pub evaluations: u32,
    /// Candidates rejected by compile failure or the tester.
    pub rejected: u32,
    /// Evaluations answered by the cross-phase evaluation cache.
    pub cache_hits: u32,
    /// Candidates pruned before compilation (legality + cost model).
    pub pruned: u32,
    /// The cost-model subset of `pruned` (`--model-prune`).
    pub model_pruned: u32,
    /// Strategy that drove the search (`line`, `random`, `portfolio`,
    /// ...; `warm` when a tuned-database hit ended it early).
    pub strategy: String,
    /// Strategy whose probe first reached the winning cycles (equals
    /// `strategy` except under portfolio racing, where it names the
    /// winning member).
    pub winner_strategy: String,
    /// Transient-failure retries burned across the search.
    pub retries: u32,
    /// Faults injected by the chaos plan across the search.
    pub faults: u32,
    /// Timing reps rejected as outliers by the robust timer.
    pub outliers: u32,
    /// Candidates that exhausted the retry budget and were skipped.
    pub failed: u32,
}

impl SearchResult {
    /// The one place a result is assembled: what a driver found, who
    /// drove and who won, and the search's [`Tally`].
    pub(crate) fn new(
        found: DriverResult,
        strategy: &str,
        winner_strategy: String,
        tally: Tally,
    ) -> SearchResult {
        SearchResult {
            best: found.best,
            best_cycles: found.best_cycles,
            default_cycles: found.default_cycles,
            gains: found.gains,
            evaluations: tally.evaluated,
            rejected: tally.rejected,
            cache_hits: tally.cache_hits,
            pruned: tally.pruned,
            model_pruned: tally.model_pruned,
            strategy: strategy.to_string(),
            winner_strategy,
            retries: tally.retries,
            faults: tally.faults,
            outliers: tally.outliers,
            failed: tally.failed,
        }
    }

    /// iFKO-over-FKO speedup (Figure 7's total).
    pub fn speedup_over_default(&self) -> f64 {
        self.default_cycles as f64 / self.best_cycles.max(1) as f64
    }
}

/// Phase label used for the seeding evaluation (FKO defaults).
pub const PHASE_SEED: &str = "SEED";

/// The search skeleton over a *batch* evaluator: each 1-D phase submits
/// its whole candidate sweep as one call. The returned vector must be
/// index-aligned with the submitted batch. The skeleton's selection rule
/// (serial in-order scan, strict improvement) makes the outcome
/// independent of how the evaluator schedules the batch internally.
pub fn line_search_batched(
    rep: &AnalysisReport,
    machine: &MachineConfig,
    opts: &SearchOptions,
    mut eval_batch: impl FnMut(&'static str, &[TransformParams]) -> Vec<Option<u64>>,
) -> SearchResult {
    let mut best = TransformParams::defaults(rep, machine);
    let mut best_cycles = match eval_batch(PHASE_SEED, std::slice::from_ref(&best))[0] {
        Some(c) => c,
        None => {
            // Defaults failed (should not happen): fall back to everything
            // off, which must compile. Under a saturated chaos plan even
            // that can fail — seed at u64::MAX so any later success wins
            // and nothing panics.
            best = TransformParams::off();
            eval_batch(PHASE_SEED, std::slice::from_ref(&best))[0].unwrap_or(u64::MAX)
        }
    };
    let default_cycles = best_cycles;

    // Submit one batch and fold it into (best, best_cycles): in-order
    // scan, strict improvement — first candidate wins ties, exactly like
    // the serial reference loop.
    let mut sweep = |phase: &'static str,
                     cands: Vec<TransformParams>,
                     best: &mut TransformParams,
                     best_cycles: &mut u64| {
        if cands.is_empty() {
            return;
        }
        let results = eval_batch(phase, &cands);
        debug_assert_eq!(results.len(), cands.len());
        for (cand, res) in cands.into_iter().zip(results) {
            if let Some(c) = res {
                if c < *best_cycles {
                    *best_cycles = c;
                    *best = cand;
                }
            }
        }
    };
    let mut gains = Vec::new();

    // The whole phase sequence repeats while it keeps improving (max 2
    // passes): parameters interact — e.g. WNT only pays off once the
    // written array's prefetch has been dropped, so a second WNT phase
    // after the PF INS phase can flip it (the Opteron copy case).
    const PASSES: usize = 2;

    // PF DST: a 1-D distance sweep per candidate array. Arrays are swept
    // one after another (each array's sweep builds on the winner of the
    // previous array's), and each array's distances go out as one batch.
    fn pf_dist_sweep(
        sweep: &mut impl FnMut(&'static str, Vec<TransformParams>, &mut TransformParams, &mut u64),
        best: &mut TransformParams,
        best_cycles: &mut u64,
        dists: &[i64],
    ) {
        let arrays: Vec<_> = best.prefetch.iter().map(|s| s.ptr).collect();
        for ptr in arrays {
            let Some(cur) = best.prefetch.iter().find(|s| s.ptr == ptr).map(|s| s.dist) else {
                continue;
            };
            let cands: Vec<TransformParams> = dists
                .iter()
                .filter(|&&d| d != cur)
                .map(|&d| {
                    let mut cand = best.clone();
                    if let Some(spec) = cand.prefetch.iter_mut().find(|s| s.ptr == ptr) {
                        spec.dist = d;
                    }
                    cand
                })
                .collect();
            sweep(Phase::PfDist.label(), cands, best, best_cycles);
        }
    }

    for _pass in 0..PASSES {
        let cycles_at_pass_start = best_cycles;
        // ---- WNT ----
        {
            let before = best_cycles;
            // Submitted even when analysis finds no WNT targets: the
            // engine's legality precheck prunes the candidate for free
            // (and without pruning it evaluates as an exact no-op, so the
            // strict-improvement rule keeps the winner unchanged).
            let mut cand = best.clone();
            cand.wnt = !cand.wnt;
            sweep(Phase::Wnt.label(), vec![cand], &mut best, &mut best_cycles);
            gains.push(PhaseGain {
                phase: Phase::Wnt,
                before,
                after: best_cycles,
            });
        }

        // ---- PF DST ----
        {
            let before = best_cycles;
            pf_dist_sweep(&mut sweep, &mut best, &mut best_cycles, &opts.pf_dists);
            gains.push(PhaseGain {
                phase: Phase::PfDist,
                before,
                after: best_cycles,
            });
        }

        // ---- PF INS: per-array instruction type, including "none" ----
        {
            let before = best_cycles;
            let arrays: Vec<_> = best.prefetch.iter().map(|s| s.ptr).collect();
            for ptr in arrays {
                let cur = best
                    .prefetch
                    .iter()
                    .find(|s| s.ptr == ptr)
                    .and_then(|s| s.kind);
                // "none" — drop the prefetch entirely — then every
                // machine-supported instruction, as one batch.
                let mut cands: Vec<TransformParams> = Vec::new();
                let kinds =
                    std::iter::once(None).chain(machine.prefetch_kinds.iter().map(|k| Some(*k)));
                for kind in kinds {
                    if kind == cur && kind.is_some() {
                        continue;
                    }
                    let mut cand = best.clone();
                    if let Some(spec) = cand.prefetch.iter_mut().find(|s| s.ptr == ptr) {
                        spec.kind = kind;
                    }
                    cands.push(cand);
                }
                sweep(Phase::PfIns.label(), cands, &mut best, &mut best_cycles);
            }
            gains.push(PhaseGain {
                phase: Phase::PfIns,
                before,
                after: best_cycles,
            });
        }

        // ---- UR ----
        {
            let before = best_cycles;
            let cands: Vec<TransformParams> = opts
                .ur_candidates
                .iter()
                .filter(|&&ur| ur <= rep.max_unroll && ur != best.unroll)
                .map(|&ur| {
                    let mut cand = best.clone();
                    cand.unroll = ur;
                    cand
                })
                .collect();
            sweep(Phase::Ur.label(), cands, &mut best, &mut best_cycles);
            // Restricted 2-D refinement: unrolling changes the prefetch
            // schedule, so re-sweep the distances at the new unroll.
            pf_dist_sweep(&mut sweep, &mut best, &mut best_cycles, &opts.pf_dists);
            gains.push(PhaseGain {
                phase: Phase::Ur,
                before,
                after: best_cycles,
            });
        }

        // ---- AE ----
        {
            let before = best_cycles;
            // Submitted even when the kernel has no reduction adds: the
            // precheck prunes the whole sweep (without pruning every
            // candidate fails AE legality in xform and is rejected — the
            // winner is identical either way).
            let cands: Vec<TransformParams> = opts
                .ae_candidates
                .iter()
                .filter(|&&ae| ae != best.accum_expand)
                .map(|&ae| {
                    let mut cand = best.clone();
                    cand.accum_expand = ae;
                    cand
                })
                .collect();
            sweep(Phase::Ae.label(), cands, &mut best, &mut best_cycles);
            // AE interacts with UR (accumulators rotate over unroll
            // copies): re-check a few unroll factors at the chosen AE.
            if !rep.ae_candidates.is_empty() {
                let cands: Vec<TransformParams> = opts
                    .ur_candidates
                    .iter()
                    .filter(|&&ur| ur <= rep.max_unroll && ur != best.unroll)
                    .map(|&ur| {
                        let mut cand = best.clone();
                        cand.unroll = ur;
                        cand
                    })
                    .collect();
                sweep(Phase::Ae.label(), cands, &mut best, &mut best_cycles);
            }
            gains.push(PhaseGain {
                phase: Phase::Ae,
                before,
                after: best_cycles,
            });
        }
        if best_cycles == cycles_at_pass_start {
            break; // fixed point: nothing improved this pass
        }
    }

    // The skeleton sees no counters: callers that track them (the
    // strategy harness) fill the tally in.
    let found = DriverResult {
        best,
        best_cycles,
        default_cycles,
        gains,
    };
    SearchResult::new(found, "line", "line".to_string(), Tally::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Context;
    use crate::TuneConfig;
    use ifko_blas::ops::BlasOp;
    use ifko_blas::Kernel;
    use ifko_xsim::isa::Prec;

    fn search_kernel(op: BlasOp, n: usize, ctx: Context) -> SearchResult {
        let mut opts = SearchOptions::quick();
        opts.timer = Timer::exact();
        let cfg = TuneConfig::quick(n).context(ctx).seed(42).search(opts);
        cfg.tune(Kernel { op, prec: Prec::D }).unwrap().result
    }

    #[test]
    fn search_improves_over_defaults_for_dot() {
        let r = search_kernel(BlasOp::Dot, 8192, Context::OutOfCache);
        assert!(r.best_cycles <= r.default_cycles);
        assert!(r.evaluations > 5);
        assert_eq!(r.rejected, 0, "no candidate should fail on dot");
        // Phase records cover the Figure 7 set.
        let phases: Vec<Phase> = r.gains.iter().map(|g| g.phase).collect();
        for p in Phase::figure7() {
            assert!(phases.contains(&p), "missing phase {p:?}");
        }
    }

    #[test]
    fn gains_chain_multiplies_to_total() {
        let r = search_kernel(BlasOp::Asum, 4096, Context::InL2);
        let product: f64 = r.gains.iter().map(|g| g.speedup()).product();
        let total = r.speedup_over_default();
        assert!(
            (product - total).abs() < 1e-9,
            "phase speedups ({product}) must compose to the total ({total})"
        );
    }

    #[test]
    fn ae_phase_fires_for_reductions_in_cache() {
        let r = search_kernel(BlasOp::Asum, 2048, Context::InL2);
        let ae_gain = r.gains.iter().find(|g| g.phase == Phase::Ae).unwrap();
        assert!(
            ae_gain.speedup() > 1.02 || r.best.accum_expand > 1,
            "asum in-cache should profit from AE (got {:?})",
            r.best
        );
    }

    #[test]
    fn iamax_searches_without_vectorization() {
        let r = search_kernel(BlasOp::Iamax, 4096, Context::OutOfCache);
        assert!(!r.best.simd, "iamax must not vectorize");
        assert!(r.best_cycles <= r.default_cycles);
    }

    #[test]
    fn search_is_deterministic() {
        let a = search_kernel(BlasOp::Dot, 2048, Context::OutOfCache);
        let b = search_kernel(BlasOp::Dot, 2048, Context::OutOfCache);
        assert_eq!(a.best_cycles, b.best_cycles);
        assert_eq!(a.best, b.best);
    }
}
