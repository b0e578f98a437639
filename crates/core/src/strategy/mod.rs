//! Pluggable search strategies: the subsystem that decides *which*
//! parameter points to evaluate.
//!
//! The paper's search is one fixed algorithm — the modified line search
//! of §2.3 — but it explicitly anticipates richer searches as the
//! transform space grows ("a more sophisticated search method may pay
//! dividends"). This module makes the search a first-class, swappable
//! component:
//!
//! * [`SearchDriver`] — the strategy trait. A driver proposes candidate
//!   batches through a [`SearchCtx`] and observes the results; the
//!   context runs every batch through the shared
//!   [`EvalEngine`](crate::eval::EvalEngine) (cache, pruning, tracing,
//!   metrics all included) and enforces an explicit probe/wall-clock
//!   [`Budget`].
//! * [`LineSearch`] — the paper's modified line search behind the trait,
//!   bit-identical to the pre-refactor implementation (guarded by
//!   `strategy_subsystem.rs`).
//! * [`RandomSearch`], [`HillClimb`], [`Anneal`] — global strategies
//!   over the same legality-gated space, driven by the in-repo seeded
//!   rng: same seed, same trace.
//! * [`Portfolio`] — a meta-driver that races the strategies under a
//!   shared budget and cache, and reports which member found the winner.
//! * [`TunedDb`] — a persistent tuned-results database
//!   (one `results/db/tuned.jsonl` journal behind an in-memory map)
//!   keyed by kernel/precision/machine/context/repo-rev; any driver
//!   warm-starts from it (the stored winner is *re-verified* before it
//!   is trusted).
//!
//! Per-candidate attribution flows through the whole observability
//! stack: every [`EvalEvent`](crate::eval::EvalEvent) carries the
//! proposing strategy's name, `ifko report` aggregates per-strategy
//! rows, and the metrics registry counts probes and wins per strategy.

pub mod db;
mod global;
mod line;
mod portfolio;

pub use db::{db_key, repo_rev, DbStats, TunedDb, TunedRecord};
pub use global::{Anneal, HillClimb, RandomSearch, SearchSpace};
pub use line::LineSearch;
pub use portfolio::Portfolio;

use crate::eval::{Batch, EvalEngine, ModelCtx, Span, Tally};
use crate::metrics;
use crate::search::{PhaseGain, SearchOptions, SearchResult, PHASE_SEED};
use crate::subject::Subject;
use ifko_fko::{precheck, AnalysisReport, TransformParams};
use ifko_xsim::MachineConfig;
use std::time::{Duration, Instant};

/// Phase label for re-verifying a tuned-db winner during warm start.
pub const PHASE_WARM: &str = "WARM";

/// Strategy label reported when a warm start short-circuits the search.
pub const STRATEGY_WARM: &str = "warm";

/// Phase label for probing a transfer seed: the nearest tuned record by
/// static-feature distance when no exact warm hit exists.
pub const PHASE_XFER: &str = "XFER";

/// Strategy label attributed to transfer-seeded probes, so a winner that
/// came straight from the transferred point is visible in reports.
pub const STRATEGY_XFER: &str = "xfer";

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

/// An explicit search budget: a probe cap, a wall-clock cap, or both.
///
/// Probes count every *submitted* candidate (fresh evaluations, cache
/// hits, and pruned points alike — the things a strategy chose to ask
/// about), so a probe budget is deterministic at any `jobs` width. The
/// wall-clock cap is best-effort and inherently machine-dependent; use
/// probe budgets when reproducibility matters. The seeding batch is
/// always admitted, so even `--budget 0` yields a valid (default-point)
/// result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    pub max_probes: Option<u64>,
    pub max_wall: Option<Duration>,
}

impl Budget {
    /// No cap: every driver runs to its natural convergence.
    pub fn unlimited() -> Budget {
        Budget::default()
    }
    /// Cap the number of submitted candidate points.
    pub fn probes(n: u64) -> Budget {
        Budget {
            max_probes: Some(n),
            max_wall: None,
        }
    }
    /// Cap the search wall-clock time.
    pub fn wall(d: Duration) -> Budget {
        Budget {
            max_probes: None,
            max_wall: Some(d),
        }
    }
    /// Parse a `--budget` argument: a plain integer is a probe count,
    /// a `500ms` / `2s` suffix is a wall-clock cap.
    pub fn parse(s: &str) -> Result<Budget, String> {
        let s = s.trim();
        let err = |s: &str| format!("bad budget `{s}` (want a probe count, `500ms`, or `2s`)");
        if let Some(ms) = s.strip_suffix("ms") {
            ms.trim()
                .parse::<u64>()
                .map(|v| Budget::wall(Duration::from_millis(v)))
                .map_err(|_| err(s))
        } else if let Some(sec) = s.strip_suffix('s') {
            sec.trim()
                .parse::<u64>()
                .map(|v| Budget::wall(Duration::from_secs(v)))
                .map_err(|_| err(s))
        } else {
            s.parse::<u64>().map(Budget::probes).map_err(|_| err(s))
        }
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.max_probes, self.max_wall) {
            (None, None) => write!(f, "unlimited"),
            (Some(p), None) => write!(f, "{p} probes"),
            (None, Some(w)) => write!(f, "{}ms", w.as_millis()),
            (Some(p), Some(w)) => write!(f, "{p} probes / {}ms", w.as_millis()),
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy selection
// ---------------------------------------------------------------------------

/// Which search strategy to run (`--strategy`, `TuneConfig::strategy`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrategySpec {
    /// The paper's modified line search (§2.3) — the default, and
    /// bit-identical to the pre-subsystem implementation.
    #[default]
    Line,
    /// Seeded uniform random sampling over the legal space.
    Random,
    /// Steepest-descent hill climbing with seeded random restarts.
    HillClimb,
    /// Simulated annealing with a linear cooling schedule.
    Anneal,
    /// Race all of the above under a shared budget and cache.
    Portfolio,
}

impl StrategySpec {
    /// Parse a `--strategy` argument.
    pub fn parse(s: &str) -> Result<StrategySpec, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "line" => Ok(StrategySpec::Line),
            "random" | "rand" => Ok(StrategySpec::Random),
            "hillclimb" | "hc" => Ok(StrategySpec::HillClimb),
            "anneal" | "sa" => Ok(StrategySpec::Anneal),
            "portfolio" => Ok(StrategySpec::Portfolio),
            _ => Err(format!(
                "unknown strategy `{s}` (line | random | hillclimb | anneal | portfolio)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StrategySpec::Line => "line",
            StrategySpec::Random => "random",
            StrategySpec::HillClimb => "hillclimb",
            StrategySpec::Anneal => "anneal",
            StrategySpec::Portfolio => "portfolio",
        }
    }

    /// Every selectable strategy, in `--strategy` spelling order.
    pub fn all() -> [StrategySpec; 5] {
        [
            StrategySpec::Line,
            StrategySpec::Random,
            StrategySpec::HillClimb,
            StrategySpec::Anneal,
            StrategySpec::Portfolio,
        ]
    }

    /// Instantiate the driver this spec names.
    pub fn build(self) -> Box<dyn SearchDriver> {
        match self {
            StrategySpec::Line => Box::new(LineSearch),
            StrategySpec::Random => Box::new(RandomSearch::default()),
            StrategySpec::HillClimb => Box::new(HillClimb::default()),
            StrategySpec::Anneal => Box::new(Anneal::default()),
            StrategySpec::Portfolio => Box::new(Portfolio::default()),
        }
    }
}

// ---------------------------------------------------------------------------
// The driver trait
// ---------------------------------------------------------------------------

/// What a driver must hand back: the winning point and the numbers the
/// rest of the pipeline reports (evaluation counters are tracked by the
/// harness, not the driver).
#[derive(Clone, Debug)]
pub struct DriverResult {
    pub best: TransformParams,
    pub best_cycles: u64,
    /// Cycles at FKO's static defaults (every driver seeds there).
    pub default_cycles: u64,
    /// Per-phase gains, for drivers with a meaningful phase decomposition
    /// (the line search); global drivers may leave this empty.
    pub gains: Vec<PhaseGain>,
}

/// A pluggable search strategy.
///
/// A driver never touches the evaluation machinery directly: it proposes
/// candidate batches via [`SearchCtx::submit`] and folds the returned
/// cycles into its own state. The context owns budget enforcement,
/// caching, pruning, tracing, and per-strategy attribution, so every
/// driver automatically composes with the whole engine stack.
pub trait SearchDriver {
    /// Stable lower-case name, used for trace/metric/report attribution.
    fn name(&self) -> &'static str;
    /// Run the search to convergence or budget exhaustion.
    fn run(&mut self, ctx: &mut SearchCtx<'_>) -> DriverResult;
}

// ---------------------------------------------------------------------------
// The driver's window onto the engine
// ---------------------------------------------------------------------------

/// Everything a [`SearchDriver`] may see and do: the analysis report and
/// machine model (to build a legal candidate space), the search options,
/// a deterministic strategy seed, and [`submit`](SearchCtx::submit).
///
/// The context owns the search's side of the evaluation loop: the subject
/// being tuned, the engine its batches run on, and the running [`Tally`]
/// of everything submitted so far.
pub struct SearchCtx<'a> {
    subject: &'a Subject,
    engine: &'a EvalEngine,
    /// The root `search` span every evaluation's spans hang off.
    search_id: u64,
    tally: Tally,
    budget: Budget,
    started: Instant,
    probes: u64,
    /// Absolute probe-count ceiling for the current portfolio member.
    cap: Option<u64>,
    strategy: &'static str,
    truncated: bool,
    best: Option<(TransformParams, u64)>,
    winner_strategy: Option<&'static str>,
}

impl<'a> SearchCtx<'a> {
    pub fn rep(&self) -> &'a AnalysisReport {
        self.subject.sess.report()
    }
    pub fn machine(&self) -> &'a MachineConfig {
        &self.subject.machine
    }
    pub fn opts(&self) -> &'a SearchOptions {
        &self.subject.opts
    }
    /// Deterministic seed for strategy rng (the workload seed; mix in a
    /// per-driver salt so racing drivers draw independent streams).
    pub fn strategy_seed(&self) -> u64 {
        self.subject.scope.seed
    }
    /// Candidates submitted so far (fresh + cached + pruned).
    pub fn probes(&self) -> u64 {
        self.probes
    }
    /// True once the budget (or the current portfolio share) is spent.
    /// Drivers should poll this in their outer loops; `submit` also
    /// enforces it by truncating over-budget batches.
    pub fn exhausted(&self) -> bool {
        self.allowance() == 0
    }
    /// Whether any batch was cut short by the budget.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
    /// Best verified point seen by *any* strategy so far this search.
    pub fn best(&self) -> Option<(&TransformParams, u64)> {
        self.best.as_ref().map(|(p, c)| (p, *c))
    }
    /// Name of the strategy that found the current best.
    pub fn winner_strategy(&self) -> Option<&'static str> {
        self.winner_strategy
    }

    /// Probes still admissible (`None` = unlimited).
    pub(crate) fn remaining_probes(&self) -> Option<u64> {
        let b = self
            .budget
            .max_probes
            .map(|m| m.saturating_sub(self.probes));
        let c = self.cap.map(|c| c.saturating_sub(self.probes));
        match (b, c) {
            (None, None) => None,
            (Some(x), None) | (None, Some(x)) => Some(x),
            (Some(x), Some(y)) => Some(x.min(y)),
        }
    }

    /// Focus subsequent probes on one portfolio member: attribute them to
    /// `strategy` and cap them at `share` more probes (when given).
    pub(crate) fn enter_member(&mut self, strategy: &'static str, share: Option<u64>) {
        self.strategy = strategy;
        self.cap = share.map(|s| self.probes.saturating_add(s));
    }

    /// Restore the enclosing strategy label and lift the member cap.
    pub(crate) fn exit_member(&mut self, strategy: &'static str) {
        self.strategy = strategy;
        self.cap = None;
    }

    fn allowance(&self) -> u64 {
        if self.probes == 0 {
            // The seeding batch is always admitted: every result must at
            // least rest on an evaluated baseline.
            return u64::MAX;
        }
        if let Some(w) = self.budget.max_wall {
            if self.started.elapsed() >= w {
                return 0;
            }
        }
        let mut allow = u64::MAX;
        if let Some(m) = self.budget.max_probes {
            allow = allow.min(m.saturating_sub(self.probes));
        }
        if let Some(c) = self.cap {
            allow = allow.min(c.saturating_sub(self.probes));
        }
        allow
    }

    /// Evaluate one candidate batch under the phase label `phase`.
    ///
    /// The returned vector is index-aligned with `cands`; `None` means
    /// rejected, pruned, *or* cut by the budget (over-budget candidates
    /// are never evaluated — their slots come back `None` so driver
    /// bookkeeping stays index-aligned).
    ///
    /// Every admitted batch flows through the engine with the legality
    /// precheck (`opts.prune`) and the static cost model attached (priced
    /// only for a trace sink or an `opts.model_prune` cut above 0), and is
    /// counted on the spot: the running tally,
    /// the per-phase and per-strategy probe counters, and — where the
    /// in-order strict-improvement scan moves the best — the per-phase
    /// win and improvement-delta instruments. The seeding result
    /// establishes the baseline without counting as a win, so the
    /// counters agree with the search's decisions at any `jobs` width.
    pub fn submit(&mut self, phase: &'static str, cands: &[TransformParams]) -> Vec<Option<u64>> {
        if cands.is_empty() {
            return Vec::new();
        }
        let allowed = self.allowance().min(cands.len() as u64) as usize;
        if allowed < cands.len() {
            self.truncated = true;
        }
        let cands_in = &cands[..allowed];
        let (subject, engine, search_id) = (self.subject, self.engine, self.search_id);
        let reg = engine.metrics();
        let mut results = Vec::new();
        if allowed > 0 {
            let (rep, opts) = (self.rep(), self.opts());
            let check = |p: &TransformParams| {
                if opts.prune {
                    precheck(p, rep)
                } else {
                    Ok(())
                }
            };
            let model = |p: &TransformParams| subject.predict(p);
            let batch = Batch {
                scope: &subject.scope,
                strategy: self.strategy,
                phase,
                precheck: &check,
                model: Some(ModelCtx {
                    hook: &model,
                    prune_frac: opts.model_prune,
                }),
            };
            let out = engine.evaluate(&batch, cands_in, |p| {
                subject.evaluate(p, Some(engine), search_id)
            });
            reg.counter(&metrics::labeled(
                metrics::SEARCH_CANDIDATES,
                "phase",
                phase,
            ))
            .add(allowed as u64);
            reg.counter(&metrics::labeled(
                metrics::STRATEGY_PROBES,
                "strategy",
                self.strategy,
            ))
            .add(allowed as u64);
            self.tally += out.tally;
            results = out.results;
        }
        self.probes += allowed as u64;
        // The selection rule (in-order scan, strict improvement), kept
        // across every strategy's submissions for winner attribution.
        for (cand, res) in cands_in.iter().zip(results.iter()) {
            let Some(c) = *res else { continue };
            match self.best.as_ref().map(|(_, b)| *b) {
                Some(b) if c >= b => continue,
                Some(b) => {
                    reg.counter(&metrics::labeled(
                        metrics::SEARCH_PHASE_WINS,
                        "phase",
                        phase,
                    ))
                    .inc();
                    reg.histogram(metrics::SEARCH_WINNER_DELTA_PCT, metrics::PCT_BUCKETS)
                        .observe((b - c) * 100 / b.max(1));
                }
                None => {}
            }
            self.best = Some((cand.clone(), c));
            self.winner_strategy = Some(self.strategy);
        }
        results.resize(cands.len(), None);
        results
    }
}

// ---------------------------------------------------------------------------
// Harness: drive a strategy through an EvalEngine
// ---------------------------------------------------------------------------

/// Run `spec` over `subject` on an [`EvalEngine`]: the one entry point
/// every search goes through.
///
/// Everything a search needs to know about what it tunes comes from the
/// subject — the analysis report, machine, options and strategy seed, the
/// static cost model ([`Subject::predict`]) and the single-point
/// evaluator ([`Subject::evaluate`], hung off this function's root
/// `search` span). When `warm` is given, the stored winner is re-verified
/// first (`WARM` phase) and, if it still verifies, returned immediately
/// without running the driver. When `transfer` is given (no exact warm
/// hit, but a nearby tuned record by static-feature distance), the
/// transferred point is probed once up front (`XFER` phase) so the
/// driver's searches start from — and the final winner can be — a proven
/// neighbor.
pub(crate) fn run_search(
    subject: &Subject,
    engine: &EvalEngine,
    spec: StrategySpec,
    budget: Budget,
    warm: Option<&TunedRecord>,
    transfer: Option<&TunedRecord>,
) -> SearchResult {
    let search_span = Span::root(engine.trace().cloned(), subject.scope.key(), "search");
    let mut ctx = SearchCtx {
        subject,
        engine,
        search_id: search_span.id(),
        tally: Tally::default(),
        budget,
        started: Instant::now(),
        probes: 0,
        cap: None,
        strategy: spec.name(),
        truncated: false,
        best: None,
        winner_strategy: None,
    };
    let warmed = warm.and_then(|rec| warm_start(&mut ctx, rec));
    let strategy = if warmed.is_some() {
        STRATEGY_WARM
    } else {
        spec.name()
    };
    let (found, winner) = warmed.unwrap_or_else(|| {
        if let (None, Some(rec)) = (warm, transfer) {
            transfer_seed(&mut ctx, rec);
        }
        drive(&mut ctx, spec)
    });
    engine
        .metrics()
        .counter(&metrics::labeled(
            metrics::STRATEGY_WINS,
            "strategy",
            &winner,
        ))
        .inc();
    SearchResult::new(found, strategy, winner, ctx.tally)
}

/// Warm start: seed at the defaults, then re-verify the stored winner.
/// `Some((result, finder))` when it still verifies — it is trusted
/// without a search, and the winner credit stays with the strategy that
/// originally found the stored point. `None` when the stored winner no
/// longer verifies (or even the defaults failed): the caller falls
/// through to the full search, and the seeding evaluation stays cached,
/// so nothing is wasted.
fn warm_start(ctx: &mut SearchCtx<'_>, rec: &TunedRecord) -> Option<(DriverResult, String)> {
    let outer = std::mem::replace(&mut ctx.strategy, STRATEGY_WARM);
    let defaults = TransformParams::defaults(ctx.rep(), ctx.machine());
    let cycles = ctx.submit(PHASE_SEED, std::slice::from_ref(&defaults))[0].and_then(|seeded| {
        let warmed = ctx.submit(PHASE_WARM, std::slice::from_ref(&rec.params))[0]?;
        Some((seeded, warmed))
    });
    ctx.strategy = outer;
    let (default_cycles, warm_cycles) = cycles?;
    ctx.engine.metrics().counter(metrics::DB_WARM_HITS).inc();
    let (best, best_cycles) = if warm_cycles < default_cycles {
        (rec.params.clone(), warm_cycles)
    } else {
        (defaults, default_cycles)
    };
    let finder = if rec.strategy.is_empty() {
        STRATEGY_WARM.to_string()
    } else {
        rec.strategy.clone()
    };
    let found = DriverResult {
        best,
        best_cycles,
        default_cycles,
        gains: Vec::new(),
    };
    Some((found, finder))
}

/// Transfer warm start: probe the nearest tuned neighbor's winner once
/// (re-verified like any candidate) before the driver runs. If it holds
/// up, the context's strict-improvement winner tracking lets it beat the
/// driver's result; if it doesn't verify, the search proceeds unharmed.
fn transfer_seed(ctx: &mut SearchCtx<'_>, rec: &TunedRecord) {
    let outer = std::mem::replace(&mut ctx.strategy, STRATEGY_XFER);
    let defaults = TransformParams::defaults(ctx.rep(), ctx.machine());
    let _ = ctx.submit(PHASE_SEED, std::slice::from_ref(&defaults));
    let _ = ctx.submit(PHASE_XFER, std::slice::from_ref(&rec.params));
    ctx.engine.metrics().counter(metrics::DB_XFER_SEEDS).inc();
    ctx.strategy = outer;
}

/// Run `spec`'s driver and return what it found with the name of the
/// strategy whose probe found it.
fn drive(ctx: &mut SearchCtx<'_>, spec: StrategySpec) -> (DriverResult, String) {
    let mut driver = spec.build();
    let mut found = driver.run(ctx);
    // The context tracked the best verified point across *every*
    // submission, including the transfer probe, which the driver's own
    // result cannot see. Prefer it when strictly better.
    if let Some((p, c)) = ctx.best() {
        if c < found.best_cycles {
            (found.best, found.best_cycles) = (p.clone(), c);
        }
    }
    let winner = ctx.winner_strategy.unwrap_or(driver.name());
    (found, winner.to_string())
}

/// Evaluate the seeding point (FKO defaults, falling back to the fully
/// untransformed point, exactly like the line-search skeleton) and return
/// `(seed_point, seed_cycles)`. Shared by the global drivers.
pub(crate) fn establish_seed(ctx: &mut SearchCtx<'_>) -> (TransformParams, u64) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parses_probes_and_wall() {
        assert_eq!(Budget::parse("64"), Ok(Budget::probes(64)));
        assert_eq!(
            Budget::parse("500ms"),
            Ok(Budget::wall(Duration::from_millis(500)))
        );
        assert_eq!(
            Budget::parse("2s"),
            Ok(Budget::wall(Duration::from_secs(2)))
        );
        assert!(Budget::parse("lots").is_err());
        assert!(Budget::parse("").is_err());
    }

    #[test]
    fn budget_displays() {
        assert_eq!(Budget::unlimited().to_string(), "unlimited");
        assert_eq!(Budget::probes(32).to_string(), "32 probes");
        assert_eq!(
            Budget::wall(Duration::from_millis(250)).to_string(),
            "250ms"
        );
    }

    #[test]
    fn strategy_spec_round_trips_names() {
        for spec in StrategySpec::all() {
            assert_eq!(StrategySpec::parse(spec.name()), Ok(spec));
            assert_eq!(spec.build().name(), spec.name());
        }
        assert_eq!(StrategySpec::parse("HC"), Ok(StrategySpec::HillClimb));
        assert_eq!(StrategySpec::parse("sa"), Ok(StrategySpec::Anneal));
        assert!(StrategySpec::parse("bayesian").is_err());
        assert_eq!(StrategySpec::default(), StrategySpec::Line);
    }
}
