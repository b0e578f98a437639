//! Search strategies: the subsystem that decides *which* parameter
//! points to evaluate.
//!
//! The paper's search is one fixed algorithm — the modified line search
//! of §2.3 — but it explicitly anticipates richer searches as the
//! transform space grows ("a more sophisticated search method may pay
//! dividends"). A strategy here is a plain function of the search's
//! context, picked by [`StrategySpec`]:
//!
//! * `SearchCtx` (crate-private) — a strategy proposes candidate batches
//!   through `SearchCtx::submit`; the context runs every batch through the
//!   shared [`EvalEngine`] (cache, pruning, tracing, metrics all
//!   included), enforces an explicit probe/wall-clock
//!   [`Budget`], and is the one owner of the search's outcome: the seed's
//!   cycles, the best point and the strategy whose probe found it.
//! * `line` — the paper's modified line search
//!   ([`line_search_batched`]), bit-identical to a serial reference
//!   (guarded by `strategy_subsystem.rs`).
//! * `random`, `hill_climb`, `anneal` — global strategies over the same
//!   legality-gated space, driven by the in-repo seeded rng: same seed,
//!   same trace.
//! * `portfolio` — races the four under a shared budget and cache; the
//!   member whose probe found the winner gets the credit.
//! * [`TunedDb`] — a persistent tuned-results database
//!   (one `results/db/tuned.jsonl` journal behind an in-memory map)
//!   keyed by kernel/precision/machine/context/repo-rev; any strategy
//!   starts from its record for the key and probes that point again
//!   before trusting it. A key with no record tunes as it would with no
//!   database.
//!
//! Per-candidate attribution flows through the whole observability
//! stack: every [`EvalEvent`](crate::eval::EvalEvent) carries the
//! proposing strategy's name, `ifko report` aggregates per-strategy
//! rows, and the metrics registry counts probes and wins per strategy.

pub mod db;
mod global;

pub use db::{db_key, repo_rev, DbStats, TunedDb, TunedRecord};
pub use global::SearchSpace;

use crate::eval::{Batch, EvalEngine, Span, Tally};
use crate::metrics;
use crate::search::{line_search_batched, PhaseGain, SearchOptions, SearchResult, PHASE_SEED};
use crate::subject::Subject;
use ifko_fko::{precheck, AnalysisReport, TransformParams};
use ifko_xsim::MachineConfig;
use std::time::{Duration, Instant};

/// Phase label for re-verifying a tuned-db winner during warm start.
pub const PHASE_WARM: &str = "WARM";

/// Strategy label of a search a verified `WARM` probe ended, and of
/// that probe.
pub const STRATEGY_WARM: &str = "warm";

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
    /// No cap: every strategy runs to its natural convergence.
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

    /// Run this strategy over `ctx` to convergence or budget
    /// exhaustion, returning its per-phase gains (the line search's; the
    /// global strategies have no phase decomposition). What it found is
    /// the context's to report.
    fn run(self, ctx: &mut SearchCtx<'_>) -> Vec<PhaseGain> {
        match self {
            StrategySpec::Line => return line(ctx),
            StrategySpec::Random => global::random(ctx),
            StrategySpec::HillClimb => global::hill_climb(ctx),
            StrategySpec::Anneal => global::anneal(ctx),
            StrategySpec::Portfolio => return portfolio(ctx),
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// The strategies' window onto the engine
// ---------------------------------------------------------------------------

/// Everything a strategy may see and do: the analysis report and machine
/// model (to build a legal candidate space), the search options, a
/// deterministic strategy seed, and [`submit`](SearchCtx::submit).
///
/// The context owns the search's side of the evaluation loop — the
/// subject being tuned, the engine its batches run on, the running
/// [`Tally`] of everything submitted so far — and its outcome: the seed's
/// cycles, the best point and the strategy that found it. Strategies keep
/// no copy of any of it.
pub(crate) struct SearchCtx<'a> {
    subject: &'a Subject,
    engine: &'a EvalEngine,
    /// The root `search` span every evaluation's spans hang off.
    search_id: u64,
    tally: Tally,
    budget: Budget,
    started: Instant,
    /// Candidates submitted so far (fresh + cached + pruned).
    probes: u64,
    /// Absolute probe-count ceiling for the current portfolio member.
    cap: Option<u64>,
    strategy: &'static str,
    /// Cycles of the first verified `SEED` probe: FKO's defaults, or the
    /// untransformed point when the defaults failed.
    seed_cycles: Option<u64>,
    /// Cycles of the best verified point of the whole search.
    best_cycles: Option<u64>,
    /// The first verified point at the best cycles since the strategy
    /// began (since the search began, before one does), and the label of
    /// the probe that found it.
    found: Option<(TransformParams, u64, &'static str)>,
}

impl<'a> SearchCtx<'a> {
    fn rep(&self) -> &'a AnalysisReport {
        self.subject.sess.report()
    }
    fn machine(&self) -> &'a MachineConfig {
        &self.subject.machine
    }
    fn opts(&self) -> &'a SearchOptions {
        &self.subject.opts
    }
    /// Deterministic seed for strategy rng (the workload seed; mix in a
    /// per-strategy salt so racing strategies draw independent streams).
    fn strategy_seed(&self) -> u64 {
        self.subject.scope.seed
    }
    /// True once the budget (or the current portfolio share) is spent.
    /// Strategies should poll this in their outer loops; `submit` also
    /// enforces it by truncating over-budget batches.
    fn exhausted(&self) -> bool {
        self.allowance() == 0
    }
    /// Cycles of the best verified point since the strategy began
    /// (`u64::MAX` before one verifies).
    fn found_cycles(&self) -> u64 {
        self.found.as_ref().map_or(u64::MAX, |f| f.1)
    }

    /// Probes still admissible (`None` = unlimited).
    fn remaining_probes(&self) -> Option<u64> {
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

    /// Probes the next batch may take: all of them for the seeding
    /// batch (every result must at least rest on an evaluated baseline),
    /// none once the wall-clock cap has passed, else what is left.
    fn allowance(&self) -> u64 {
        if self.probes == 0 {
            return u64::MAX;
        }
        if self
            .budget
            .max_wall
            .is_some_and(|w| self.started.elapsed() >= w)
        {
            return 0;
        }
        self.remaining_probes().unwrap_or(u64::MAX)
    }

    /// Evaluate one candidate batch under the phase label `phase`.
    ///
    /// The returned vector is index-aligned with `cands`; `None` means
    /// rejected, pruned, *or* cut by the budget (over-budget candidates
    /// are never evaluated — their slots come back `None` so a strategy's
    /// bookkeeping stays index-aligned).
    ///
    /// Every admitted batch flows through the engine with the legality
    /// precheck (`opts.prune`) and the static cost model attached (priced
    /// only for a trace sink), and is counted on the spot: the running
    /// tally, the per-phase and per-strategy probe counters, and — where the
    /// in-order strict-improvement scan moves the best — the per-phase
    /// win and improvement-delta instruments. The seeding result
    /// establishes the baseline without counting as a win, so the
    /// counters agree with the search's decisions at any `jobs` width.
    /// The same scan keeps the search's outcome: the seed's cycles, the
    /// best cycles, and the best since the strategy began with its finder.
    fn submit(&mut self, phase: &'static str, cands: &[TransformParams]) -> Vec<Option<u64>> {
        if cands.is_empty() {
            return Vec::new();
        }
        let allowed = self.allowance().min(cands.len() as u64) as usize;
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
                model: Some(&model),
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
        // The selection rule (in-order scan, strict improvement): the one
        // place a verified result can become a best.
        for (cand, res) in cands_in.iter().zip(results.iter()) {
            let Some(c) = *res else { continue };
            if phase == PHASE_SEED {
                self.seed_cycles.get_or_insert(c);
            }
            if self.found.as_ref().is_none_or(|f| c < f.1) {
                self.found = Some((cand.clone(), c, self.strategy));
            }
            match self.best_cycles {
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
            self.best_cycles = Some(c);
        }
        results.resize(cands.len(), None);
        results
    }
}

// ---------------------------------------------------------------------------
// Harness: drive a strategy through an EvalEngine
// ---------------------------------------------------------------------------

/// What became of a search's probe of a stored winner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The point compiled, passed the tester and was timed.
    Verified,
    /// The point failed: its record no longer holds.
    Refuted,
    /// The budget ran out before the probe: nothing is known.
    Cut,
}

/// Run `spec` over `subject` on an [`EvalEngine`]: the one entry point
/// every search goes through.
///
/// Everything a search needs to know about what it tunes comes from the
/// subject — the analysis report, machine, options and strategy seed, the
/// static cost model ([`Subject::predict`]) and the single-point
/// evaluator ([`Subject::evaluate`], hung off this function's root
/// `search` span). `stored` is the database's record for the subject's
/// key: its point is probed up front ([`probe_stored`]), and a verified
/// record ends the search there without running the strategy.
///
/// The result is the best point the strategy found, unless the stored
/// point or the seed before it was strictly better; `(off, u64::MAX)`
/// when nothing verified. The winner is credited to the probe that found
/// the result, a verified `WARM` probe to the record's own finder. The
/// probe's fate comes back beside the result.
pub(crate) fn run_search(
    subject: &Subject,
    engine: &EvalEngine,
    spec: StrategySpec,
    budget: Budget,
    stored: Option<&TunedRecord>,
) -> (SearchResult, Option<Probe>) {
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
        // Probes before the strategy's carry the label its own seed
        // would: the portfolio's is its first member's.
        strategy: match spec {
            StrategySpec::Portfolio => MEMBERS[0].name(),
            _ => spec.name(),
        },
        seed_cycles: None,
        best_cycles: None,
        found: None,
    };
    let probe = stored.map(|rec| probe_stored(&mut ctx, rec));
    let reg = engine.metrics();
    let (strategy, gains) = if probe == Some(Probe::Verified) {
        reg.counter(metrics::DB_WARM_HITS).inc();
        (STRATEGY_WARM, Vec::new())
    } else {
        let before = ctx.found.take();
        ctx.strategy = spec.name();
        let gains = spec.run(&mut ctx);
        if let Some(b) = before.filter(|b| b.1 < ctx.found_cycles()) {
            ctx.found = Some(b);
        }
        (spec.name(), gains)
    };
    let (best, best_cycles, finder) = ctx
        .found
        .unwrap_or_else(|| (TransformParams::off(), u64::MAX, spec.name()));
    let winner = match (finder, stored) {
        (STRATEGY_WARM, Some(rec)) if !rec.strategy.is_empty() => rec.strategy.clone(),
        _ => finder.to_string(),
    };
    reg.counter(&metrics::labeled(
        metrics::STRATEGY_WINS,
        "strategy",
        &winner,
    ))
    .inc();
    let result = SearchResult::new(
        (best, best_cycles),
        ctx.seed_cycles.unwrap_or(u64::MAX),
        gains,
        strategy,
        winner,
        ctx.tally,
    );
    (result, probe)
}

/// Probe a stored winner: seed the search (FKO's defaults, then the
/// untransformed point if they fail) under the running strategy's label,
/// then evaluate the record's point once under `WARM`. The seed keeps its
/// own label, so the result names the stored point's probe only when that
/// point won.
fn probe_stored(ctx: &mut SearchCtx<'_>, rec: &TunedRecord) -> Probe {
    global::seed(ctx);
    let (running, probes) = (ctx.strategy, ctx.probes);
    ctx.strategy = STRATEGY_WARM;
    let cycles = ctx.submit(PHASE_WARM, std::slice::from_ref(&rec.params))[0];
    ctx.strategy = running;
    match cycles {
        _ if ctx.probes == probes => Probe::Cut,
        Some(_) => Probe::Verified,
        None => Probe::Refuted,
    }
}

// ---------------------------------------------------------------------------
// The line search and the portfolio
// ---------------------------------------------------------------------------

/// The paper's modified line search (§2.3) as a strategy (the default).
/// Its skeleton submits every batch through the context, so its best
/// point is the context's too; only the per-phase gains are its own.
fn line(ctx: &mut SearchCtx<'_>) -> Vec<PhaseGain> {
    let (rep, machine, opts) = (ctx.rep(), ctx.machine(), ctx.opts());
    line_search_batched(rep, machine, opts, |phase, cands| ctx.submit(phase, cands)).gains
}

/// The portfolio's members, in racing order (the first runs first and
/// breaks ties).
const MEMBERS: [StrategySpec; 4] = [
    StrategySpec::Line,
    StrategySpec::Random,
    StrategySpec::HillClimb,
    StrategySpec::Anneal,
];

/// Minimum probe share a global member gets when the line search ran
/// without a budget (so members always get a real chance).
const MIN_MEMBER_PROBES: u64 = 64;

/// Race the [`MEMBERS`] under one budget, one cache, and one trace.
///
/// Members run sequentially over the *shared* evaluation cache, so a
/// point one member already paid for is a free cache hit for the next —
/// racing is about coverage, not redundancy. With a probe budget the
/// remaining allowance is split evenly across the members still to run
/// (later members inherit what earlier ones left unspent); without one,
/// the line search runs to its natural convergence and each global
/// member then gets a comparable number of probes. Each member's probes
/// are tagged with its name, so the context credits the member whose
/// probe first reached the winning cycles; the gains reported are the
/// line search's while no later member strictly beats it.
fn portfolio(ctx: &mut SearchCtx<'_>) -> Vec<PhaseGain> {
    let mut gains = Vec::new();
    let mut line_probes = MIN_MEMBER_PROBES;
    for (i, member) in MEMBERS.into_iter().enumerate() {
        if i > 0 && ctx.exhausted() {
            break;
        }
        let (probes, found) = (ctx.probes, ctx.found_cycles());
        // Even split of whatever is left over the members still to run;
        // unlimited budgets cap the global members at the line search's
        // own spend so the race is fair.
        let share = match ctx.remaining_probes() {
            Some(rem) => Some((rem / (MEMBERS.len() - i) as u64).max(2)),
            None if i > 0 => Some(line_probes.max(MIN_MEMBER_PROBES)),
            None => None,
        };
        ctx.strategy = member.name();
        ctx.cap = share.map(|s| probes.saturating_add(s));
        let member_gains = member.run(ctx);
        ctx.cap = None;
        if i == 0 {
            line_probes = ctx.probes - probes;
        }
        if i == 0 || ctx.found_cycles() < found {
            gains = member_gains;
        }
    }
    gains
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
        }
        assert_eq!(StrategySpec::parse("HC"), Ok(StrategySpec::HillClimb));
        assert_eq!(StrategySpec::parse("sa"), Ok(StrategySpec::Anneal));
        assert!(StrategySpec::parse("bayesian").is_err());
        assert_eq!(StrategySpec::default(), StrategySpec::Line);
    }
}
