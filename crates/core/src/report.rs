//! `ifko report`: offline analysis of search-trace JSONL files.
//!
//! A trace (written by `--trace PATH` anywhere in the workspace) records
//! every candidate evaluation and every pipeline span of a search. This
//! module re-reads one or more such files and condenses them into the
//! questions the paper's methodology keeps asking:
//!
//! * **Convergence** — how did the best-so-far improve, probe by probe,
//!   and which phase produced each improvement (paper Figure 7's
//!   decomposition, reconstructed from the trace alone)?
//! * **Time attribution** — where did the tuning wall-clock go
//!   (parse / xform / opt / regalloc / codegen / subcache / simulate /
//!   test / time), reconstructed from the span tree?
//! * **Cache effectiveness** — how many probes were answered by the
//!   evaluation cache or the pipeline's sub-candidate cache (the
//!   `subcache` stage rows), and roughly how much wall-clock that saved?
//! * **Winner hardware profile** — the simulator counters of the best
//!   point (L1/L2 miss ratios, cycles/element), from the exported
//!   [`RunStats`].
//!
//! The format's own reader does the parsing
//! ([`read_traces`], hand-rolled like the rest
//! of the workspace's JSON). Malformed lines are **skipped and
//! counted**, never fatal — a trace cut short by Ctrl-C must still
//! report.
//!
//! The fold over the events — the grouping into scopes (`by_scope`)
//! and the replay of the search's selection rule (`replay`) — is
//! shared with [`explain`](crate::explain), and both print their text,
//! Markdown and JSON through one document (`Doc`).

use crate::doc::{Col, Doc, Table};
use crate::eval::{EvalScope, Tally};
use crate::trace::{read_traces, EvalEvent, SearchEvent};
use ifko_xsim::RunStats;
use std::path::Path;

pub use crate::doc::ReportFormat;
pub use crate::json::{parse_json, Json};
// The trace reader is part of the trace format ([`crate::trace`]); the
// analyzer's callers keep finding it here.
pub use crate::trace::{parse_trace_line, read_trace, TraceData};

// ---------------------------------------------------------------------------
// The trace fold `report` and `explain` share
// ---------------------------------------------------------------------------

/// The row `is` picks out of `rows`, appended by `new` on first sight:
/// how every table of the fold keeps first-appearance order. The search
/// runs from the back, because a trace's events come in runs of one
/// scope and one phase.
pub(crate) fn entry<T>(
    rows: &mut Vec<T>,
    is: impl Fn(&T) -> bool,
    new: impl FnOnce() -> T,
) -> &mut T {
    let i = rows.iter().rposition(is).unwrap_or_else(|| {
        rows.push(new());
        rows.len() - 1
    });
    &mut rows[i]
}

/// The eval events of each scope in trace order, scopes in order of
/// first appearance.
pub(crate) fn by_scope(events: &[SearchEvent]) -> Vec<(&str, Vec<&EvalEvent>)> {
    let mut scopes: Vec<(&str, Vec<&EvalEvent>)> = Vec::new();
    for e in events.iter().filter_map(SearchEvent::as_eval) {
        entry(&mut scopes, |s| s.0 == e.scope, || (&e.scope, Vec::new()))
            .1
            .push(e);
    }
    scopes
}

/// A verified probe, as the search's selection rule sees it.
pub(crate) struct Measured<'a> {
    /// 0-based probe index within the scope.
    pub(crate) idx: usize,
    pub(crate) ev: &'a EvalEvent,
    pub(crate) cycles: u64,
    /// The best cycles before this probe; `None` for the first.
    pub(crate) before: Option<u64>,
}

impl Measured<'_> {
    /// Whether the probe became the best: the first verified probe seeds
    /// the baseline, and a later one must strictly improve on the best.
    pub(crate) fn wins(&self) -> bool {
        self.before.is_none_or(|b| self.cycles < b)
    }
}

/// Replay the search's selection rule over one scope's probes in order.
pub(crate) fn replay<'a>(evs: &[&'a EvalEvent]) -> Vec<Measured<'a>> {
    let mut best = None;
    let mut out = Vec::new();
    for (idx, ev) in evs.iter().enumerate() {
        let Some(cycles) = ev.cycles.filter(|_| ev.verified) else {
            continue;
        };
        let m = Measured {
            idx,
            ev,
            cycles,
            before: best,
        };
        if m.wins() {
            best = Some(cycles);
        }
        out.push(m);
    }
    out
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// One best-so-far improvement during a search.
#[derive(Clone, Debug)]
pub struct ConvPoint {
    /// 1-based probe index within the scope (file order).
    pub probe: u64,
    pub cycles: u64,
    pub phase: String,
}

/// Figure-7-style per-phase attribution: how many candidates the phase
/// swept, how many became a new best, and the multiplicative speedup its
/// wins contributed.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    pub phase: String,
    pub candidates: u64,
    pub wins: u64,
    pub speedup: f64,
}

/// Per-strategy attribution: probes submitted under each strategy tag
/// (portfolio racing tags each member's batches), the wins among them,
/// and the best cycles each strategy reached.
#[derive(Clone, Debug, Default)]
pub struct StrategyRow {
    pub strategy: String,
    pub probes: u64,
    pub fresh: u64,
    pub wins: u64,
    pub best_cycles: Option<u64>,
}

/// Per-worker attribution for pooled runs (`--workers N`): fresh
/// evaluations answered by each worker process and their wall-clock.
/// Empty for in-process traces.
#[derive(Clone, Debug, Default)]
pub struct WorkerRow {
    pub worker: u32,
    pub evals: u64,
    pub wall_us: u64,
}

/// Everything the trace says about one evaluation scope (one kernel on
/// one machine/context/size).
#[derive(Clone, Debug, Default)]
pub struct ScopeReport {
    pub scope: String,
    /// Problem size, parsed back out of the scope key.
    pub n: Option<u64>,
    pub probes: u64,
    /// What became of the probes, counted by the engine's own classifier
    /// ([`Tally::count`]): `evaluated` is the fresh evaluations, `pruned`
    /// the candidates pruned before compilation, and the chaos counters
    /// are 0 for fault-free traces.
    pub tally: Tally,
    pub first_cycles: Option<u64>,
    pub best_cycles: Option<u64>,
    pub best_params: Option<String>,
    pub convergence: Vec<ConvPoint>,
    pub phases: Vec<PhaseRow>,
    /// Per-strategy attribution, in first-appearance order (empty for
    /// traces recorded before strategy tagging).
    pub strategies: Vec<StrategyRow>,
    /// Strategy whose probe last improved the best (the search's winner
    /// attribution), when the trace carries strategy tags.
    pub winner_strategy: Option<String>,
    /// Simulator counters of the best point's verification run, if the
    /// winning evaluation was fresh (cache hits carry no stats).
    pub best_stats: Option<RunStats>,
    /// Total wall-clock of the fresh evaluations, microseconds.
    pub fresh_wall_us: u64,
    /// Per-worker attribution for pooled runs, sorted by worker id
    /// (completion order is nondeterministic; the sort keeps the report
    /// deterministic). Empty for in-process traces.
    pub workers: Vec<WorkerRow>,
}

impl ScopeReport {
    /// Total-search speedup: first (seed) cycles over best cycles.
    pub fn speedup(&self) -> f64 {
        match (self.first_cycles, self.best_cycles) {
            (Some(a), Some(b)) if b > 0 => a as f64 / b as f64,
            _ => 1.0,
        }
    }
    /// Mean wall-clock of one fresh evaluation, microseconds.
    pub fn mean_fresh_wall_us(&self) -> f64 {
        if self.tally.evaluated == 0 {
            0.0
        } else {
            self.fresh_wall_us as f64 / self.tally.evaluated as f64
        }
    }
    /// Estimated wall-clock the cache saved: hits × mean fresh cost.
    pub fn saved_wall_us_est(&self) -> f64 {
        self.tally.cache_hits as f64 * self.mean_fresh_wall_us()
    }
}

/// Aggregated wall-clock of one pipeline stage across the trace.
#[derive(Clone, Debug, Default)]
pub struct StageRow {
    pub stage: String,
    pub count: u64,
    pub total_us: u64,
}

/// The full analysis of one or more traces.
pub struct TraceReport {
    pub malformed: usize,
    pub scopes: Vec<ScopeReport>,
    /// Per-stage attribution, sorted by total time descending. Only
    /// *leaf-ish* stages are listed (container spans — `tune`, `search`,
    /// `eval`, `compile` — are excluded so the table sums to ~100% of
    /// attributed time rather than multiply counting nested spans).
    pub stages: Vec<StageRow>,
    /// Container spans, for reference (`tune`, `search`, `eval`, ...).
    pub containers: Vec<StageRow>,
}

impl TraceReport {
    /// `simulate` spans recorded against fresh evaluations across every
    /// scope: the one-simulation-per-candidate invariant, read back from
    /// the trace (the ratio is below 1 when candidates fail to compile,
    /// and 0 for evaluations made in worker processes, which do not
    /// trace). `None` when the trace carries no `simulate` spans.
    pub fn simulations_per_fresh_eval(&self) -> Option<(u64, u64)> {
        let sims = self.stages.iter().find(|r| r.stage == "simulate")?.count;
        let fresh = self.scopes.iter().map(|sc| sc.tally.evaluated as u64);
        Some((sims, fresh.sum()))
    }
}

/// Span stages that contain other spans rather than doing leaf work.
const CONTAINER_STAGES: &[&str] = &["tune", "search", "eval", "compile"];

/// Analyze decoded events (use [`read_trace`] to obtain them).
pub fn analyze(events: &[SearchEvent], malformed: usize) -> TraceReport {
    let (mut stages, mut containers) = (Vec::new(), Vec::new());
    for s in events.iter().filter_map(SearchEvent::as_span) {
        let rows = if CONTAINER_STAGES.contains(&s.stage.as_str()) {
            &mut containers
        } else {
            &mut stages
        };
        let new = || StageRow {
            stage: s.stage.clone(),
            ..Default::default()
        };
        let row = entry(rows, |r: &StageRow| r.stage == s.stage, new);
        row.count += 1;
        row.total_us = row.total_us.saturating_add(s.wall_us);
    }
    for rows in [&mut stages, &mut containers] {
        rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stage.cmp(&b.stage)));
    }
    TraceReport {
        malformed,
        scopes: by_scope(events)
            .iter()
            .map(|(scope, evs)| analyze_scope(scope, evs))
            .collect(),
        stages,
        containers,
    }
}

fn analyze_scope(scope: &str, evs: &[&EvalEvent]) -> ScopeReport {
    let mut rep = ScopeReport {
        scope: scope.to_string(),
        n: EvalScope::parse(scope).map(|s| s.n as u64),
        probes: evs.len() as u64,
        ..Default::default()
    };
    for e in evs {
        let evaluated_before = rep.tally.evaluated;
        rep.tally.count(&e.facts());
        let fresh = rep.tally.evaluated > evaluated_before;
        if fresh {
            rep.fresh_wall_us = rep.fresh_wall_us.saturating_add(e.wall_us);
        }
        if let Some(w) = e.worker {
            let new = || WorkerRow {
                worker: w,
                ..Default::default()
            };
            let row = entry(&mut rep.workers, |r| r.worker == w, new);
            row.evals += 1;
            row.wall_us = row.wall_us.saturating_add(e.wall_us);
        }
        let new = || PhaseRow {
            phase: e.phase.clone(),
            candidates: 0,
            wins: 0,
            speedup: 1.0,
        };
        entry(&mut rep.phases, |r| r.phase == e.phase, new).candidates += 1;
        if !e.strategy.is_empty() {
            let new = || StrategyRow {
                strategy: e.strategy.clone(),
                ..Default::default()
            };
            let row = entry(&mut rep.strategies, |r| r.strategy == e.strategy, new);
            row.probes += 1;
            row.fresh += fresh as u64;
            if let Some(c) = e.cycles {
                if row.best_cycles.is_none_or(|b| c < b) {
                    row.best_cycles = Some(c);
                }
            }
        }
    }
    rep.workers.sort_by_key(|r| r.worker);

    for m in replay(evs).iter().filter(|m| m.wins()) {
        let (e, c) = (m.ev, m.cycles);
        match m.before {
            None => rep.first_cycles = Some(c),
            Some(b) => {
                if let Some(row) = rep.phases.iter_mut().find(|r| r.phase == e.phase) {
                    row.wins += 1;
                    row.speedup *= b as f64 / c as f64;
                }
            }
        }
        if let Some(row) = rep.strategies.iter_mut().find(|r| r.strategy == e.strategy) {
            row.wins += 1;
            rep.winner_strategy = Some(e.strategy.clone());
        }
        rep.best_cycles = Some(c);
        rep.best_params = Some(e.params.clone());
        rep.best_stats = e.stats;
        rep.convergence.push(ConvPoint {
            probe: m.idx as u64 + 1,
            cycles: c,
            phase: e.phase.clone(),
        });
    }
    rep
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Deterministic float formatting shared by all renderers.
pub(crate) fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Render a report in the chosen format. Output is deterministic for a
/// given trace (floats fixed to 4 decimals, stable orderings), so every
/// format is golden-testable.
pub fn render(rep: &TraceReport, format: ReportFormat) -> String {
    doc(rep).render(format)
}

// The report's tables.
#[rustfmt::skip]
const PHASES: &[Col] = &[
    Col::left("phase", 12), Col::right("cands", 5), Col::right("wins", 5), Col::left("speedup", 0).gap(2),
];
#[rustfmt::skip]
const STRATEGIES: &[Col] = &[
    Col::left("strategy", 12), Col::right("probes", 6), Col::right("fresh", 5), Col::right("wins", 5),
    Col::right("best", 8),
];
#[rustfmt::skip]
const WORKERS: &[Col] = &[Col::left("worker", 12), Col::right("evals", 6), Col::right("wall_us", 10)];
#[rustfmt::skip]
const STAGES: &[Col] = &[
    Col::left("stage", 12), Col::right("count", 5), Col::right("total_us", 10), Col::right("%", 5).gap(2),
];

/// The report's one document.
fn doc(rep: &TraceReport) -> Doc {
    let mut d = Doc::default();
    for sc in &rep.scopes {
        let t = sc.tally;
        d.heading(&sc.scope);
        d.line(format!(
            "probes {} (fresh {}, cache hits {}, rejected {}, pruned {})",
            sc.probes, t.evaluated, t.cache_hits, t.rejected, t.pruned
        ));
        if t.retries + t.faults + t.outliers + t.failed > 0 {
            d.line(format!(
                "chaos: {} retries, {} faults injected, {} outliers rejected, {} failed",
                t.retries, t.faults, t.outliers, t.failed
            ));
        }
        if let (Some(a), Some(b)) = (sc.first_cycles, sc.best_cycles) {
            d.line(format!(
                "cycles {a} -> {b}  (speedup {}x)",
                f4(sc.speedup())
            ));
        }
        if let Some(p) = &sc.best_params {
            d.line(format!("best {p}"));
        }
        let mut phases = Table::new(PHASES);
        for ph in &sc.phases {
            phases.row(&[&ph.phase, &ph.candidates, &ph.wins, &f4(ph.speedup)]);
        }
        d.table(phases);
        if !sc.strategies.is_empty() {
            let mut strategies = Table::new(STRATEGIES);
            for st in &sc.strategies {
                let best = st.best_cycles.map_or("-".to_string(), |c| c.to_string());
                strategies.row(&[&st.strategy, &st.probes, &st.fresh, &st.wins, &best]);
            }
            d.table(strategies);
            if let Some(w) = &sc.winner_strategy {
                d.line(format!("winner strategy: {w}"));
            }
        }
        if !sc.workers.is_empty() {
            let mut workers = Table::new(WORKERS);
            for wr in &sc.workers {
                workers.row(&[&format!("w{}", wr.worker), &wr.evals, &wr.wall_us]);
            }
            d.table(workers);
        }
        if !sc.convergence.is_empty() {
            let points: String = sc
                .convergence
                .iter()
                .map(|c| format!(" {}:{}@{}", c.probe, c.cycles, c.phase))
                .collect();
            d.line(format!("convergence (probe: cycles @phase):{points}"));
        }
        if let Some(st) = &sc.best_stats {
            let mut hw = format!(
                "winner hw: insts {}  L1 miss {}  L2 miss {}  bus rd/wr {}/{} B",
                st.insts,
                f4(st.l1_miss_ratio()),
                f4(st.l2_miss_ratio()),
                st.bus_read_bytes,
                st.bus_write_bytes
            );
            if let Some(n) = sc.n {
                hw += &format!("  cyc/elem {}", f4(st.cycles_per_elem(n)));
            }
            d.line(hw);
        }
        d.line(format!(
            "cache: {} hits, ~{} us saved (mean fresh eval {} us)",
            t.cache_hits,
            f4(sc.saved_wall_us_est()),
            f4(sc.mean_fresh_wall_us())
        ));
        d.line("");
    }

    if !rep.stages.is_empty() {
        let total = rep
            .stages
            .iter()
            .map(|r| r.total_us)
            .fold(0, u64::saturating_add);
        d.heading("stage time attribution");
        let mut stages = Table::new(STAGES);
        for row in &rep.stages {
            let pct = row.total_us as f64 * 100.0 / total.max(1) as f64;
            stages.row(&[&row.stage, &row.count, &row.total_us, &format!("{pct:.1}")]);
        }
        d.table(stages);
        if let Some(sub) = rep.stages.iter().find(|r| r.stage == "subcache") {
            d.line(format!(
                "pipeline sub-candidate cache: {} hits (probe cost {} us)",
                sub.count, sub.total_us
            ));
        }
        if let Some((sims, fresh)) = rep.simulations_per_fresh_eval() {
            let ratio = f4(sims as f64 / fresh.max(1) as f64);
            d.line(format!(
                "simulations / fresh eval: {sims} / {fresh} = {ratio}"
            ));
        }
    }
    if rep.malformed > 0 {
        d.line(format!("({} malformed lines skipped)", rep.malformed));
    }
    d
}

/// Convenience: read, merge, analyze, and render trace files.
pub fn report_files(paths: &[impl AsRef<Path>], format: ReportFormat) -> std::io::Result<String> {
    let data = read_traces(paths)?;
    Ok(render(&analyze(&data.events, data.malformed), format))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_stats, stats_json, SpanEvent};

    const FORMATS: [ReportFormat; 3] = [
        ReportFormat::Text,
        ReportFormat::Json,
        ReportFormat::Markdown,
    ];

    /// Writer (`stats_json`) and reader (`parse_stats`) iterate
    /// the same `RunStats::FIELDS` table, so any counter vector must
    /// survive a serialize → parse round trip bit-exactly.
    #[test]
    fn stats_json_round_trips_through_field_table() {
        let mut s = RunStats::default();
        for (i, (_, _, set)) in RunStats::FIELDS.iter().enumerate() {
            set(&mut s, (i as u64 + 1) * 1009);
        }
        let j = stats_json(&s);
        let v = parse_json(&j).unwrap();
        assert_eq!(parse_stats(&v).ok(), Some(s));
        // Older traces may omit counters (default 0) but never `cycles`.
        let minimal = parse_json(r#"{"cycles":7}"#).unwrap();
        assert_eq!(parse_stats(&minimal).unwrap().cycles, 7);
        assert!(parse_stats(&parse_json(r#"{"insts":7}"#).unwrap()).is_err());
    }

    #[test]
    fn json_parser_round_trips_event_shapes() {
        let v = parse_json(r#"{"a":1,"b":[true,null,"x\"y"],"c":{"d":-2.5}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Num(-2.5)));
        match v.get("b").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Bool(true));
                assert_eq!(items[1], Json::Null);
                assert_eq!(items[2], Json::Str("x\"y".into()));
            }
            _ => panic!("b must be an array"),
        }
        assert!(parse_json("{\"a\":}").is_none());
        assert!(parse_json("{} trailing").is_none());
    }

    #[test]
    fn trace_lines_decode_both_kinds() {
        let ev = parse_trace_line(
            r#"{"scope":"s","phase":"UR","params":"p","cycles":7,"verified":true,"cache_hit":false,"wall_us":3}"#,
        )
        .unwrap();
        let e = ev.as_eval().unwrap();
        assert_eq!(e.cycles, Some(7));
        assert!(e.stats.is_none());
        assert_eq!(e.predicted, None, "pre-model traces decode without it");

        let ev = parse_trace_line(
            r#"{"scope":"s","phase":"UR","params":"p","cycles":7,"verified":true,"cache_hit":false,"wall_us":3,"predicted":1234}"#,
        )
        .unwrap();
        assert_eq!(ev.as_eval().unwrap().predicted, Some(1234));

        let ev = parse_trace_line(
            r#"{"scope":"s","phase":"UR","params":"p","cycles":null,"verified":false,"cache_hit":false,"wall_us":3,"stats":{"cycles":9,"insts":4}}"#,
        )
        .unwrap();
        let e = ev.as_eval().unwrap();
        assert_eq!(e.cycles, None);
        assert_eq!(e.stats.unwrap().insts, 4);

        let sp =
            parse_trace_line(r#"{"span":"simulate","scope":"s","id":4,"parent":2,"wall_us":99}"#)
                .unwrap();
        let sp = sp.as_span().unwrap();
        assert_eq!(sp.stage, "simulate");
        assert_eq!(sp.parent, Some(2));

        assert!(parse_trace_line("not json").is_none());
        assert!(parse_trace_line(r#"{"scope":"s"}"#).is_none());
    }

    fn eval(phase: &str, cycles: Option<u64>, hit: bool) -> SearchEvent {
        SearchEvent::Eval(EvalEvent {
            scope: "k@m/oc/n100/s0/r1i0s0".into(),
            phase: phase.into(),
            params: format!("P{cycles:?}"),
            cycles,
            verified: cycles.is_some(),
            cache_hit: hit,
            wall_us: if hit { 0 } else { 10 },
            stats: cycles.map(|c| RunStats {
                cycles: c,
                insts: 5,
                l1_hits: 3,
                l1_misses: 1,
                ..Default::default()
            }),
            predicted: None,
            pruned: None,
            retries: 0,
            faults: 0,
            outliers: 0,
            failed: false,
            strategy: "line".into(),
            worker: if hit { None } else { Some(0) },
        })
    }

    #[test]
    fn analysis_replays_the_selection_rule() {
        let events = vec![
            eval("SEED", Some(100), false),
            eval("UR", Some(120), false), // worse: no win
            eval("UR", Some(80), false),  // win
            eval("UR", Some(80), true),   // tie via cache: no win
            eval("AE", None, false),      // rejected
            eval("AE", Some(60), false),  // win
        ];
        let rep = analyze(&events, 1);
        assert_eq!(rep.malformed, 1);
        assert_eq!(rep.scopes.len(), 1);
        let sc = &rep.scopes[0];
        assert_eq!(sc.n, Some(100));
        assert_eq!(
            (
                sc.probes,
                sc.tally.evaluated,
                sc.tally.cache_hits,
                sc.tally.rejected
            ),
            (6, 5, 1, 1)
        );
        assert_eq!(sc.first_cycles, Some(100));
        assert_eq!(sc.best_cycles, Some(60));
        assert_eq!(sc.convergence.len(), 3); // seed, 80, 60
        let ur = sc.phases.iter().find(|p| p.phase == "UR").unwrap();
        assert_eq!((ur.candidates, ur.wins), (3, 1));
        assert!((ur.speedup - 100.0 / 80.0).abs() < 1e-12);
        let total: f64 = sc.phases.iter().map(|p| p.speedup).product();
        assert!(
            (total - sc.speedup()).abs() < 1e-12,
            "phase speedups compose"
        );
        assert_eq!(sc.best_stats.unwrap().cycles, 60);
    }

    #[test]
    fn an_old_model_rank_prune_counts_as_pruned() {
        // Traces written while cost-model pruning existed may carry
        // `"pruned":"model-rank"`: such a probe counts as pruned like a
        // legality prune, and the report renders no line of its own.
        let mut cut = eval("UR", None, false);
        if let SearchEvent::Eval(e) = &mut cut {
            e.pruned = Some("model-rank".to_string());
        }
        let mut illegal = eval("UR", None, false);
        if let SearchEvent::Eval(e) = &mut illegal {
            e.pruned = Some("simd-unsupported".to_string());
        }
        let events = vec![eval("SEED", Some(100), false), cut, illegal];
        let rep = analyze(&events, 0);
        let sc = &rep.scopes[0];
        assert_eq!((sc.probes, sc.tally.evaluated, sc.tally.pruned), (3, 1, 2));
        for fmt in FORMATS {
            assert!(!render(&rep, fmt).contains("model"), "{fmt:?}");
        }
    }

    #[test]
    fn stage_attribution_separates_containers() {
        let span = |stage: &str, id, parent, us| {
            SearchEvent::Span(SpanEvent {
                scope: "s".into(),
                stage: stage.into(),
                id,
                parent,
                wall_us: us,
            })
        };
        let events = vec![
            span("eval", 1, None, 100),
            span("simulate", 2, Some(1), 60),
            span("codegen", 3, Some(1), 30),
            span("simulate", 4, Some(1), 40),
        ];
        let rep = analyze(&events, 0);
        assert_eq!(rep.stages[0].stage, "simulate");
        assert_eq!(rep.stages[0].total_us, 100);
        assert_eq!(rep.stages[0].count, 2);
        assert_eq!(rep.containers.len(), 1);
        assert_eq!(rep.containers[0].stage, "eval");
    }

    #[test]
    fn simulations_per_fresh_eval_is_read_back_from_the_trace() {
        let sim = |id| {
            SearchEvent::Span(SpanEvent {
                scope: "s".into(),
                stage: "simulate".into(),
                id,
                parent: None,
                wall_us: 5,
            })
        };
        // Two fresh evaluations, one cache hit, two simulations.
        let mut events = vec![eval("SEED", Some(100), false), eval("UR", Some(50), false)];
        events.push(eval("UR", Some(50), true));
        assert_eq!(analyze(&events, 0).simulations_per_fresh_eval(), None);
        events.extend([sim(1), sim(2)]);
        let rep = analyze(&events, 0);
        assert_eq!(rep.simulations_per_fresh_eval(), Some((2, 2)));
        let line = "simulations / fresh eval: 2 / 2 = 1.0000";
        for fmt in FORMATS {
            assert!(render(&rep, fmt).contains(line), "{fmt:?}");
        }
    }

    #[test]
    fn renderers_are_deterministic_and_well_formed() {
        let events = vec![eval("SEED", Some(100), false), eval("UR", Some(50), false)];
        let rep = analyze(&events, 0);
        for fmt in FORMATS {
            assert_eq!(render(&rep, fmt), render(&analyze(&events, 0), fmt));
        }
        let json = render(&rep, ReportFormat::Json);
        assert!(parse_json(&json).is_some(), "bad report json: {json}");
        let ur = r#"{"phase":"UR","cands":"1","wins":"1","speedup":"2.0000"}"#;
        assert!(json.contains(ur), "{json}");
        let text = render(&rep, ReportFormat::Text);
        assert!(text.contains("speedup 2.0000x"));
        let md = render(&rep, ReportFormat::Markdown);
        assert!(md.contains("| UR | 1 | 1 | 2.0000 |"));
    }
}
