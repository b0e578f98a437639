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
//! ([`read_trace`](crate::trace::read_trace), hand-rolled like the rest
//! of the workspace's JSON). Malformed lines are **skipped and
//! counted**, never fatal — a trace cut short by Ctrl-C must still
//! report.

use crate::eval::Tally;
use crate::json::esc;
use crate::trace::{EvalEvent, SearchEvent};
use ifko_xsim::RunStats;
use std::collections::HashMap;
use std::path::Path;

pub use crate::json::{parse_json, Json};
// The trace reader is part of the trace format ([`crate::trace`]); the
// analyzer's callers keep finding it here.
pub use crate::trace::{parse_trace_line, read_trace, TraceData};

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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
pub struct WorkerRow {
    pub worker: u32,
    pub evals: u64,
    pub wall_us: u64,
}

/// Everything the trace says about one evaluation scope (one kernel on
/// one machine/context/size).
#[derive(Clone, Debug)]
pub struct ScopeReport {
    pub scope: String,
    /// Problem size, parsed back out of the scope key.
    pub n: Option<u64>,
    pub probes: u64,
    /// What became of the probes, counted by the engine's own classifier
    /// ([`Tally::count`]): `evaluated` is the fresh evaluations, `pruned`
    /// covers the legality precheck plus the cost-model cut
    /// (`model_pruned` is the model's share; 0 for model-free traces), and
    /// the chaos counters are 0 for fault-free traces.
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
#[derive(Clone, Debug)]
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

    /// The text and Markdown renderers' line for that pair.
    fn simulations_line(&self) -> Option<String> {
        let (sims, fresh) = self.simulations_per_fresh_eval()?;
        let ratio = f4(sims as f64 / fresh.max(1) as f64);
        Some(format!(
            "simulations / fresh eval: {sims} / {fresh} = {ratio}\n"
        ))
    }
}

/// Span stages that contain other spans rather than doing leaf work.
const CONTAINER_STAGES: &[&str] = &["tune", "search", "eval", "compile"];

/// Analyze decoded events (use [`read_trace`] to obtain them).
pub fn analyze(events: &[SearchEvent], malformed: usize) -> TraceReport {
    let mut order: Vec<String> = Vec::new();
    let mut by_scope: HashMap<String, Vec<&EvalEvent>> = HashMap::new();
    let mut stage_map: HashMap<String, (u64, u64)> = HashMap::new();
    for ev in events {
        match ev {
            SearchEvent::Eval(e) => {
                if !by_scope.contains_key(&e.scope) {
                    order.push(e.scope.clone());
                }
                by_scope.entry(e.scope.clone()).or_default().push(e);
            }
            SearchEvent::Span(s) => {
                let entry = stage_map.entry(s.stage.clone()).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += s.wall_us;
            }
        }
    }

    let scopes = order
        .iter()
        .map(|scope| analyze_scope(scope, &by_scope[scope]))
        .collect();

    let mut stages: Vec<StageRow> = Vec::new();
    let mut containers: Vec<StageRow> = Vec::new();
    for (stage, (count, total_us)) in stage_map {
        let row = StageRow {
            stage,
            count,
            total_us,
        };
        if CONTAINER_STAGES.contains(&row.stage.as_str()) {
            containers.push(row);
        } else {
            stages.push(row);
        }
    }
    stages.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stage.cmp(&b.stage)));
    containers.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stage.cmp(&b.stage)));

    TraceReport {
        malformed,
        scopes,
        stages,
        containers,
    }
}

fn analyze_scope(scope: &str, evs: &[&EvalEvent]) -> ScopeReport {
    let mut rep = ScopeReport {
        scope: scope.to_string(),
        n: scope_n(scope),
        probes: evs.len() as u64,
        tally: Tally::default(),
        first_cycles: None,
        best_cycles: None,
        best_params: None,
        convergence: Vec::new(),
        phases: Vec::new(),
        strategies: Vec::new(),
        winner_strategy: None,
        best_stats: None,
        fresh_wall_us: 0,
        workers: Vec::new(),
    };
    let mut worker_map: HashMap<u32, WorkerRow> = HashMap::new();
    let mut phase_order: Vec<String> = Vec::new();
    let mut phase_map: HashMap<String, PhaseRow> = HashMap::new();
    let mut strat_order: Vec<String> = Vec::new();
    let mut strat_map: HashMap<String, StrategyRow> = HashMap::new();
    let mut best: Option<u64> = None;
    for (idx, e) in evs.iter().enumerate() {
        let evaluated_before = rep.tally.evaluated;
        rep.tally.count(&e.facts());
        let fresh = rep.tally.evaluated > evaluated_before;
        if fresh {
            rep.fresh_wall_us += e.wall_us;
        }
        if let Some(w) = e.worker {
            let row = worker_map.entry(w).or_insert(WorkerRow {
                worker: w,
                evals: 0,
                wall_us: 0,
            });
            row.evals += 1;
            row.wall_us += e.wall_us;
        }
        if !phase_map.contains_key(&e.phase) {
            phase_order.push(e.phase.clone());
            phase_map.insert(
                e.phase.clone(),
                PhaseRow {
                    phase: e.phase.clone(),
                    candidates: 0,
                    wins: 0,
                    speedup: 1.0,
                },
            );
        }
        let row = phase_map.get_mut(&e.phase).unwrap();
        row.candidates += 1;
        if !e.strategy.is_empty() {
            if !strat_map.contains_key(&e.strategy) {
                strat_order.push(e.strategy.clone());
                strat_map.insert(
                    e.strategy.clone(),
                    StrategyRow {
                        strategy: e.strategy.clone(),
                        probes: 0,
                        fresh: 0,
                        wins: 0,
                        best_cycles: None,
                    },
                );
            }
            let srow = strat_map.get_mut(&e.strategy).unwrap();
            srow.probes += 1;
            srow.fresh += fresh as u64;
            if let Some(c) = e.cycles {
                if srow.best_cycles.is_none_or(|b| c < b) {
                    srow.best_cycles = Some(c);
                }
            }
        }
        // Replay the search's selection rule: in-order scan, strict
        // improvement; the first verified probe seeds the baseline.
        if let Some(c) = e.cycles {
            let won = match best {
                None => {
                    rep.first_cycles = Some(c);
                    true
                }
                Some(b) if c < b => {
                    row.wins += 1;
                    row.speedup *= b as f64 / c as f64;
                    true
                }
                Some(_) => false,
            };
            if won {
                best = Some(c);
                if !e.strategy.is_empty() {
                    strat_map.get_mut(&e.strategy).unwrap().wins += 1;
                    rep.winner_strategy = Some(e.strategy.clone());
                }
                rep.best_params = Some(e.params.clone());
                rep.best_stats = e.stats;
                rep.convergence.push(ConvPoint {
                    probe: idx as u64 + 1,
                    cycles: c,
                    phase: e.phase.clone(),
                });
            }
        }
    }
    rep.best_cycles = best;
    rep.phases = phase_order
        .into_iter()
        .map(|p| phase_map.remove(&p).unwrap())
        .collect();
    rep.strategies = strat_order
        .into_iter()
        .map(|p| strat_map.remove(&p).unwrap())
        .collect();
    rep.workers = {
        let mut rows: Vec<WorkerRow> = worker_map.into_values().collect();
        rows.sort_by_key(|r| r.worker);
        rows
    };
    rep
}

/// Parse the problem size back out of a scope key
/// (`kernel@machine/ctx/n{N}/s{seed}/timer`).
pub(crate) fn scope_n(scope: &str) -> Option<u64> {
    scope.split('/').find_map(|part| {
        part.strip_prefix('n')
            .and_then(|digits| digits.parse::<u64>().ok())
    })
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Output format of [`render`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportFormat {
    Text,
    Json,
    Markdown,
}

impl ReportFormat {
    pub fn parse(s: &str) -> Option<ReportFormat> {
        match s {
            "text" => Some(ReportFormat::Text),
            "json" => Some(ReportFormat::Json),
            "md" | "markdown" => Some(ReportFormat::Markdown),
            _ => None,
        }
    }
}

/// Deterministic float formatting shared by all renderers.
pub(crate) fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Render a report in the chosen format. Output is deterministic for a
/// given trace (floats fixed to 4 decimals, stable orderings), so the
/// JSON form is golden-testable.
pub fn render(rep: &TraceReport, format: ReportFormat) -> String {
    match format {
        ReportFormat::Text => render_text(rep),
        ReportFormat::Json => render_json(rep),
        ReportFormat::Markdown => render_md(rep),
    }
}

fn render_text(rep: &TraceReport) -> String {
    let mut s = String::new();
    for sc in &rep.scopes {
        let t = sc.tally;
        s.push_str(&format!("== {} ==\n", sc.scope));
        s.push_str(&format!(
            "probes {} (fresh {}, cache hits {}, rejected {}, pruned {})\n",
            sc.probes, t.evaluated, t.cache_hits, t.rejected, t.pruned
        ));
        if t.model_pruned > 0 {
            s.push_str(&format!(
                "cost model pruned {} of {} candidates before compile\n",
                t.model_pruned, sc.probes
            ));
        }
        if t.retries + t.faults + t.outliers + t.failed > 0 {
            s.push_str(&format!(
                "chaos: {} retries, {} faults injected, {} outliers rejected, {} failed\n",
                t.retries, t.faults, t.outliers, t.failed
            ));
        }
        if let (Some(a), Some(b)) = (sc.first_cycles, sc.best_cycles) {
            s.push_str(&format!(
                "cycles {a} -> {b}  (speedup {}x)\n",
                f4(sc.speedup())
            ));
        }
        if let Some(p) = &sc.best_params {
            s.push_str(&format!("best {p}\n"));
        }
        s.push_str("phase        cands  wins  speedup\n");
        for ph in &sc.phases {
            s.push_str(&format!(
                "{:<12} {:>5} {:>5}  {}\n",
                ph.phase,
                ph.candidates,
                ph.wins,
                f4(ph.speedup)
            ));
        }
        if !sc.strategies.is_empty() {
            s.push_str("strategy     probes fresh  wins     best\n");
            for st in &sc.strategies {
                s.push_str(&format!(
                    "{:<12} {:>6} {:>5} {:>5} {:>8}\n",
                    st.strategy,
                    st.probes,
                    st.fresh,
                    st.wins,
                    st.best_cycles.map_or("-".to_string(), |c| c.to_string())
                ));
            }
            if let Some(w) = &sc.winner_strategy {
                s.push_str(&format!("winner strategy: {w}\n"));
            }
        }
        if !sc.workers.is_empty() {
            s.push_str("worker        evals    wall_us\n");
            for wr in &sc.workers {
                s.push_str(&format!(
                    "{:<12} {:>6} {:>10}\n",
                    format!("w{}", wr.worker),
                    wr.evals,
                    wr.wall_us
                ));
            }
        }
        if !sc.convergence.is_empty() {
            s.push_str("convergence (probe: cycles @phase):");
            for c in &sc.convergence {
                s.push_str(&format!(" {}:{}@{}", c.probe, c.cycles, c.phase));
            }
            s.push('\n');
        }
        if let Some(st) = &sc.best_stats {
            s.push_str(&format!(
                "winner hw: insts {}  L1 miss {}  L2 miss {}  bus rd/wr {}/{} B",
                st.insts,
                f4(st.l1_miss_ratio()),
                f4(st.l2_miss_ratio()),
                st.bus_read_bytes,
                st.bus_write_bytes
            ));
            if let Some(n) = sc.n {
                s.push_str(&format!("  cyc/elem {}", f4(st.cycles_per_elem(n))));
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "cache: {} hits, ~{} us saved (mean fresh eval {} us)\n\n",
            t.cache_hits,
            f4(sc.saved_wall_us_est()),
            f4(sc.mean_fresh_wall_us())
        ));
    }

    if !rep.stages.is_empty() {
        let total: u64 = rep.stages.iter().map(|r| r.total_us).sum();
        s.push_str("== stage time attribution ==\n");
        s.push_str("stage        count   total_us      %\n");
        for row in &rep.stages {
            let pct = if total == 0 {
                0.0
            } else {
                row.total_us as f64 * 100.0 / total as f64
            };
            s.push_str(&format!(
                "{:<12} {:>5} {:>10}  {:>5}\n",
                row.stage,
                row.count,
                row.total_us,
                format!("{pct:.1}")
            ));
        }
        if let Some(sub) = rep.stages.iter().find(|r| r.stage == "subcache") {
            s.push_str(&format!(
                "pipeline sub-candidate cache: {} hits (probe cost {} us)\n",
                sub.count, sub.total_us
            ));
        }
        s.push_str(&rep.simulations_line().unwrap_or_default());
    }
    if rep.malformed > 0 {
        s.push_str(&format!("({} malformed lines skipped)\n", rep.malformed));
    }
    s
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", esc(s))
}

fn render_json(rep: &TraceReport) -> String {
    let mut s = String::from("{");
    s.push_str(&format!("\"malformed\":{},", rep.malformed));
    s.push_str("\"scopes\":[");
    for (i, sc) in rep.scopes.iter().enumerate() {
        let t = sc.tally;
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"scope\":{},\"probes\":{},\"fresh\":{},\"cache_hits\":{},\"rejected\":{},\"pruned\":{}",
            jstr(&sc.scope),
            sc.probes,
            t.evaluated,
            t.cache_hits,
            t.rejected,
            t.pruned
        ));
        // Model-era field: present only when the cost model cut something,
        // so reports over model-free traces stay byte-identical.
        if t.model_pruned > 0 {
            s.push_str(&format!(",\"model_pruned\":{}", t.model_pruned));
        }
        s.push_str(&format!(
            ",\"retries\":{},\"faults\":{},\"outliers\":{},\"failed\":{}",
            t.retries, t.faults, t.outliers, t.failed
        ));
        s.push_str(&format!(
            ",\"first_cycles\":{},\"best_cycles\":{},\"speedup\":{}",
            opt_u64(sc.first_cycles),
            opt_u64(sc.best_cycles),
            f4(sc.speedup())
        ));
        if let Some(p) = &sc.best_params {
            s.push_str(&format!(",\"best_params\":{}", jstr(p)));
        }
        s.push_str(",\"phases\":[");
        for (j, ph) in sc.phases.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"phase\":{},\"candidates\":{},\"wins\":{},\"speedup\":{}}}",
                jstr(&ph.phase),
                ph.candidates,
                ph.wins,
                f4(ph.speedup)
            ));
        }
        s.push_str("],\"strategies\":[");
        for (j, st) in sc.strategies.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"strategy\":{},\"probes\":{},\"fresh\":{},\"wins\":{},\"best_cycles\":{}}}",
                jstr(&st.strategy),
                st.probes,
                st.fresh,
                st.wins,
                opt_u64(st.best_cycles)
            ));
        }
        s.push(']');
        if let Some(w) = &sc.winner_strategy {
            s.push_str(&format!(",\"winner_strategy\":{}", jstr(w)));
        }
        // Worker-pool attribution: present only for pooled traces, so
        // reports over in-process traces stay byte-identical.
        if !sc.workers.is_empty() {
            s.push_str(",\"workers\":[");
            for (j, wr) in sc.workers.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"worker\":{},\"evals\":{},\"wall_us\":{}}}",
                    wr.worker, wr.evals, wr.wall_us
                ));
            }
            s.push(']');
        }
        s.push_str(",\"convergence\":[");
        for (j, c) in sc.convergence.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"probe\":{},\"cycles\":{},\"phase\":{}}}",
                c.probe,
                c.cycles,
                jstr(&c.phase)
            ));
        }
        s.push(']');
        if let Some(st) = &sc.best_stats {
            s.push_str(&format!(
                ",\"winner\":{{\"insts\":{},\"l1_miss_ratio\":{},\"l2_miss_ratio\":{},\"bus_read_bytes\":{},\"bus_write_bytes\":{}",
                st.insts,
                f4(st.l1_miss_ratio()),
                f4(st.l2_miss_ratio()),
                st.bus_read_bytes,
                st.bus_write_bytes
            ));
            if let Some(n) = sc.n {
                s.push_str(&format!(
                    ",\"cycles_per_elem\":{}",
                    f4(st.cycles_per_elem(n))
                ));
            }
            s.push('}');
        }
        s.push_str(&format!(
            ",\"saved_wall_us_est\":{}}}",
            f4(sc.saved_wall_us_est())
        ));
    }
    s.push_str("],\"stages\":[");
    for (i, row) in rep.stages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"stage\":{},\"count\":{},\"total_us\":{}}}",
            jstr(&row.stage),
            row.count,
            row.total_us
        ));
    }
    s.push_str("]}");
    s
}

fn render_md(rep: &TraceReport) -> String {
    let mut s = String::new();
    for sc in &rep.scopes {
        let t = sc.tally;
        s.push_str(&format!("## `{}`\n\n", sc.scope));
        s.push_str(&format!(
            "{} probes — {} fresh, {} cache hits, {} rejected, {} pruned; ",
            sc.probes, t.evaluated, t.cache_hits, t.rejected, t.pruned
        ));
        if t.model_pruned > 0 {
            s.push_str(&format!("{} model-pruned; ", t.model_pruned));
        }
        if t.retries + t.faults + t.outliers + t.failed > 0 {
            s.push_str(&format!(
                "chaos: {} retries, {} faults, {} outliers, {} failed; ",
                t.retries, t.faults, t.outliers, t.failed
            ));
        }
        if let (Some(a), Some(b)) = (sc.first_cycles, sc.best_cycles) {
            s.push_str(&format!("{a} → {b} cycles (**{}×**)", f4(sc.speedup())));
        }
        s.push_str("\n\n| phase | candidates | wins | speedup |\n|---|---|---|---|\n");
        for ph in &sc.phases {
            s.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                ph.phase,
                ph.candidates,
                ph.wins,
                f4(ph.speedup)
            ));
        }
        if !sc.strategies.is_empty() {
            s.push_str("\n| strategy | probes | fresh | wins | best |\n|---|---|---|---|---|\n");
            for st in &sc.strategies {
                s.push_str(&format!(
                    "| {} | {} | {} | {} | {} |\n",
                    st.strategy,
                    st.probes,
                    st.fresh,
                    st.wins,
                    st.best_cycles.map_or("-".to_string(), |c| c.to_string())
                ));
            }
            if let Some(w) = &sc.winner_strategy {
                s.push_str(&format!("\nWinner strategy: **{w}**\n"));
            }
        }
        if !sc.workers.is_empty() {
            s.push_str("\n| worker | evals | wall µs |\n|---|---|---|\n");
            for wr in &sc.workers {
                s.push_str(&format!(
                    "| w{} | {} | {} |\n",
                    wr.worker, wr.evals, wr.wall_us
                ));
            }
        }
        s.push('\n');
    }
    if !rep.stages.is_empty() {
        s.push_str("## Stage time attribution\n\n| stage | count | total µs |\n|---|---|---|\n");
        for row in &rep.stages {
            s.push_str(&format!(
                "| {} | {} | {} |\n",
                row.stage, row.count, row.total_us
            ));
        }
        s.push('\n');
        if let Some(line) = rep.simulations_line() {
            s.push_str(&line);
            s.push('\n');
        }
    }
    if rep.malformed > 0 {
        s.push_str(&format!("_{} malformed lines skipped._\n", rep.malformed));
    }
    s
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

/// Convenience: read, merge, analyze, and render trace files.
pub fn report_files(paths: &[impl AsRef<Path>], format: ReportFormat) -> std::io::Result<String> {
    let mut events = Vec::new();
    let mut malformed = 0;
    for p in paths {
        let data = read_trace(p)?;
        events.extend(data.events);
        malformed += data.malformed;
    }
    Ok(render(&analyze(&events, malformed), format))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_stats, stats_json, SpanEvent};

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
        assert_eq!(parse_stats(&v), Some(s));
        // Older traces may omit counters (default 0) but never `cycles`.
        let minimal = parse_json(r#"{"cycles":7}"#).unwrap();
        assert_eq!(parse_stats(&minimal).unwrap().cycles, 7);
        assert!(parse_stats(&parse_json(r#"{"insts":7}"#).unwrap()).is_none());
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
    fn model_pruned_is_counted_and_rendered_only_when_present() {
        // Model-free traces: no model_pruned accounting, no extra output.
        let plain = vec![eval("SEED", Some(100), false), eval("UR", Some(80), false)];
        let rep = analyze(&plain, 0);
        assert_eq!(rep.scopes[0].tally.model_pruned, 0);
        assert!(!render(&rep, ReportFormat::Text).contains("cost model"));
        assert!(!render(&rep, ReportFormat::Json).contains("model_pruned"));
        assert!(!render(&rep, ReportFormat::Markdown).contains("model-pruned"));

        // A "model-rank"-pruned probe counts into both pruned buckets;
        // a legality-pruned probe only into the total.
        let mut cut = eval("UR", None, false);
        if let SearchEvent::Eval(e) = &mut cut {
            e.pruned = Some(crate::eval::PRUNE_MODEL_RANK.to_string());
        }
        let mut illegal = eval("UR", None, false);
        if let SearchEvent::Eval(e) = &mut illegal {
            e.pruned = Some("simd-unsupported".to_string());
        }
        let events = vec![eval("SEED", Some(100), false), cut, illegal];
        let rep = analyze(&events, 0);
        let sc = &rep.scopes[0];
        assert_eq!(
            (sc.probes, sc.tally.pruned, sc.tally.model_pruned),
            (3, 2, 1)
        );
        assert!(render(&rep, ReportFormat::Text)
            .contains("cost model pruned 1 of 3 candidates before compile"));
        let json = render(&rep, ReportFormat::Json);
        assert!(json.contains("\"model_pruned\":1"), "{json}");
        assert!(parse_json(&json).is_some(), "bad report json: {json}");
        assert!(render(&rep, ReportFormat::Markdown).contains("1 model-pruned; "));
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
        let line = "simulations / fresh eval: 2 / 2 = 1.0000\n";
        assert!(render(&rep, ReportFormat::Text).contains(line));
        assert!(render(&rep, ReportFormat::Markdown).contains(line));
        assert!(!render(&rep, ReportFormat::Json).contains("fresh eval"));
    }

    #[test]
    fn renderers_are_deterministic_and_well_formed() {
        let events = vec![eval("SEED", Some(100), false), eval("UR", Some(50), false)];
        let rep = analyze(&events, 0);
        let json = render(&rep, ReportFormat::Json);
        assert_eq!(json, render(&analyze(&events, 0), ReportFormat::Json));
        // The JSON renderer must emit parseable JSON.
        assert!(parse_json(&json).is_some(), "bad report json: {json}");
        let text = render(&rep, ReportFormat::Text);
        assert!(text.contains("speedup 2.0000x"));
        let md = render(&rep, ReportFormat::Markdown);
        assert!(md.contains("| UR | 1 | 1 | 2.0000 |"));
    }
}
