//! `ifko explain`: microarchitectural attribution over a search trace.
//!
//! `ifko report` answers *what happened* during a tune; this module
//! answers *why the winner wins*. From the same JSONL trace it
//! reconstructs, per scope:
//!
//! * **Winner vs baseline** — the counter-level difference between the
//!   search's reference candidate (the first verified probe, i.e. FKO's
//!   static defaults) and the winning point: Δcycles, ΔL1/L2 misses,
//!   Δmispredicts, Δbus bytes, Δprefetch efficacy.
//! * **Per-transform attribution** — every probe is diffed against its
//!   *nearest neighbor*: the most recent earlier probe whose parameter
//!   point differs in exactly one knob (derivable because the trace
//!   records each candidate's full `TransformParams`). A one-knob pair
//!   isolates that transform's counter movement; pairs are grouped by
//!   transform (SV / UR / AE / WNT / PF INS / PF DST / ...) and the
//!   best-improving pair per transform becomes the table's exemplar.
//! * **Bottleneck classification** — each candidate on the convergence
//!   path is labeled memory-bound / compute-bound / branch-bound /
//!   prefetch-limited from simple counter ratios (thresholds documented
//!   on [`classify`]).
//! * **Winner feature vector** — the stable [`FeatureVector`] of
//!   size-normalized rates measured on the winner's run.
//!
//! Like `report`, it reads the trace through the shared fold (scope
//! grouping and selection-rule replay) and renders text, Markdown and
//! JSON deterministically from one document (`Doc`), so every format is
//! golden-testable.

use crate::doc::{Col, Doc, Table};
use crate::eval::{EvalEvent, SearchEvent};
use crate::key::{self, EvalScope};
use crate::report::{by_scope, entry, f4, replay, ReportFormat};
use crate::strategy::TunedDb;
use crate::trace::read_traces;
use ifko_xsim::{isa::Prec, FeatureVector, RunStats};
use std::collections::HashMap;
use std::path::Path;

// ---------------------------------------------------------------------------
// Parameter-point knobs
// ---------------------------------------------------------------------------

/// One candidate point flattened into `(knob, value)` pairs: a live
/// trace's [`params_label`](key::params_label) into `simd`, `unroll`,
/// ..., `pf[ptr].kind`, `pf[ptr].dist`, a hand-written `k=v` list
/// (`"simd=1 ur=4"`) token-wise, and anything else into the one opaque
/// knob `params`, so explain degrades gracefully on foreign traces.
pub fn knobs(params: &str) -> Vec<(String, String)> {
    let t = params.trim();
    let debug_form = t.strip_prefix("TransformParams {");
    let Some(body) = debug_form.and_then(|r| r.strip_suffix('}')) else {
        if !t.contains('=') {
            return vec![("params".to_string(), t.to_string())];
        }
        let pair = |tok: &str| {
            let (k, v) = tok.split_once('=').unwrap_or((tok, "on"));
            (k.to_string(), v.to_string())
        };
        return t.split_whitespace().map(pair).collect();
    };
    let mut out = Vec::new();
    for (name, value) in split_top(body)
        .into_iter()
        .filter_map(|f| f.split_once(": "))
    {
        let (name, value) = (name.trim(), value.trim());
        if name != "prefetch" {
            out.push((name.to_string(), value.to_string()));
            continue;
        }
        let list = value.strip_prefix('[').and_then(|r| r.strip_suffix(']'));
        for (i, spec) in split_top(list.unwrap_or("")).into_iter().enumerate() {
            let inner = spec
                .strip_prefix("PrefSpec {")
                .and_then(|r| r.strip_suffix('}'));
            let fields = split_top(inner.unwrap_or(""));
            let field = |k: &str| {
                let v = fields
                    .iter()
                    .rev()
                    .find_map(|f| f.strip_prefix(k)?.strip_prefix(": "));
                v.map(str::trim)
            };
            let ptr = field("ptr").map(|p| p.trim_start_matches("PtrId(").trim_end_matches(')'));
            let idx = ptr.map_or(i.to_string(), str::to_string);
            for k in ["kind", "dist"] {
                out.push((format!("pf[{idx}].{k}"), field(k).unwrap_or("").to_string()));
            }
        }
    }
    out
}

/// Split `s` on `", "` at nesting depth 0 (tracking `([{` / `}])`).
fn split_top(s: &str) -> Vec<&str> {
    let b = s.as_bytes();
    let mut parts = Vec::new();
    let (mut depth, mut start, mut i) = (0i32, 0usize, 0usize);
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 && b.get(i + 1) == Some(&b' ') => {
                parts.push(s[start..i].trim());
                i += 2;
                start = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    if start < s.len() {
        parts.push(s[start..].trim());
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// The knobs whose values differ between two points (union of keys; a
/// knob missing on one side diffs against the empty string).
fn knob_diff(a: &[(String, String)], b: &[(String, String)]) -> Vec<(String, String, String)> {
    let bm: HashMap<&str, &str> = b.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let am: HashMap<&str, &str> = a.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let mut out = Vec::new();
    for (k, va) in a {
        let vb = bm.get(k.as_str()).copied().unwrap_or("");
        if va != vb {
            out.push((k.clone(), va.clone(), vb.to_string()));
        }
    }
    for (k, vb) in b {
        if !am.contains_key(k.as_str()) {
            out.push((k.clone(), String::new(), vb.clone()));
        }
    }
    out
}

/// Map a knob name onto the paper's transform label.
pub fn transform_label(knob: &str) -> String {
    match knob {
        "simd" => "SV".to_string(),
        "unroll" | "ur" => "UR".to_string(),
        "accum_expand" | "ae" => "AE".to_string(),
        "wnt" => "WNT".to_string(),
        k if k.starts_with("pf") && k.ends_with(".kind") => "PF INS".to_string(),
        k if k.starts_with("pf") && k.ends_with(".dist") => "PF DST".to_string(),
        k => k.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Bottleneck classification
// ---------------------------------------------------------------------------

/// Why a candidate spends its cycles, from simple counter ratios.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bottleneck {
    Memory,
    Compute,
    Branch,
    Prefetch,
}

impl Bottleneck {
    pub fn label(self) -> &'static str {
        match self {
            Bottleneck::Memory => "memory-bound",
            Bottleneck::Compute => "compute-bound",
            Bottleneck::Branch => "branch-bound",
            Bottleneck::Prefetch => "prefetch-limited",
        }
    }
}

/// Classify one candidate's counters. Rules (checked in order, so the
/// classification is deterministic):
///
/// 1. **branch-bound** — ≥ 64 conditional branches and > 5% of them
///    mispredicted (each costs a pipeline flush).
/// 2. **prefetch-limited** — ≥ 16 software prefetches issued but under
///    half did useful work (dropped on a busy bus or redundant).
/// 3. **memory-bound** — under 1 instruction/cycle retired while either
///    the L1 misses > 5% of accesses or the bus moves ≥ 1 byte per
///    instruction (the core is waiting on the memory system).
/// 4. **compute-bound** — everything else: the core, not the memory
///    system, sets the pace.
pub fn classify(s: &RunStats) -> Bottleneck {
    if s.branches >= 64 && s.mispredict_ratio() > 0.05 {
        Bottleneck::Branch
    } else if s.prefetch_issued >= 16 && s.prefetch_efficacy() < 0.5 {
        Bottleneck::Prefetch
    } else if s.ipc() < 1.0 && (s.l1_miss_ratio() > 0.05 || s.bus_bytes_per_inst() >= 1.0) {
        Bottleneck::Memory
    } else {
        Bottleneck::Compute
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Signed counter movement between two measured candidates (`to - from`;
/// negative is an improvement for everything except prefetch efficacy).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CounterDelta {
    pub cycles: i64,
    pub l1_misses: i64,
    pub l2_misses: i64,
    pub mispredicts: i64,
    pub bus_bytes: i64,
    pub prefetch_efficacy: f64,
}

impl CounterDelta {
    /// The counters' names, in the order [`values`](Self::values) gives them.
    const NAMES: [&'static str; 6] = [
        "cycles",
        "l1_misses",
        "l2_misses",
        "mispredicts",
        "bus_bytes",
        "prefetch_efficacy",
    ];

    /// Each counter's movement, signed.
    fn values(&self) -> [String; 6] {
        let n = |v: i64| format!("{v:+}");
        let pe = format!("{:+.4}", self.prefetch_efficacy);
        let (c, l1, l2) = (n(self.cycles), n(self.l1_misses), n(self.l2_misses));
        [c, l1, l2, n(self.mispredicts), n(self.bus_bytes), pe]
    }

    fn between(from: &RunStats, to: &RunStats) -> CounterDelta {
        let d = |a: u64, b: u64| b as i64 - a as i64;
        CounterDelta {
            cycles: d(from.cycles, to.cycles),
            l1_misses: d(from.l1_misses, to.l1_misses),
            l2_misses: d(from.l2_misses, to.l2_misses),
            mispredicts: d(from.mispredicts, to.mispredicts),
            bus_bytes: d(from.bus_bytes(), to.bus_bytes()),
            prefetch_efficacy: to.prefetch_efficacy() - from.prefetch_efficacy(),
        }
    }
}

/// One candidate as explain presents it.
#[derive(Clone, Debug)]
pub struct CandidateView {
    /// Probe index within the scope (order of appearance in the trace).
    pub probe: u64,
    pub phase: String,
    pub params: String,
    pub cycles: u64,
    /// Counters of the candidate's fresh evaluation (cache hits resolve
    /// through the first fresh evaluation of the same point).
    pub stats: Option<RunStats>,
    pub bottleneck: Option<Bottleneck>,
    /// The static cost model's cycle prediction for this point, when the
    /// trace carries one (searches run with a model attached record a
    /// prediction for every candidate, pruned or not).
    pub predicted: Option<u64>,
}

impl CandidateView {
    /// Signed prediction error, percent of measured cycles
    /// (`+` = model overestimated).
    pub fn pred_err_pct(&self) -> Option<f64> {
        let p = self.predicted?;
        (self.cycles > 0).then(|| (p as f64 - self.cycles as f64) / self.cycles as f64 * 100.0)
    }
}

/// One row of the per-transform attribution table: the best-improving
/// one-knob neighbor pair observed for this transform.
#[derive(Clone, Debug)]
pub struct TransformRow {
    pub transform: String,
    /// One-knob pairs observed for this transform across the search.
    pub pairs: u64,
    /// Exemplar pair: the knob change with the largest cycle win.
    pub knob: String,
    pub from: String,
    pub to: String,
    pub dcycles: i64,
    /// Counter movement of the exemplar pair (`None` when either side
    /// was never freshly measured, e.g. answered by the eval cache).
    pub delta: Option<CounterDelta>,
}

/// Everything explain derives for one scope.
#[derive(Clone, Debug)]
pub struct ScopeExplain {
    pub scope: String,
    pub n: Option<u64>,
    pub probes: u64,
    /// Verified, timed candidates (the attribution population).
    pub measured: u64,
    pub baseline: Option<CandidateView>,
    pub winner: Option<CandidateView>,
    pub winner_vs_baseline: Option<CounterDelta>,
    pub attribution: Vec<TransformRow>,
    /// The convergence path: baseline plus every strict improvement.
    pub path: Vec<CandidateView>,
    /// The winner's size-normalized counter vector (needs the winner's
    /// counters and the scope's problem size).
    pub features: Option<FeatureVector>,
    /// Cross-check against a tuned database, when one was supplied.
    pub db_note: Option<String>,
}

impl ScopeExplain {
    pub fn speedup(&self) -> f64 {
        match (&self.baseline, &self.winner) {
            (Some(b), Some(w)) if w.cycles > 0 => b.cycles as f64 / w.cycles as f64,
            _ => 1.0,
        }
    }
}

/// The full explain analysis of one or more merged traces.
#[derive(Clone, Debug, Default)]
pub struct ExplainReport {
    pub malformed: usize,
    pub scopes: Vec<ScopeExplain>,
}

/// Analyze a merged event stream (the explain-side sibling of
/// [`report::analyze`](crate::report::analyze)).
pub fn analyze(events: &[SearchEvent], malformed: usize) -> ExplainReport {
    ExplainReport {
        malformed,
        scopes: by_scope(events)
            .iter()
            .map(|(scope, evs)| explain_scope(scope, evs))
            .collect(),
    }
}

fn explain_scope(scope: &str, evs: &[&EvalEvent]) -> ScopeExplain {
    // Cache hits carry no counters; the first fresh evaluation of a
    // point speaks for every later hit on it.
    let mut stats_by_params: HashMap<&str, RunStats> = HashMap::new();
    let mut pred_by_params: HashMap<&str, u64> = HashMap::new();
    for e in evs {
        if let Some(st) = e.stats {
            stats_by_params.entry(e.params.as_str()).or_insert(st);
        }
        if let Some(p) = e.predicted {
            pred_by_params.entry(e.params.as_str()).or_insert(p);
        }
    }
    let view = |probe: usize, e: &EvalEvent, cycles: u64| {
        let stats = stats_by_params.get(e.params.as_str()).copied();
        CandidateView {
            probe: probe as u64,
            phase: e.phase.clone(),
            params: e.params.clone(),
            cycles,
            stats,
            bottleneck: stats.map(|s| classify(&s)),
            predicted: e
                .predicted
                .or_else(|| pred_by_params.get(e.params.as_str()).copied()),
        }
    };

    // The measured candidates and the convergence path: the baseline
    // plus every strict improvement.
    let measured = replay(evs);
    let path: Vec<CandidateView> = measured
        .iter()
        .filter(|m| m.wins())
        .map(|m| view(m.idx, m.ev, m.cycles))
        .collect();
    let baseline = path.first().cloned();
    let winner = path.last().cloned();
    let stats = |v: &Option<CandidateView>| v.as_ref().and_then(|v| v.stats);
    let pair = stats(&baseline).zip(stats(&winner));
    let winner_vs_baseline = pair.map(|(b, w)| CounterDelta::between(&b, &w));

    // Nearest-neighbor attribution: pair each probe with the most
    // recent earlier probe differing in exactly one knob, and group the
    // pairs by the transform that knob belongs to.
    let knobbed: Vec<_> = measured.iter().map(|m| (m, knobs(&m.ev.params))).collect();
    let mut attribution: Vec<TransformRow> = Vec::new();
    for (i, (m, ki)) in knobbed.iter().enumerate() {
        let neighbor = knobbed[..i].iter().rev().find_map(|(n, kj)| {
            let [one] = <[_; 1]>::try_from(knob_diff(kj, ki)).ok()?;
            Some((n, one))
        });
        let Some((n, (knob, from, to))) = neighbor else {
            continue;
        };
        let dcycles = m.cycles as i64 - n.cycles as i64;
        let stats = |e: &EvalEvent| stats_by_params.get(e.params.as_str());
        let pair = stats(n.ev).zip(stats(m.ev));
        let delta = pair.map(|(a, b)| CounterDelta::between(a, b));
        let label = transform_label(&knob);
        let new = || TransformRow {
            transform: label.clone(),
            pairs: 0,
            knob: knob.clone(),
            from: from.clone(),
            to: to.clone(),
            dcycles,
            delta,
        };
        let row = entry(&mut attribution, |r| r.transform == label, new);
        row.pairs += 1;
        // Exemplar: the biggest cycle win; measured pairs beat
        // cycles-only pairs at equal improvement.
        if dcycles < row.dcycles
            || (dcycles == row.dcycles && delta.is_some() && row.delta.is_none())
        {
            row.knob = knob;
            row.from = from;
            row.to = to;
            row.dcycles = dcycles;
            row.delta = delta;
        }
    }

    let n = EvalScope::parse(scope).map(|s| s.n as u64);
    let features = winner
        .as_ref()
        .and_then(|w| w.stats.as_ref())
        .zip(n)
        .map(|(st, n)| FeatureVector::from_stats(st, n));

    ScopeExplain {
        scope: scope.to_string(),
        n,
        probes: evs.len() as u64,
        measured: measured.len() as u64,
        baseline,
        winner,
        winner_vs_baseline,
        attribution,
        path,
        features,
        db_note: None,
    }
}

/// Cross-check each scope's trace winner against a tuned database:
/// does the record a tune of this build would warm-start from (same
/// kernel, machine and context, this build's revision) agree with what
/// the trace converged to?
pub fn annotate_with_db(rep: &mut ExplainReport, db: &TunedDb) {
    for scope in &mut rep.scopes {
        let Some(winner) = &scope.winner else {
            continue;
        };
        // A scope carries no precision, but its kernel label names one:
        // at most one of the two keys has a record.
        let parsed = EvalScope::parse(&scope.scope);
        let stored = parsed.iter().find_map(|s| {
            let at = |prec| db.lookup(&s.tuned_key(prec, db.rev()));
            at(Prec::S).or_else(|| at(Prec::D))
        });
        let kernel = parsed.map_or_else(|| scope.scope.clone(), |s| s.kernel);
        scope.db_note = Some(match stored {
            None => format!("no stored winner for kernel `{kernel}`"),
            Some(rec) if key::params_label(&rec.params) == winner.params => {
                format!("winner matches stored db entry ({} cycles)", rec.cycles)
            }
            Some(rec) => format!(
                "winner differs from stored db entry ({} cycles, strategy {})",
                rec.cycles, rec.strategy
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Render an explanation in the chosen format (deterministic for a given
/// trace, like `report::render`, so every format is golden-tested).
pub fn render(rep: &ExplainReport, format: ReportFormat) -> String {
    doc(rep).render(format)
}

fn fmt_params(p: &str) -> String {
    // The debug form is long; compress the common prefix for display.
    p.strip_prefix("TransformParams ").unwrap_or(p).to_string()
}

/// The attribution table's counter cells: every movement but cycles.
fn delta_cells(d: Option<&CounterDelta>) -> [String; 5] {
    match d {
        Some(d) => {
            let [_, rest @ ..] = d.values();
            rest
        }
        None => std::array::from_fn(|_| "-".to_string()),
    }
}

// The explanation's tables.
#[rustfmt::skip]
const ATTRIBUTION: &[Col] = &[
    Col::left("TRANSFORM", 10), Col::right("PAIRS", 5), Col::left("KNOB", 14), Col::left("CHANGE", 22),
    Col::right("dCYCLES", 9), Col::right("dL1MISS", 8), Col::right("dL2MISS", 8),
    Col::right("dMISPR", 8), Col::right("dBUSBYTES", 10), Col::right("dPFEFF", 8),
];
/// `PRED` and `ERR%` are dropped for a path without predictions.
#[rustfmt::skip]
const PATH: &[Col] = &[
    Col::right("PROBE", 5), Col::left("PHASE", 8), Col::right("CYCLES", 10), Col::right("PRED", 10),
    Col::right("ERR%", 7), Col::left("BOTTLENECK", 16), Col::right("IPC", 7), Col::right("L1MR", 7),
    Col::right("L2MR", 7), Col::right("PFEFF", 7),
];

/// The explanation's one document.
fn doc(rep: &ExplainReport) -> Doc {
    let mut d = Doc::default();
    d.line("ifko explain — why the winner wins");
    if rep.malformed > 0 {
        d.line(format!("({} malformed line(s) skipped)", rep.malformed));
    }
    for s in &rep.scopes {
        d.line("");
        d.heading(&s.scope);
        d.line(format!(
            "probes: {} ({} measured)  speedup: {}x",
            s.probes,
            s.measured,
            f4(s.speedup())
        ));
        for (name, c) in [("baseline", &s.baseline), ("winner", &s.winner)] {
            if let Some(c) = c {
                let pred = match (c.predicted, c.pred_err_pct()) {
                    (Some(p), Some(err)) => format!("  pred {p} ({err:+.1}%)"),
                    _ => String::new(),
                };
                d.line(format!(
                    "{:<8} [{}] {:>10} cycles{}  {}  {}",
                    name,
                    c.phase,
                    c.cycles,
                    pred,
                    c.bottleneck.map_or("unclassified", |b| b.label()),
                    fmt_params(&c.params),
                ));
            }
        }
        if let Some(dl) = &s.winner_vs_baseline {
            d.line("");
            d.line("winner vs baseline (counter movement):");
            for (name, v) in CounterDelta::NAMES.iter().zip(dl.values()) {
                d.line(format!("  {name:<17} {v}"));
            }
        }
        if !s.attribution.is_empty() {
            d.line("");
            d.line("per-transform attribution (best one-knob pair):");
            let mut t = Table::new(ATTRIBUTION);
            for r in &s.attribution {
                let change = format!("{} -> {}", r.from, r.to);
                let dcycles = format!("{:+}", r.dcycles);
                let [l1, l2, mispr, bus, pf] = delta_cells(r.delta.as_ref());
                t.row(&[
                    &r.transform,
                    &r.pairs,
                    &r.knob,
                    &change,
                    &dcycles,
                    &l1,
                    &l2,
                    &mispr,
                    &bus,
                    &pf,
                ]);
            }
            d.table(t);
        }
        if s.path.len() > 1 {
            d.line("");
            d.line("convergence path (bottleneck per candidate):");
            let mut t = Table::new(PATH);
            for c in &s.path {
                let dash = || "-".to_string();
                let [ipc, l1, l2, pf] = c.stats.map_or_else(
                    || std::array::from_fn(|_| dash()),
                    |st| {
                        [
                            st.ipc(),
                            st.l1_miss_ratio(),
                            st.l2_miss_ratio(),
                            st.prefetch_efficacy(),
                        ]
                        .map(f4)
                    },
                );
                let pred = c.predicted.map_or_else(dash, |p| p.to_string());
                let err = c.pred_err_pct().map_or_else(dash, |e| format!("{e:+.1}"));
                let bottleneck = c.bottleneck.map_or("unclassified", |b| b.label());
                t.row(&[
                    &c.probe,
                    &c.phase,
                    &c.cycles,
                    &pred,
                    &err,
                    &bottleneck,
                    &ipc,
                    &l1,
                    &l2,
                    &pf,
                ]);
            }
            // Model-era columns: only rendered when the trace carries
            // predictions, so pre-model traces keep their exact output.
            if s.path.iter().all(|c| c.predicted.is_none()) {
                t.drop_col("PRED");
                t.drop_col("ERR%");
            }
            d.table(t);
        }
        if let Some(f) = &s.features {
            d.line("");
            d.line(format!("winner feature vector: {}", f.to_json()));
        }
        if let Some(note) = &s.db_note {
            d.line(format!("tuned-db: {note}"));
        }
    }
    d
}

/// Convenience: read, merge, analyze, and render trace files, optionally
/// cross-checking winners against a tuned database.
pub fn explain_files(
    paths: &[impl AsRef<Path>],
    format: ReportFormat,
    db: Option<&TunedDb>,
) -> std::io::Result<String> {
    let data = read_traces(paths)?;
    let mut rep = analyze(&data.events, data.malformed);
    if let Some(db) = db {
        annotate_with_db(&mut rep, db);
    }
    Ok(render(&rep, format))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{parse_json, parse_trace_line, Json};

    const FORMATS: [ReportFormat; 3] = [
        ReportFormat::Text,
        ReportFormat::Json,
        ReportFormat::Markdown,
    ];

    fn eval_line(phase: &str, params: &str, cycles: u64, stats: Option<(u64, u64)>) -> String {
        let stats_part = match stats {
            Some((insts, l1m)) => format!(
                ",\"stats\":{{\"cycles\":{cycles},\"insts\":{insts},\"l1_hits\":900,\
                 \"l1_misses\":{l1m},\"branches\":100,\"mispredicts\":1}}"
            ),
            None => String::new(),
        };
        format!(
            "{{\"scope\":\"k@m/oc/n1024/s1/r1\",\"phase\":\"{phase}\",\"params\":\"{params}\",\
             \"cycles\":{cycles},\"verified\":true,\"cache_hit\":false,\"wall_us\":5{stats_part}}}"
        )
    }

    fn events(lines: &[String]) -> Vec<SearchEvent> {
        lines.iter().map(|l| parse_trace_line(l).unwrap()).collect()
    }

    #[test]
    fn knobs_parse_debug_form() {
        let p = "TransformParams { simd: true, unroll: 8, accum_expand: 1, wnt: false, \
                 prefetch: [PrefSpec { ptr: PtrId(0), kind: Some(Nta), dist: 128 }, \
                 PrefSpec { ptr: PtrId(1), kind: None, dist: 64 }], loop_control: true, \
                 cisc_memops: true, copy_prop: true, dead_code_elim: true, branch_cleanup: true }";
        let k = knobs(p);
        let get = |name: &str| {
            k.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
                .unwrap_or("?")
        };
        assert_eq!(get("simd"), "true");
        assert_eq!(get("unroll"), "8");
        assert_eq!(get("pf[0].kind"), "Some(Nta)");
        assert_eq!(get("pf[0].dist"), "128");
        assert_eq!(get("pf[1].kind"), "None");
        assert_eq!(get("pf[1].dist"), "64");
        assert_eq!(get("branch_cleanup"), "true");
    }

    #[test]
    fn knobs_fall_back_on_foreign_params() {
        assert_eq!(
            knobs("simd=1 ur=4"),
            vec![
                ("simd".to_string(), "1".to_string()),
                ("ur".to_string(), "4".to_string())
            ]
        );
        assert_eq!(
            knobs("<defaults>"),
            vec![("params".to_string(), "<defaults>".to_string())]
        );
    }

    #[test]
    fn one_knob_neighbors_build_attribution() {
        let lines = vec![
            eval_line("SEED", "simd=0 ur=1", 1000, Some((500, 100))),
            eval_line("SV", "simd=1 ur=1", 700, Some((500, 80))),
            eval_line("UR", "simd=1 ur=4", 400, Some((400, 20))),
            eval_line("UR", "simd=1 ur=8", 450, Some((420, 25))),
        ];
        let rep = analyze(&events(&lines), 0);
        assert_eq!(rep.scopes.len(), 1);
        let s = &rep.scopes[0];
        assert_eq!(s.measured, 4);
        assert_eq!(s.baseline.as_ref().unwrap().cycles, 1000);
        assert_eq!(s.winner.as_ref().unwrap().cycles, 400);
        assert_eq!(s.path.len(), 3);
        // SV pair: 700 - 1000 = -300; UR exemplar: ur=1 -> ur=4 = -300.
        let sv = s.attribution.iter().find(|r| r.transform == "SV").unwrap();
        assert_eq!((sv.pairs, sv.dcycles), (1, -300));
        let ur = s.attribution.iter().find(|r| r.transform == "UR").unwrap();
        assert_eq!(ur.pairs, 2);
        assert_eq!(ur.dcycles, -300);
        assert_eq!((ur.from.as_str(), ur.to.as_str()), ("1", "4"));
        let d = ur.delta.unwrap();
        assert_eq!(d.cycles, -300);
        assert_eq!(d.l1_misses, -60);
        // Winner-vs-baseline delta spans the whole search.
        let wd = s.winner_vs_baseline.unwrap();
        assert_eq!(wd.cycles, -600);
        assert_eq!(wd.l1_misses, -80);
        // Feature vector derives from the winner's stats and scope n.
        let f = s.features.as_ref().unwrap();
        assert_eq!(FeatureVector::NAMES[1], "ipc");
        assert!((f.values[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn predictions_surface_next_to_measured_cycles() {
        // Hand-authored trace with model predictions on every candidate.
        let line = |phase: &str, params: &str, cycles: u64, predicted: u64| {
            format!(
                "{{\"scope\":\"k@m/oc/n1024/s1/r1\",\"phase\":\"{phase}\",\"params\":\"{params}\",\
                 \"cycles\":{cycles},\"verified\":true,\"cache_hit\":false,\"wall_us\":5,\
                 \"predicted\":{predicted}}}"
            )
        };
        let lines = vec![
            line("SEED", "simd=0 ur=1", 1000, 1100),
            line("SV", "simd=1 ur=1", 700, 650),
            line("UR", "simd=1 ur=4", 400, 410),
        ];
        let rep = analyze(&events(&lines), 0);
        let s = &rep.scopes[0];
        let base = s.baseline.as_ref().unwrap();
        assert_eq!(base.predicted, Some(1100));
        assert!((base.pred_err_pct().unwrap() - 10.0).abs() < 1e-9);
        let win = s.winner.as_ref().unwrap();
        assert_eq!(win.predicted, Some(410));
        assert!((win.pred_err_pct().unwrap() - 2.5).abs() < 1e-9);

        let text = render(&rep, ReportFormat::Text);
        assert!(text.contains("PRED"), "{text}");
        assert!(text.contains("ERR%"), "{text}");
        assert!(text.contains("pred 410 (+2.5%)"), "{text}");
        let json = render(&rep, ReportFormat::Json);
        assert!(json.contains("pred 410 (+2.5%)"), "{json}");
        assert!(json.contains(r#""PRED":"410","ERR%":"+2.5""#), "{json}");
        let md = render(&rep, ReportFormat::Markdown);
        assert!(md.contains("| PRED | ERR% |"), "{md}");

        // Model-free traces keep the pre-model layout exactly.
        let plain = vec![
            eval_line("SEED", "simd=0 ur=1", 1000, Some((500, 100))),
            eval_line("UR", "simd=1 ur=4", 400, Some((400, 20))),
        ];
        let rep = analyze(&events(&plain), 0);
        for fmt in FORMATS {
            let out = render(&rep, fmt);
            for marker in ["PRED", "ERR%", " pred "] {
                assert!(!out.contains(marker), "{fmt:?} leaked `{marker}`: {out}");
            }
        }
    }

    #[test]
    fn classification_rules_in_order() {
        let branchy = RunStats {
            cycles: 1000,
            insts: 2000,
            branches: 100,
            mispredicts: 10,
            ..Default::default()
        };
        assert_eq!(classify(&branchy), Bottleneck::Branch);
        let pf = RunStats {
            cycles: 1000,
            insts: 2000,
            prefetch_issued: 100,
            prefetch_dropped: 80,
            ..Default::default()
        };
        assert_eq!(classify(&pf), Bottleneck::Prefetch);
        let mem = RunStats {
            cycles: 4000,
            insts: 2000,
            l1_hits: 80,
            l1_misses: 20,
            ..Default::default()
        };
        assert_eq!(classify(&mem), Bottleneck::Memory);
        let cpu = RunStats {
            cycles: 1000,
            insts: 2500,
            l1_hits: 1000,
            ..Default::default()
        };
        assert_eq!(classify(&cpu), Bottleneck::Compute);
    }

    #[test]
    fn renderers_are_deterministic_and_well_formed() {
        let lines = vec![
            eval_line("SEED", "simd=0 ur=1", 1000, Some((500, 100))),
            eval_line("SV", "simd=1 ur=1", 700, None),
        ];
        let rep = analyze(&events(&lines), 1);
        for fmt in FORMATS {
            let a = render(&rep, fmt);
            let b = render(&rep, fmt);
            assert_eq!(a, b);
            assert!(!a.is_empty());
        }
        // One scope heading, then its winner line.
        let j = render(&rep, ReportFormat::Json);
        let Some(Json::Arr(blocks)) = parse_json(&j) else {
            panic!("explain JSON must be an array of blocks: {j}");
        };
        let text = |key: &str| -> Vec<&str> {
            blocks.iter().filter_map(|b| b.get(key)?.as_str()).collect()
        };
        assert_eq!(text("heading"), ["k@m/oc/n1024/s1/r1"]);
        assert!(
            text("line").iter().any(|l| l.starts_with("winner   [SV]")),
            "{j}"
        );
    }

    /// The cross-check compares against the record a tune of this build
    /// would warm-start from, not another revision's record of the same
    /// kernel whose key happens to sort first.
    #[test]
    fn db_note_reads_this_builds_record() {
        use crate::strategy::{db_key, TunedRecord};
        use ifko_fko::TransformParams;
        let machine = crate::eval::machine_fingerprint(&ifko_xsim::p4e());
        let scope = format!("ddot@{machine}/oc/n1024/s1/r1i0s0");
        let mut winner = TransformParams::off();
        winner.unroll = 4;
        let line = format!(
            "{{\"scope\":\"{scope}\",\"phase\":\"SEED\",\"params\":\"{winner:?}\",\
             \"cycles\":700,\"verified\":true,\"cache_hit\":false,\"wall_us\":5}}"
        );
        let mut rep = analyze(&events(&[line]), 0);

        let dir = std::env::temp_dir().join(format!("ifko-explain-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = TunedDb::open(&dir).unwrap();
        let record = |rev: &str, params: TransformParams, cycles: u64| TunedRecord {
            key: db_key("ddot", "D", &machine, "oc", rev),
            kernel: "ddot".into(),
            prec: "D".into(),
            machine: machine.clone(),
            context: "oc".into(),
            rev: rev.into(),
            n: 1024,
            seed: 1,
            strategy: "line".into(),
            cycles,
            params,
            features: None,
        };
        // `!` sorts before any revision, so the stale record comes first.
        db.store(&record("!stale", TransformParams::off(), 900));
        db.store(&record(db.rev(), winner, 700));
        annotate_with_db(&mut rep, &db);
        assert_eq!(
            rep.scopes[0].db_note.as_deref(),
            Some("winner matches stored db entry (700 cycles)")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
