//! The search-trace format: the events a tune emits, the JSONL encoding
//! they are written in, the reader of that encoding, and the sinks and
//! span guards that carry events from the engine to a file.
//!
//! Every evaluation (including cache hits) emits a
//! [`SearchEvent::Eval`] to a pluggable [`TraceSink`]: a JSONL file via
//! `--trace`, or an in-memory sink for tests. Fresh evaluations carry the
//! simulator's full [`RunStats`] (cache hits/misses, instruction mix, bus
//! traffic) so the trace can answer "what did the hardware do for this
//! point?", not only "how fast was it?".
//!
//! Pipeline stages are covered by [`SearchEvent::Span`]: nested
//! wall-clock spans (parse → xform → opt → regalloc → codegen → simulate
//! → test → time) emitted by the [`Span`] guard API. `ifko report`
//! reconstructs per-stage time attribution from them.
//!
//! Writer and reader sit side by side: [`SearchEvent::to_json`] /
//! [`stats_json`] write a line, [`parse_trace_line`] / `parse_stats`
//! read it back, and [`read_trace`] / [`read_traces`] re-read whole
//! files. The worker protocol reuses the `stats` pair for its reply
//! frames.

use crate::journal;
use crate::json::{obj, parse_json, FieldError, Json, Obj};
use ifko_xsim::RunStats;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Events and their JSONL encoding
// ---------------------------------------------------------------------------

/// One observed candidate evaluation (or cache hit) during a search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalEvent {
    /// Scope key: kernel @ machine / context / n / seed / timer.
    pub scope: String,
    /// Search phase label (`SEED`, `WNT`, `PF DST`, ... or `FINAL`).
    pub phase: String,
    /// Canonical parameter-point key (the `TransformParams` debug form).
    pub params: String,
    /// Min-of-reps cycles, or `None` when the candidate was rejected.
    pub cycles: Option<u64>,
    /// Whether the candidate compiled and passed the tester.
    pub verified: bool,
    /// Whether the result came from the evaluation cache.
    pub cache_hit: bool,
    /// Wall-clock cost of this evaluation in microseconds (0 for hits).
    pub wall_us: u64,
    /// Simulator counters of the verification run (fresh evaluations
    /// only; cache hits do not re-run the simulator).
    pub stats: Option<RunStats>,
    /// Static cost-model prediction (cycles) for this candidate, when a
    /// model was attached to the batch (`None` otherwise). Present for
    /// hits and fresh evaluations alike, so predicted-vs-actual error is
    /// computable from the trace.
    pub predicted: Option<u64>,
    /// Rejection reason when the candidate was pruned before compilation
    /// (`None` for evaluated / cached candidates): a legality-precheck
    /// code. Older traces may hold `model-rank`, which counts as pruned
    /// like any other reason.
    pub pruned: Option<String>,
    /// Search strategy that submitted the candidate (`line`, `random`,
    /// ...; empty for untagged batches such as the driver's final
    /// re-timing).
    pub strategy: String,
    /// Transient-failure retries this evaluation burned (compile/tester
    /// re-runs plus timing-rep re-times; 0 outside chaos runs).
    pub retries: u32,
    /// Faults injected into this evaluation by the chaos plan.
    pub faults: u32,
    /// Timing repetitions rejected as outliers by the robust timer.
    pub outliers: u32,
    /// The candidate kept failing transiently past the retry budget: it
    /// is skipped (and never cached), not rejected on its merits.
    pub failed: bool,
    /// Pool worker process that evaluated this candidate (`None` for
    /// in-process evaluations, cache hits, and pruned candidates).
    pub worker: Option<u32>,
}

/// One completed pipeline span: a named stage of the
/// compile→simulate→test→time path, with its wall-clock duration and its
/// position in the span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Scope key of the search this span belongs to.
    pub scope: String,
    /// Stage name (`tune`, `search`, `eval`, `parse`, `xform`, `opt`,
    /// `regalloc`, `codegen`, `simulate`, `test`, `time`, ...).
    pub stage: String,
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Wall-clock duration in microseconds.
    pub wall_us: u64,
}

/// One record in a search trace: a candidate evaluation or a pipeline
/// span.
// Eval dwarfs Span (it carries RunStats inline), but events live on the
// stack of the probe that emits them; boxing would cost an allocation
// per probe to shrink a type nothing stores in bulk outside tests.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum SearchEvent {
    Eval(EvalEvent),
    Span(SpanEvent),
}

impl SearchEvent {
    pub fn as_eval(&self) -> Option<&EvalEvent> {
        match self {
            SearchEvent::Eval(e) => Some(e),
            SearchEvent::Span(_) => None,
        }
    }
    pub fn as_span(&self) -> Option<&SpanEvent> {
        match self {
            SearchEvent::Span(s) => Some(s),
            SearchEvent::Eval(_) => None,
        }
    }

    /// One JSONL line (all strings we emit are quote/backslash-free, but
    /// escape anyway so the file is always well-formed JSON).
    pub fn to_json(&self) -> String {
        match self {
            SearchEvent::Eval(e) => e.to_json(),
            SearchEvent::Span(s) => s.to_json(),
        }
    }
}

impl EvalEvent {
    pub fn to_json(&self) -> String {
        obj()
            .field("scope", &self.scope)
            .field("phase", &self.phase)
            .field("params", &self.params)
            .field("cycles", self.cycles)
            .field("verified", self.verified)
            .field("cache_hit", self.cache_hit)
            .field("wall_us", self.wall_us)
            .maybe("strategy", Some(&self.strategy).filter(|s| !s.is_empty()))
            .maybe("stats", self.stats.as_ref().map(stats_obj))
            // Later fields are written only when set, so traces without a
            // cost model, chaos or a worker pool keep the older bytes.
            .maybe("predicted", self.predicted)
            .maybe("pruned", self.pruned.as_ref())
            .maybe("retries", Some(self.retries).filter(|&n| n > 0))
            .maybe("faults", Some(self.faults).filter(|&n| n > 0))
            .maybe("outliers", Some(self.outliers).filter(|&n| n > 0))
            .maybe("failed", self.failed.then_some(true))
            .maybe("worker", self.worker)
            .finish()
    }
}

impl SpanEvent {
    pub fn to_json(&self) -> String {
        obj()
            .field("span", &self.stage)
            .field("scope", &self.scope)
            .field("id", self.id)
            .field("parent", self.parent)
            .field("wall_us", self.wall_us)
            .finish()
    }
}

/// Serialize the simulator counters as one flat JSON object. Field
/// names and order come from [`RunStats::FIELDS`] — the same table
/// `parse_stats` reads — so writer and reader cannot drift.
pub fn stats_json(s: &RunStats) -> String {
    stats_obj(s).finish()
}

pub(crate) fn stats_obj(s: &RunStats) -> Obj {
    let fields = RunStats::FIELDS.iter();
    fields.fold(obj(), |o, (name, get, _)| o.field(name, get(s)))
}

/// Where search events go. Implementations must tolerate concurrent
/// searches and worker threads (span guards drop inside the parallel
/// section; multiple engines may share one sink).
pub trait TraceSink: Send + Sync {
    fn record(&self, ev: &SearchEvent);
    /// Flush buffered output (no-op by default).
    fn flush(&self) {}
}

// ---------------------------------------------------------------------------
// Span guard API
// ---------------------------------------------------------------------------

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// A timed pipeline span: created at stage entry, emits a
/// [`SearchEvent::Span`] into its sink when dropped. With no sink
/// attached the guard is a no-op (two `Instant` reads).
///
/// ```
/// # use ifko::trace::{MemSink, Span, TraceSink};
/// # use std::sync::Arc;
/// let sink = MemSink::new();
/// {
///     let tune = Span::root(Some(sink.clone()), "ddot@P4E/oc", "tune");
///     let _parse = tune.child("parse"); // dropped first → emitted first
/// }
/// let spans = sink.spans();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[0].stage, "parse");
/// assert_eq!(spans[0].parent, Some(spans[1].id));
/// ```
pub struct Span {
    sink: Option<Arc<dyn TraceSink>>,
    scope: Arc<str>,
    stage: &'static str,
    id: u64,
    parent: Option<u64>,
    start: std::time::Instant,
}

impl Span {
    /// A root span (no parent).
    pub fn root(sink: Option<Arc<dyn TraceSink>>, scope: &str, stage: &'static str) -> Span {
        Span::with_parent(sink, scope, stage, None)
    }

    /// A span under an explicit parent id (used when the parent guard
    /// lives on another thread).
    pub fn with_parent(
        sink: Option<Arc<dyn TraceSink>>,
        scope: &str,
        stage: &'static str,
        parent: Option<u64>,
    ) -> Span {
        Span {
            sink,
            scope: Arc::from(scope),
            stage,
            id: next_span_id(),
            parent,
            start: std::time::Instant::now(),
        }
    }

    /// A child of this span.
    pub fn child(&self, stage: &'static str) -> Span {
        Span {
            sink: self.sink.clone(),
            scope: self.scope.clone(),
            stage,
            id: next_span_id(),
            parent: Some(self.id),
            start: std::time::Instant::now(),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Backdate the span to `start`, for a span that can only be opened
    /// once the work it covers has begun (the `tune` root of a freshly
    /// opened subject, whose scope key is known only after the parse).
    pub fn since(mut self, start: std::time::Instant) -> Span {
        self.start = start;
        self
    }

    /// Emit a span for an already-measured duration (used for stages
    /// timed by callee hooks, e.g. the FKO compile pipeline).
    pub fn emit(
        sink: &Option<Arc<dyn TraceSink>>,
        scope: &str,
        stage: &'static str,
        parent: Option<u64>,
        wall: std::time::Duration,
    ) {
        if let Some(sink) = sink {
            sink.record(&SearchEvent::Span(SpanEvent {
                scope: scope.to_string(),
                stage: stage.to_string(),
                id: next_span_id(),
                parent,
                wall_us: wall.as_micros() as u64,
            }));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            sink.record(&SearchEvent::Span(SpanEvent {
                scope: self.scope.to_string(),
                stage: self.stage.to_string(),
                id: self.id,
                parent: self.parent,
                wall_us: self.start.elapsed().as_micros() as u64,
            }));
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// In-memory sink for tests and ad-hoc inspection.
#[derive(Default)]
pub struct MemSink {
    events: Mutex<Vec<SearchEvent>>,
}

impl MemSink {
    pub fn new() -> Arc<MemSink> {
        Arc::new(MemSink::default())
    }
    /// Snapshot of all recorded events (evaluations and spans).
    pub fn events(&self) -> Vec<SearchEvent> {
        self.events.lock().unwrap().clone()
    }
    /// Snapshot of the evaluation events only, in record order.
    pub fn evals(&self) -> Vec<EvalEvent> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter_map(|e| e.as_eval().cloned())
            .collect()
    }
    /// Snapshot of the span events only, in record order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter_map(|e| e.as_span().cloned())
            .collect()
    }
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemSink {
    fn record(&self, ev: &SearchEvent) {
        self.events.lock().unwrap().push(ev.clone());
    }
}

/// JSONL file sink (one event per line), created by `--trace PATH`.
/// Writes are buffered; the buffer is flushed explicitly via
/// [`TraceSink::flush`] and unconditionally on drop, so a trace file is
/// complete whenever the sink is gone.
pub struct JsonlSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    path: PathBuf,
}

impl JsonlSink {
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Arc<JsonlSink>> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::File::create(&path)?;
        Ok(Arc::new(JsonlSink {
            out: Mutex::new(std::io::BufWriter::new(file)),
            path,
        }))
    }
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, ev: &SearchEvent) {
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(out, "{}", ev.to_json());
    }
    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// Trace reading
// ---------------------------------------------------------------------------

/// A re-read trace: the decoded events plus the malformed-line count.
#[derive(Default)]
pub struct TraceData {
    pub events: Vec<SearchEvent>,
    pub malformed: usize,
}

/// Decode one trace line: `None` for a malformed one. Span lines are
/// distinguished by their `"span"` key; everything else must look like
/// an eval event.
pub fn parse_trace_line(line: &str) -> Option<SearchEvent> {
    event(&parse_json(line)?).ok()
}

fn event(v: &Json) -> Result<SearchEvent, FieldError> {
    if let Some(stage) = v.field("span")? {
        return Ok(SearchEvent::Span(SpanEvent {
            stage,
            scope: v.req("scope")?,
            id: v.req("id")?,
            parent: v.req("parent")?,
            wall_us: v.req("wall_us")?,
        }));
    }
    Ok(SearchEvent::Eval(EvalEvent {
        scope: v.req("scope")?,
        phase: v.req("phase")?,
        params: v.req("params")?,
        cycles: v.req("cycles")?,
        verified: v.req("verified")?,
        cache_hit: v.req("cache_hit")?,
        wall_us: v.req("wall_us")?,
        stats: v.field("stats")?.map(parse_stats).transpose()?,
        predicted: v.field("predicted")?,
        pruned: v.field("pruned")?,
        strategy: v.field("strategy")?.unwrap_or_default(),
        retries: v.field("retries")?.unwrap_or(0),
        faults: v.field("faults")?.unwrap_or(0),
        outliers: v.field("outliers")?.unwrap_or(0),
        failed: v.field("failed")?.unwrap_or(false),
        worker: v.field("worker")?,
    }))
}

/// Parse a trace `stats` object via [`RunStats::FIELDS`] — the same
/// table the writer ([`stats_json`]) iterates, so new counters
/// cannot drift between writer and reader. `cycles` must be present;
/// counters missing from older traces default to zero.
pub(crate) fn parse_stats(v: &Json) -> Result<RunStats, FieldError> {
    v.req::<u64>("cycles")?;
    let mut s = RunStats::default();
    for (name, _, set) in RunStats::FIELDS {
        set(&mut s, v.field(name)?.unwrap_or(0));
    }
    Ok(s)
}

/// Read a trace file, skipping (and counting) malformed lines — a
/// truncated tail or a stray non-UTF-8 byte costs that line only.
pub fn read_trace(path: impl AsRef<Path>) -> std::io::Result<TraceData> {
    let file = std::fs::File::open(path)?;
    let mut events = Vec::new();
    let mut loaded = journal::Loaded::default();
    journal::scan_lines(file, &mut loaded, |line| {
        parse_trace_line(line).map(|ev| events.push(ev)).is_some()
    })?;
    Ok(TraceData {
        events,
        malformed: loaded.malformed as usize,
    })
}

/// Read several trace files as one: events in file order, malformed
/// lines summed.
pub fn read_traces(paths: &[impl AsRef<Path>]) -> std::io::Result<TraceData> {
    let mut all = TraceData::default();
    for p in paths {
        let data = read_trace(p)?;
        all.events.extend(data.events);
        all.malformed += data.malformed;
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shape() {
        let ev = EvalEvent {
            scope: "s".into(),
            phase: "UR".into(),
            params: "p".into(),
            cycles: Some(5),
            verified: true,
            cache_hit: false,
            wall_us: 9,
            stats: None,
            predicted: None,
            pruned: None,
            strategy: String::new(),
            retries: 0,
            faults: 0,
            outliers: 0,
            failed: false,
            worker: None,
        };
        assert_eq!(
            ev.to_json(),
            "{\"scope\":\"s\",\"phase\":\"UR\",\"params\":\"p\",\"cycles\":5,\"verified\":true,\"cache_hit\":false,\"wall_us\":9}"
        );
        let tagged = EvalEvent {
            strategy: "line".into(),
            ..ev.clone()
        };
        assert!(tagged
            .to_json()
            .ends_with("\"wall_us\":9,\"strategy\":\"line\"}"));
        let modeled = EvalEvent {
            predicted: Some(1234),
            pruned: Some("unroll-too-large".to_string()),
            ..ev.clone()
        };
        assert!(modeled
            .to_json()
            .ends_with("\"wall_us\":9,\"predicted\":1234,\"pruned\":\"unroll-too-large\"}"));
        let chaotic = EvalEvent {
            retries: 2,
            faults: 3,
            outliers: 1,
            failed: true,
            ..ev.clone()
        };
        assert!(chaotic
            .to_json()
            .ends_with("\"wall_us\":9,\"retries\":2,\"faults\":3,\"outliers\":1,\"failed\":true}"));
        let with_stats = EvalEvent {
            stats: Some(RunStats {
                cycles: 5,
                insts: 3,
                ..Default::default()
            }),
            ..ev
        };
        let j = with_stats.to_json();
        assert!(j.contains("\"stats\":{\"cycles\":5,\"insts\":3,"));
        assert!(j.ends_with("\"mispredicts\":0}}"));
    }

    #[test]
    fn span_json_shape_and_nesting() {
        let sink = MemSink::new();
        {
            let root = Span::root(Some(sink.clone()), "sc", "tune");
            let child = root.child("parse");
            drop(child);
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "parse");
        assert_eq!(spans[1].stage, "tune");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        let j = spans[1].to_json();
        assert!(j.starts_with("{\"span\":\"tune\",\"scope\":\"sc\",\"id\":"));
        assert!(j.contains("\"parent\":null"));
    }

    /// A count past `u32` or of the wrong type makes its line malformed
    /// (skipped and counted by the reader), never a truncated or zeroed
    /// count; an absent count still reads as 0.
    #[test]
    fn out_of_range_or_mistyped_counts_make_the_line_malformed() {
        let ev = EvalEvent {
            scope: "s".into(),
            phase: "UR".into(),
            params: "p".into(),
            cycles: Some(5),
            verified: true,
            cache_hit: false,
            wall_us: 9,
            stats: None,
            predicted: None,
            pruned: None,
            strategy: String::new(),
            retries: 0,
            faults: 0,
            outliers: 0,
            failed: false,
            worker: None,
        };
        let good = ev.to_json();
        let with =
            |field: &str, value: &str| format!("{},\"{field}\":{value}}}", &good[..good.len() - 1]);
        let mut lines = vec![good.clone(), with("retries", "4294967295")];
        for field in ["retries", "faults", "outliers", "worker"] {
            for bad in ["4294967297", "\"x\""] {
                assert!(
                    parse_trace_line(&with(field, bad)).is_none(),
                    "{field}: {bad}"
                );
                lines.push(with(field, bad));
            }
        }
        match parse_trace_line(&good) {
            Some(SearchEvent::Eval(back)) => assert_eq!(back, ev),
            other => panic!("{other:?}"),
        }
        let path =
            std::env::temp_dir().join(format!("ifko-trace-counts-{}.jsonl", std::process::id()));
        std::fs::write(&path, lines.join("\n")).unwrap();
        let data = read_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!((data.events.len(), data.malformed), (2, 8));
        let report = crate::report::render(
            &crate::report::analyze(&data.events, data.malformed),
            crate::report::ReportFormat::Text,
        );
        assert!(report.contains("(8 malformed lines skipped)"), "{report}");
        let retries = data.events.iter().filter_map(SearchEvent::as_eval);
        let retries: Vec<u32> = retries.map(|e| e.retries).collect();
        assert_eq!(retries, [0, u32::MAX]);
    }
}
