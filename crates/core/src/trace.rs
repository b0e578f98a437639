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
use crate::json::{esc, parse_json, Json};
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
    /// code, or `model-rank` for cost-model pruning.
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
        let mut s = format!(
            "{{\"scope\":\"{}\",\"phase\":\"{}\",\"params\":\"{}\",\"cycles\":{},\"verified\":{},\"cache_hit\":{},\"wall_us\":{}",
            esc(&self.scope),
            esc(&self.phase),
            esc(&self.params),
            self.cycles.map_or("null".to_string(), |c| c.to_string()),
            self.verified,
            self.cache_hit,
            self.wall_us,
        );
        if !self.strategy.is_empty() {
            s.push_str(&format!(",\"strategy\":\"{}\"", esc(&self.strategy)));
        }
        if let Some(st) = &self.stats {
            s.push_str(&format!(",\"stats\":{}", stats_json(st)));
        }
        // Model-era field: only present when a cost model was attached,
        // so model-free traces stay byte-identical to older readers.
        if let Some(p) = self.predicted {
            s.push_str(&format!(",\"predicted\":{p}"));
        }
        if let Some(why) = &self.pruned {
            s.push_str(&format!(",\"pruned\":\"{}\"", esc(why)));
        }
        // Chaos-era fields ride at the end and only when set, so traces
        // from fault-free runs stay byte-identical to older readers.
        if self.retries > 0 {
            s.push_str(&format!(",\"retries\":{}", self.retries));
        }
        if self.faults > 0 {
            s.push_str(&format!(",\"faults\":{}", self.faults));
        }
        if self.outliers > 0 {
            s.push_str(&format!(",\"outliers\":{}", self.outliers));
        }
        if self.failed {
            s.push_str(",\"failed\":true");
        }
        // Worker-pool tag: only present for pooled evaluations, so
        // in-process traces stay byte-identical to older readers.
        if let Some(w) = self.worker {
            s.push_str(&format!(",\"worker\":{w}"));
        }
        s.push('}');
        s
    }
}

impl SpanEvent {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"span\":\"{}\",\"scope\":\"{}\",\"id\":{},\"parent\":{},\"wall_us\":{}}}",
            esc(&self.stage),
            esc(&self.scope),
            self.id,
            self.parent.map_or("null".to_string(), |p| p.to_string()),
            self.wall_us,
        )
    }
}

/// Serialize the simulator counters as one flat JSON object. Field
/// names and order come from [`RunStats::FIELDS`] — the same table
/// `parse_stats` reads — so writer and reader cannot drift.
pub fn stats_json(s: &RunStats) -> String {
    let mut out = String::with_capacity(RunStats::FIELDS.len() * 24);
    out.push('{');
    for (i, (name, get, _)) in RunStats::FIELDS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{}", get(s)));
    }
    out.push('}');
    out
}

/// Where search events go. Implementations must tolerate concurrent
/// searches and worker threads (span guards drop inside the parallel
/// section; multiple engines may share one sink).
pub trait TraceSink: Send + Sync {
    fn record(&self, ev: &SearchEvent);
    /// Flush buffered output (no-op by default).
    fn flush(&self) {}
}

/// Fan one search-event stream out to several sinks — how a single tune
/// feeds a JSONL trace (`--trace`) and a Chrome trace (`--trace-chrome`)
/// at the same time.
pub struct TeeSink(Vec<Arc<dyn TraceSink>>);

impl TeeSink {
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Arc<TeeSink> {
        Arc::new(TeeSink(sinks))
    }
    pub fn pair(a: Arc<dyn TraceSink>, b: Arc<dyn TraceSink>) -> Arc<TeeSink> {
        TeeSink::new(vec![a, b])
    }
}

impl TraceSink for TeeSink {
    fn record(&self, ev: &SearchEvent) {
        for s in &self.0 {
            s.record(ev);
        }
    }
    fn flush(&self) {
        for s in &self.0 {
            s.flush();
        }
    }
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

/// Decode one trace line. Span lines are distinguished by their `"span"`
/// key; everything else must look like an eval event.
pub fn parse_trace_line(line: &str) -> Option<SearchEvent> {
    let v = parse_json(line)?;
    if let Some(stage) = v.get("span") {
        return Some(SearchEvent::Span(SpanEvent {
            stage: stage.as_str()?.to_string(),
            scope: v.get("scope")?.as_str()?.to_string(),
            id: v.get("id")?.as_u64()?,
            parent: match v.get("parent")? {
                Json::Null => None,
                p => Some(p.as_u64()?),
            },
            wall_us: v.get("wall_us")?.as_u64()?,
        }));
    }
    Some(SearchEvent::Eval(EvalEvent {
        scope: v.get("scope")?.as_str()?.to_string(),
        phase: v.get("phase")?.as_str()?.to_string(),
        params: v.get("params")?.as_str()?.to_string(),
        cycles: match v.get("cycles")? {
            Json::Null => None,
            c => Some(c.as_u64()?),
        },
        verified: v.get("verified")?.as_bool()?,
        cache_hit: v.get("cache_hit")?.as_bool()?,
        wall_us: v.get("wall_us")?.as_u64()?,
        stats: v.get("stats").and_then(parse_stats),
        predicted: v.get("predicted").and_then(Json::as_u64),
        pruned: v.get("pruned").and_then(Json::as_str).map(str::to_string),
        strategy: v
            .get("strategy")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        retries: v.get("retries").and_then(Json::as_u64).unwrap_or(0) as u32,
        faults: v.get("faults").and_then(Json::as_u64).unwrap_or(0) as u32,
        outliers: v.get("outliers").and_then(Json::as_u64).unwrap_or(0) as u32,
        failed: v.get("failed").and_then(Json::as_bool).unwrap_or(false),
        worker: v.get("worker").and_then(Json::as_u64).map(|w| w as u32),
    }))
}

/// Parse a trace `stats` object via [`RunStats::FIELDS`] — the same
/// table the writer ([`stats_json`]) iterates, so new counters
/// cannot drift between writer and reader. `cycles` must be present;
/// counters missing from older traces default to zero.
pub(crate) fn parse_stats(v: &Json) -> Option<RunStats> {
    v.get("cycles")?.as_u64()?;
    let mut s = RunStats::default();
    for (name, _, set) in RunStats::FIELDS {
        set(&mut s, v.get(name).and_then(Json::as_u64).unwrap_or(0));
    }
    Some(s)
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
    use crate::eval::PRUNE_MODEL_RANK;

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
            pruned: Some(PRUNE_MODEL_RANK.to_string()),
            ..ev.clone()
        };
        assert!(modeled
            .to_json()
            .ends_with("\"wall_us\":9,\"predicted\":1234,\"pruned\":\"model-rank\"}"));
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
}
