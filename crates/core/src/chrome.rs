//! Chrome `trace_event` (Perfetto) export of the search-event stream.
//!
//! [`ChromeTraceSink`] is a [`TraceSink`] that buffers every
//! [`SearchEvent`] a tune emits and, on flush/drop, renders them as a
//! Chrome trace JSON object (`{"traceEvents": [...]}`) that opens
//! directly in Perfetto or `chrome://tracing`. The whole tune becomes a
//! flame chart: the span tree (tune → parse / search → eval → compile →
//! per-stage) on one track, every candidate evaluation (phase, params,
//! cycles, cache hits, retries, chaos faults) on a second, and — when
//! `--profile-pipeline` is on — the session's [`StageProfile`] totals on
//! a third.
//!
//! Span records carry a duration and a parent id but no start timestamp
//! (they are emitted on guard drop, children before parents, and
//! fault-free trace bytes are frozen by compatibility tests — adding a
//! field is not an option). The exporter therefore *synthesizes* a
//! deterministic timeline from the tree: a span's children are laid out
//! sequentially from its start, and a span's rendered duration is
//! `max(own wall_us, sum of children)`, which guarantees every child
//! nests strictly inside its parent — exactly the invariant
//! [`validate_chrome_trace`] (and CI) checks. Wall-clock overlap between
//! parallel workers is intentionally serialized; the chart shows
//! attribution, not concurrency.

use crate::eval::{EvalEvent, SearchEvent, SpanEvent, TraceSink};
use crate::json::{esc, parse_json, Json};
use ifko_fko::StageProfile;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Buffering sink; see the module docs. Create with
/// [`ChromeTraceSink::create`], share as `Arc`, and either let the last
/// drop write the file or call [`ChromeTraceSink::flush`] explicitly.
pub struct ChromeTraceSink {
    path: PathBuf,
    events: Mutex<Vec<SearchEvent>>,
    profile: Mutex<Vec<StageProfile>>,
}

impl ChromeTraceSink {
    /// Create a sink writing to `path` (parent directories are created,
    /// and the file, so a path that cannot be written fails here; the
    /// trace itself is written on flush/drop).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Arc<ChromeTraceSink>> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::File::create(&path)?;
        Ok(Arc::new(ChromeTraceSink {
            path,
            events: Mutex::new(Vec::new()),
            profile: Mutex::new(Vec::new()),
        }))
    }

    /// Attach the pipeline stage profile (`--profile-pipeline`) so it
    /// renders as its own track.
    pub fn add_profile(&self, rows: &[StageProfile]) {
        self.profile.lock().unwrap().extend(rows.iter().cloned());
    }

    /// Render the buffered events to the target file.
    pub fn write_out(&self) -> std::io::Result<()> {
        let events = self.events.lock().unwrap().clone();
        let profile = self.profile.lock().unwrap().clone();
        std::fs::write(&self.path, render_chrome(&events, &profile))
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&self, ev: &SearchEvent) {
        self.events.lock().unwrap().push(ev.clone());
    }
    fn flush(&self) {
        let _ = self.write_out();
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        let _ = self.write_out();
    }
}

const SPAN_TID: u64 = 1;
const EVAL_TID: u64 = 2;
const PROFILE_TID: u64 = 3;

/// Render an event stream (+ optional stage profile) as a Chrome trace
/// JSON string. Deterministic for a given input.
pub fn render_chrome(events: &[SearchEvent], profile: &[StageProfile]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    // Track names.
    for (tid, name) in [
        (SPAN_TID, "pipeline spans"),
        (EVAL_TID, "candidates"),
        (PROFILE_TID, "stage profile"),
    ] {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    push(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ifko tune\"}}"
            .to_string(),
    );

    // --- Span track: synthesized nested timeline -------------------------
    let spans: Vec<&SpanEvent> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    let ids: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent.filter(|p| ids.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    // Spans arrive children-first (guard drop order); lay each subtree
    // out recursively. An explicit stack avoids recursion depth limits.
    fn layout(
        idx: usize,
        start: u64,
        spans: &[&SpanEvent],
        children: &HashMap<u64, Vec<usize>>,
        out: &mut Vec<(usize, u64, u64)>,
    ) -> u64 {
        let s = spans[idx];
        let mut cursor = start;
        for &c in children.get(&s.id).map_or(&[][..], |v| v.as_slice()) {
            cursor = layout(c, cursor, spans, children, out);
        }
        let end = start + (cursor - start).max(s.wall_us);
        out.push((idx, start, end - start));
        end
    }
    let mut placed: Vec<(usize, u64, u64)> = Vec::new();
    let mut cursor = 0u64;
    for &r in &roots {
        cursor = layout(r, cursor, &spans, &children, &mut placed);
    }
    placed.sort_by_key(|&(_, ts, dur)| (ts, std::cmp::Reverse(dur)));
    for (idx, ts, dur) in placed {
        let s = spans[idx];
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{SPAN_TID},\"name\":\"{}\",\"cat\":\"span\",\
                 \"ts\":{ts},\"dur\":{dur},\"args\":{{\"scope\":\"{}\",\"id\":{},\
                 \"parent\":{},\"wall_us\":{}}}}}",
                esc(&s.stage),
                esc(&s.scope),
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.wall_us,
            ),
        );
    }

    // --- Candidate track: one slice per evaluation, in trace order -------
    let mut ets = 0u64;
    for e in events {
        let SearchEvent::Eval(e) = e else { continue };
        let dur = e.wall_us.max(1);
        push(&mut out, eval_slice(e, ets, dur));
        ets += dur;
    }

    // --- Stage-profile track ---------------------------------------------
    let mut pts = 0u64;
    for row in profile {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{PROFILE_TID},\"name\":\"{}\",\
                 \"cat\":\"profile\",\"ts\":{pts},\"dur\":{},\"args\":{{\"count\":{},\
                 \"min_us\":{},\"median_us\":{}}}}}",
                esc(row.stage),
                row.total_us.max(1),
                row.count,
                row.min_us,
                row.median_us,
            ),
        );
        pts += row.total_us.max(1);
    }

    out.push_str("\n]}\n");
    out
}

fn eval_slice(e: &EvalEvent, ts: u64, dur: u64) -> String {
    let mut name = e.phase.clone();
    if e.cache_hit {
        name.push_str(" (cache)");
    } else if e.pruned.is_some() {
        name.push_str(" (pruned)");
    } else if e.failed {
        name.push_str(" (failed)");
    }
    let mut args = format!(
        "{{\"scope\":\"{}\",\"params\":\"{}\",\"cycles\":{},\"verified\":{},\
         \"cache_hit\":{}",
        esc(&e.scope),
        esc(&e.params),
        e.cycles.map_or("null".to_string(), |c| c.to_string()),
        e.verified,
        e.cache_hit,
    );
    if !e.strategy.is_empty() {
        let _ = write!(args, ",\"strategy\":\"{}\"", esc(&e.strategy));
    }
    if let Some(p) = &e.pruned {
        let _ = write!(args, ",\"pruned\":\"{}\"", esc(p));
    }
    if e.retries > 0 {
        let _ = write!(args, ",\"retries\":{}", e.retries);
    }
    if e.faults > 0 {
        let _ = write!(args, ",\"faults\":{}", e.faults);
    }
    if let Some(st) = &e.stats {
        let _ = write!(
            args,
            ",\"ipc\":{:.4},\"l1_miss_ratio\":{:.4},\"l2_miss_ratio\":{:.4},\
             \"prefetch_efficacy\":{:.4}",
            st.ipc(),
            st.l1_miss_ratio(),
            st.l2_miss_ratio(),
            st.prefetch_efficacy()
        );
    }
    args.push('}');
    format!(
        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{EVAL_TID},\"name\":\"{}\",\"cat\":\"eval\",\
         \"ts\":{ts},\"dur\":{dur},\"args\":{args}}}",
        esc(&name),
    )
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    pub events: usize,
    pub spans: usize,
    pub evals: usize,
}

/// Check that `text` is valid Chrome `trace_event` JSON and that the
/// complete (`"ph":"X"`) events on every thread nest properly: sorted by
/// start time, each slice either begins after the enclosing slice ends
/// or fits entirely inside it. This is the structural invariant Perfetto
/// needs to draw a flame chart, and the invariant the synthesized
/// timeline promises; `ifko explain --check-chrome` and CI call this.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let v = parse_json(text).ok_or("not valid JSON")?;
    let Some(Json::Arr(events)) = v.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    let mut summary = ChromeTraceSummary {
        events: events.len(),
        ..Default::default()
    };
    let mut by_tid: HashMap<u64, Vec<(u64, u64, String)>> = HashMap::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event without ph")?;
        if ph != "X" {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("X event without name")?
            .to_string();
        let tid = ev.get("tid").and_then(Json::as_u64).ok_or("missing tid")?;
        let ts = ev.get("ts").and_then(Json::as_u64).ok_or("missing ts")?;
        let dur = ev.get("dur").and_then(Json::as_u64).ok_or("missing dur")?;
        match ev.get("cat").and_then(Json::as_str) {
            Some("span") => summary.spans += 1,
            Some("eval") => summary.evals += 1,
            _ => {}
        }
        by_tid.entry(tid).or_default().push((ts, dur, name));
    }
    for (tid, mut slices) in by_tid {
        slices.sort_by_key(|&(ts, dur, _)| (ts, std::cmp::Reverse(dur)));
        let mut stack: Vec<(u64, u64, String)> = Vec::new();
        for (ts, dur, name) in slices {
            while let Some(top) = stack.last() {
                if ts >= top.0 + top.1 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some((tts, tdur, tname)) = stack.last() {
                if ts + dur > tts + tdur {
                    return Err(format!(
                        "tid {tid}: slice `{name}` [{ts},{}) overflows enclosing `{tname}` \
                         [{tts},{})",
                        ts + dur,
                        tts + tdur
                    ));
                }
            }
            stack.push((ts, dur, name));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Span;
    use crate::eval::{MemSink, SearchEvent};

    fn eval_event(phase: &str, cycles: u64, wall: u64) -> SearchEvent {
        SearchEvent::Eval(EvalEvent {
            scope: "k@m/oc/n64/s1/r1".into(),
            phase: phase.into(),
            params: "simd=1".into(),
            cycles: Some(cycles),
            verified: true,
            cache_hit: false,
            wall_us: wall,
            stats: None,
            predicted: None,
            pruned: None,
            strategy: "line".into(),
            retries: 0,
            faults: 0,
            outliers: 0,
            failed: false,
            worker: None,
        })
    }

    #[test]
    fn renders_valid_nested_trace() {
        let sink = MemSink::new();
        let dyn_sink: std::sync::Arc<dyn TraceSink> = sink.clone();
        {
            let root = Span::root(Some(dyn_sink.clone()), "k", "tune");
            {
                let eval = root.child("eval");
                let _compile = eval.child("compile");
            }
            let _finalt = root.child("final-time");
        }
        let mut events: Vec<SearchEvent> = sink.events();
        events.push(eval_event("SEED", 100, 7));
        events.push(eval_event("SV", 80, 5));
        let profile = vec![StageProfile {
            stage: "xform",
            count: 2,
            min_us: 1,
            median_us: 2,
            total_us: 5,
        }];
        let text = render_chrome(&events, &profile);
        let summary = validate_chrome_trace(&text).expect("trace must validate");
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.evals, 2);
        // Deterministic output.
        assert_eq!(text, render_chrome(&events, &profile));
    }

    #[test]
    fn sink_writes_on_flush_and_validates() {
        let dir = std::env::temp_dir().join(format!("ifko-chrome-{}", std::process::id()));
        let path = dir.join("trace.json");
        let sink = ChromeTraceSink::create(&path).unwrap();
        let dyn_sink: std::sync::Arc<dyn TraceSink> = sink.clone();
        {
            let root = Span::root(Some(dyn_sink.clone()), "k", "tune");
            let _child = root.child("search");
        }
        sink.record(&eval_event("SEED", 42, 3));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.evals, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_rejects_overflowing_slices() {
        let bad = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"name":"a","ts":0,"dur":10},
            {"ph":"X","pid":1,"tid":1,"name":"b","ts":5,"dur":10}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }
}
