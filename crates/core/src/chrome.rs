//! Chrome `trace_event` (Perfetto) rendering of a search trace.
//!
//! The JSONL trace (`--trace PATH`) is the one record stream a tune
//! writes; this module is one view of it. `ifko report TRACE.jsonl
//! --format chrome` reads the file back and [`render_chrome`] turns its
//! events into a Chrome trace JSON object (`{"traceEvents": [...]}`) that
//! opens directly in Perfetto or `chrome://tracing`. The whole tune
//! becomes a flame chart: the span tree (tune → parse / search → eval →
//! compile → per-stage) on one track, and every candidate evaluation
//! (phase, params, cycles, cache hits, retries, chaos faults) on a
//! second.
//!
//! Span records carry a duration and a parent id but no start timestamp
//! (they are emitted on guard drop, children before parents, and
//! fault-free trace bytes are frozen by compatibility tests — adding a
//! field is not an option). The renderer therefore *synthesizes* a
//! deterministic timeline from the tree: a span's children are laid out
//! sequentially from its start, and a span's rendered duration is
//! `max(own wall_us, sum of children)`, which guarantees every child
//! nests strictly inside its parent. Wall-clock overlap between parallel
//! workers is intentionally serialized; the chart shows attribution, not
//! concurrency.
//!
//! Span ids come from a per-process counter, so two trace files reuse
//! the same ids: a rendering reads one trace, never a merge of several.

use crate::eval::{EvalEvent, SearchEvent, SpanEvent};
use crate::json::{obj, Fixed, Obj, Raw};
use ifko_xsim::RunStats;
use std::collections::HashMap;

const SPAN_TID: u64 = 1;
const EVAL_TID: u64 = 2;

/// Render an event stream as a Chrome trace JSON string. Deterministic
/// for a given input.
pub fn render_chrome(events: &[SearchEvent]) -> String {
    // One event a line.
    let mut lines: Vec<String> = Vec::new();

    // Track names.
    let meta = |tid: u64, what: &str, name: &str| {
        obj()
            .field("ph", "M")
            .field("pid", 1u64)
            .field("tid", tid)
            .field("name", what)
            .field("args", obj().field("name", name))
            .finish()
    };
    for (tid, name) in [(SPAN_TID, "pipeline spans"), (EVAL_TID, "candidates")] {
        lines.push(meta(tid, "thread_name", name));
    }
    lines.push(meta(1, "process_name", "ifko tune"));

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
        let args = obj()
            .field("scope", &s.scope)
            .field("id", s.id)
            .field("parent", s.parent)
            .field("wall_us", s.wall_us);
        lines.push(slice(SPAN_TID, &s.stage, "span", ts, dur, args));
    }

    // --- Candidate track: one slice per evaluation, in trace order -------
    let mut ets = 0u64;
    for e in events {
        let SearchEvent::Eval(e) = e else { continue };
        let dur = e.wall_us.max(1);
        lines.push(eval_slice(e, ets, dur));
        ets += dur;
    }

    let events = format!("[\n{}\n]", lines.join(",\n"));
    let chrome = obj()
        .field("displayTimeUnit", "ms")
        .field("traceEvents", Raw(&events));
    chrome.finish() + "\n"
}

/// One complete (`"ph":"X"`) slice on track `tid`.
fn slice(tid: u64, name: &str, cat: &str, ts: u64, dur: u64, args: Obj) -> String {
    obj()
        .field("ph", "X")
        .field("pid", 1u64)
        .field("tid", tid)
        .field("name", name)
        .field("cat", cat)
        .field("ts", ts)
        .field("dur", dur)
        .field("args", args)
        .finish()
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
    let stats = e.stats.as_ref();
    let ratio = |f: fn(&RunStats) -> f64| stats.map(|st| Fixed(f(st), 4));
    let args = obj()
        .field("scope", &e.scope)
        .field("params", &e.params)
        .field("cycles", e.cycles)
        .field("verified", e.verified)
        .field("cache_hit", e.cache_hit)
        .maybe("strategy", Some(&e.strategy).filter(|s| !s.is_empty()))
        .maybe("pruned", e.pruned.as_ref())
        .maybe("retries", Some(e.retries).filter(|&n| n > 0))
        .maybe("faults", Some(e.faults).filter(|&n| n > 0))
        .maybe("ipc", ratio(RunStats::ipc))
        .maybe("l1_miss_ratio", ratio(RunStats::l1_miss_ratio))
        .maybe("l2_miss_ratio", ratio(RunStats::l2_miss_ratio))
        .maybe("prefetch_efficacy", ratio(RunStats::prefetch_efficacy));
    slice(EVAL_TID, &name, "eval", ts, dur, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{MemSink, Span, TraceSink};
    use crate::json::{parse_json, Json};
    use crate::prelude::*;
    use crate::trace::{parse_trace_line, read_trace};

    /// Check that `text` is valid Chrome `trace_event` JSON and that the
    /// complete (`"ph":"X"`) events on every thread nest properly: sorted
    /// by start time, each slice either begins after the enclosing slice
    /// ends or fits entirely inside it. This is the structural invariant
    /// Perfetto needs to draw a flame chart, and the one the synthesized
    /// timeline promises. Returns the span and candidate slice counts.
    fn validate_chrome_trace(text: &str) -> Result<(usize, usize), String> {
        let v = parse_json(text).ok_or("not valid JSON")?;
        let Some(Json::Arr(events)) = v.get("traceEvents") else {
            return Err("missing traceEvents array".into());
        };
        let (mut spans, mut evals) = (0, 0);
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
                Some("span") => spans += 1,
                Some("eval") => evals += 1,
                _ => {}
            }
            by_tid.entry(tid).or_default().push((ts, dur, name));
        }
        for (tid, mut slices) in by_tid {
            slices.sort_by_key(|&(ts, dur, _)| (ts, std::cmp::Reverse(dur)));
            let mut stack: Vec<(u64, u64, String)> = Vec::new();
            for (ts, dur, name) in slices {
                while stack.last().is_some_and(|top| ts >= top.0 + top.1) {
                    stack.pop();
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
        Ok((spans, evals))
    }

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
        let text = render_chrome(&events);
        assert_eq!(validate_chrome_trace(&text), Ok((4, 2)));
        // Deterministic output.
        assert_eq!(text, render_chrome(&events));
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

    /// The committed sample trace renders byte-identically to its golden
    /// file, whose slices nest. Regenerate the golden with:
    /// `target/release/ifko report crates/core/tests/fixtures/sample-trace.jsonl \
    ///    --format chrome > crates/core/tests/fixtures/sample-trace.chrome.json`
    #[test]
    fn sample_trace_renders_its_golden() {
        let fixture = |name: &str| format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let trace = read_trace(fixture("sample-trace.jsonl")).unwrap();
        let want = std::fs::read_to_string(fixture("sample-trace.chrome.json")).unwrap();
        assert_eq!(
            render_chrome(&trace.events),
            want,
            "chrome drifted from the golden file"
        );
        let (spans, evals) = validate_chrome_trace(&want).unwrap();
        assert_eq!(spans, 15);
        assert_eq!(
            evals,
            trace.events.iter().filter_map(SearchEvent::as_eval).count()
        );
    }

    /// A live tune's events render to the same bytes as those events
    /// written to JSONL and read back: rendering after the fact, from the
    /// trace file, loses nothing a live sink would have seen.
    #[test]
    fn rendering_from_the_file_loses_nothing() {
        let sink = MemSink::new();
        TuneConfig::quick(1024)
            .trace(sink.clone())
            .tune(Kernel {
                op: BlasOp::Dot,
                prec: Prec::D,
            })
            .unwrap();
        let live = sink.events();
        assert!(live
            .iter()
            .any(|e| e.as_eval().is_some_and(|e| e.stats.is_some())));
        assert!(live.iter().any(|e| e.as_span().is_some()));
        let reread: Vec<SearchEvent> = live
            .iter()
            .map(|e| parse_trace_line(&e.to_json()).unwrap())
            .collect();
        assert_eq!(render_chrome(&live), render_chrome(&reread));
    }
}
