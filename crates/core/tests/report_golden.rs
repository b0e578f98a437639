//! The trace analyzer against committed fixtures: every fixture must
//! produce byte-identical output (golden files), and traces
//! written by [`JsonlSink`] must round-trip through [`read_trace`] —
//! including surviving corrupted lines.

use ifko::eval::{EvalEvent, JsonlSink, SearchEvent, SpanEvent, TraceSink};
use ifko::prelude::*;
use ifko::report::{analyze, read_trace, render, report_files, ReportFormat};
use std::sync::Arc;

mod common;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Every committed trace fixture: the hand-authored one and the two
/// frozen live traces (without and with cost-model predictions).
const TRACES: [&str; 3] = ["sample-trace", "explain-trace", "explain-model-trace"];

/// `ifko report` over each fixture `T.jsonl` in `format` is byte-identical
/// to the golden `T.report.{ext}`. Regenerate one with:
/// `target/release/ifko report crates/core/tests/fixtures/T.jsonl \
///    --format FORMAT > crates/core/tests/fixtures/T.report.EXT`
fn assert_goldens(ext: &str, format: ReportFormat) {
    for t in TRACES {
        let got = report_files(&[fixture(&format!("{t}.jsonl"))], format).unwrap();
        let want = std::fs::read_to_string(fixture(&format!("{t}.report.{ext}"))).unwrap();
        assert_eq!(got, want, "{t}: report {ext} drifted from the golden file");
    }
}

#[test]
fn golden_text_reports() {
    assert_goldens("txt", ReportFormat::Text);
}

/// Markdown is a rendering of the same document as the text: the same
/// lines and table cells, under `##` headings and in pipe tables.
#[test]
fn golden_markdown_reports() {
    assert_goldens("md", ReportFormat::Markdown);
}

/// JSON is a third rendering of the same document: the same headings,
/// lines and table cells as the text, as an array of blocks.
#[test]
fn json_carries_the_texts_blocks() {
    for t in TRACES {
        let path = [fixture(&format!("{t}.jsonl"))];
        let json = report_files(&path, ReportFormat::Json).unwrap();
        let text = report_files(&path, ReportFormat::Text).unwrap();
        common::assert_json_follows_text(&json, &text);
    }
}

/// `ifko report --format json` over the committed sample trace is
/// byte-identical to the committed golden file. Regenerate with:
/// `target/release/ifko report crates/core/tests/fixtures/sample-trace.jsonl \
///    --format json > crates/core/tests/fixtures/sample-report.json`
#[test]
fn golden_json_report() {
    let got = report_files(&[fixture("sample-trace.jsonl")], ReportFormat::Json).unwrap();
    let want = std::fs::read_to_string(fixture("sample-report.json")).unwrap();
    assert_eq!(got, want, "report output drifted from the golden file");

    // One more input: the same trace with a non-UTF-8 line spliced in
    // mid-file is the same report plus one malformed-line block.
    let bytes = std::fs::read(fixture("sample-trace.jsonl")).unwrap();
    let mid = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let spliced = [&bytes[..mid], b"\xff\xfe not utf-8\n", &bytes[mid..]].concat();
    let path = std::env::temp_dir().join(format!("ifko-report-utf8-{}.jsonl", std::process::id()));
    std::fs::write(&path, spliced).unwrap();
    let got = report_files(&[&path], ReportFormat::Json).unwrap();
    let skipped = ",\n{\"line\":\"(1 malformed lines skipped)\"}]\n";
    assert_eq!(got, want.strip_suffix("]\n").unwrap().to_string() + skipped);
    let _ = std::fs::remove_file(&path);
}

/// The analysis itself (not just the rendering) on the same fixture:
/// convergence replays the strict-improvement rule, phase speedups
/// compose to the total, and stage attribution excludes containers.
#[test]
fn fixture_analysis_is_faithful() {
    let data = read_trace(fixture("sample-trace.jsonl")).unwrap();
    assert_eq!(data.malformed, 0);
    let rep = analyze(&data.events, data.malformed);
    assert_eq!(rep.scopes.len(), 1);
    let s = &rep.scopes[0];
    assert_eq!(s.n, Some(1024));
    assert_eq!(s.probes, 7);
    assert_eq!(s.tally.evaluated, 6);
    assert_eq!(s.tally.cache_hits, 1);
    assert_eq!(s.tally.rejected, 1, "failed probes are not rejections");
    // Chaos accounting rode along: two transient faults were retried,
    // one timing outlier was rejected, one candidate burned its budget.
    assert_eq!(s.tally.retries, 4);
    assert_eq!(s.tally.faults, 5);
    assert_eq!(s.tally.outliers, 1);
    assert_eq!(s.tally.failed, 1);
    assert_eq!(s.first_cycles, Some(10_000));
    assert_eq!(s.best_cycles, Some(2_500));
    assert!((s.speedup() - 4.0).abs() < 1e-9);
    // SEED -> SV win -> UR win: three convergence points.
    assert_eq!(s.convergence.len(), 3);
    // The winner's simulator counters rode along in the trace.
    assert_eq!(s.best_stats.unwrap().l2_misses, 128);
    // Per-strategy attribution: every probe in this trace is tagged
    // "line", and the line strategy found the winner.
    assert_eq!(s.strategies.len(), 1);
    let st = &s.strategies[0];
    assert_eq!(st.strategy, "line");
    assert_eq!(st.probes, 7);
    assert_eq!(st.fresh, 6);
    assert_eq!(st.best_cycles, Some(2_500));
    assert_eq!(s.winner_strategy.as_deref(), Some("line"));
    // Containers (tune/search/eval/compile) are kept out of the leaf
    // stage table so it can sum to ~100% of measured leaf time.
    assert!(rep.stages.iter().all(|r| r.stage != "search"));
    assert!(rep.containers.iter().any(|r| r.stage == "tune"));
    assert!(rep.stages.iter().any(|r| r.stage == "simulate"));
}

/// Write through the real sink, corrupt the file, read it back:
/// good lines decode, bad lines are counted — not fatal.
#[test]
fn jsonl_sink_round_trips_and_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("ifko-report-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");

    let sink: Arc<JsonlSink> = JsonlSink::create(&path).unwrap();
    let ev = EvalEvent {
        scope: "k@m/oc/n64/s1/r1i0s1".into(),
        phase: "UR".into(),
        params: "ur=4".into(),
        cycles: Some(77),
        verified: true,
        cache_hit: false,
        wall_us: 12,
        stats: None,
        predicted: None,
        pruned: None,
        retries: 1,
        faults: 2,
        outliers: 0,
        failed: false,
        strategy: "line".into(),
        worker: Some(3),
    };
    sink.record(&SearchEvent::Eval(ev.clone()));
    sink.record(&SearchEvent::Span(SpanEvent {
        scope: "k@m/oc/n64/s1/r1i0s1".into(),
        stage: "simulate".into(),
        id: 9,
        parent: Some(3),
        wall_us: 55,
    }));
    drop(sink); // flush-on-drop

    // Corrupt the tail: garbage, a half-written JSON line, and a blank.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(f, "not json at all").unwrap();
    writeln!(f, "{{\"scope\":\"truncated").unwrap();
    writeln!(f).unwrap();
    drop(f);

    let data = read_trace(&path).unwrap();
    assert_eq!(data.malformed, 2, "blank lines are skipped, not malformed");
    assert_eq!(data.events.len(), 2);
    let back = data.events[0].as_eval().expect("first line is an eval");
    assert_eq!(back, &ev);
    let span = data.events[1].as_span().expect("second line is a span");
    assert_eq!(span.stage, "simulate");
    assert_eq!(span.parent, Some(3));

    // Malformed lines surface in every rendering, not just the count.
    let rep = analyze(&data.events, data.malformed);
    assert!(render(&rep, ReportFormat::Text).contains("2 malformed"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// End to end on a real search: trace a quick tuning run to disk, read
/// it back with zero malformed lines, and render every format.
#[test]
fn live_trace_reports_in_every_format() {
    let dir = std::env::temp_dir().join(format!("ifko-report-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.jsonl");

    let out = TuneConfig::quick(1024)
        .trace_file(&path)
        .unwrap()
        .jobs(2)
        .tune(Kernel {
            op: BlasOp::Axpy,
            prec: Prec::D,
        })
        .unwrap();

    let data = read_trace(&path).unwrap();
    assert_eq!(data.malformed, 0, "sink wrote unparseable lines");
    let rep = analyze(&data.events, 0);
    assert_eq!(rep.scopes.len(), 1);
    let s = &rep.scopes[0];
    assert_eq!(
        s.probes,
        (out.result.evaluations + out.result.cache_hits + out.result.pruned) as u64
    );
    assert_eq!(s.tally.rejected, out.result.rejected);
    assert_eq!(s.tally.pruned, out.result.pruned);
    assert_eq!(s.best_cycles, Some(out.result.best_cycles));
    assert!(s.best_stats.is_some(), "winner stats missing from trace");
    for fmt in [
        ReportFormat::Text,
        ReportFormat::Json,
        ReportFormat::Markdown,
    ] {
        let text = render(&rep, fmt);
        assert!(text.contains("axpy"), "{fmt:?} render lost the scope");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
