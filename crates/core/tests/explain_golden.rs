//! `ifko explain` against committed fixtures: every fixture must produce
//! byte-identical output (golden files), the analysis facts behind that
//! rendering must hold, and explain must degrade gracefully
//! over the hand-authored report fixture (simplified `k=v` params).

use ifko::explain::analyze;
use ifko::explain_files;
use ifko::prelude::*;
use ifko::report::{read_trace, ReportFormat};
use ifko::strategy::db::db_key;
use ifko::TunedRecord;

mod common;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Every committed trace fixture: the hand-authored one and the two
/// frozen live traces (without and with cost-model predictions).
const TRACES: [&str; 3] = ["sample-trace", "explain-trace", "explain-model-trace"];

/// `ifko explain` over each fixture `T.jsonl` in `format` is
/// byte-identical to the golden `T.explain.{ext}`. Regenerate one with:
/// `target/release/ifko explain crates/core/tests/fixtures/T.jsonl \
///    --format FORMAT > crates/core/tests/fixtures/T.explain.EXT`
fn assert_goldens(ext: &str, format: ReportFormat) {
    for t in TRACES {
        let got = explain_files(&[fixture(&format!("{t}.jsonl"))], format, None).unwrap();
        let want = std::fs::read_to_string(fixture(&format!("{t}.explain.{ext}"))).unwrap();
        assert_eq!(got, want, "{t}: explain {ext} drifted from the golden file");
    }
}

#[test]
fn golden_text_explains() {
    assert_goldens("txt", ReportFormat::Text);
}

/// Markdown is a rendering of the same document as the text: the same
/// lines and table cells, under `##` headings and in pipe tables.
#[test]
fn golden_markdown_explains() {
    assert_goldens("md", ReportFormat::Markdown);
}

/// JSON is a third rendering of the same document: the same headings,
/// lines and table cells as the text, as an array of blocks.
#[test]
fn json_carries_the_texts_blocks() {
    for t in TRACES {
        let path = [fixture(&format!("{t}.jsonl"))];
        let json = explain_files(&path, ReportFormat::Json, None).unwrap();
        let text = explain_files(&path, ReportFormat::Text, None).unwrap();
        common::assert_json_follows_text(&json, &text);
    }
}

/// `ifko explain --format json` over the committed trace is
/// byte-identical to the committed golden file. Regenerate with:
/// ```text
/// target/release/ifko tune kernels/ddot.hil --n 512 --jobs 2 --trace /tmp/t.jsonl
/// grep -v '"span"' /tmp/t.jsonl > crates/core/tests/fixtures/explain-trace.jsonl
/// target/release/ifko explain crates/core/tests/fixtures/explain-trace.jsonl \
///    --format json > crates/core/tests/fixtures/explain-report.json
/// ```
#[test]
fn golden_json_explain() {
    let got = explain_files(&[fixture("explain-trace.jsonl")], ReportFormat::Json, None).unwrap();
    let want = std::fs::read_to_string(fixture("explain-report.json")).unwrap();
    assert_eq!(got, want, "explain output drifted from the golden file");
}

/// The analysis behind the golden file: baseline/winner identified,
/// counters attributed, bottlenecks classified, features extracted.
#[test]
fn fixture_attribution_is_faithful() {
    let data = read_trace(fixture("explain-trace.jsonl")).unwrap();
    assert_eq!(data.malformed, 0);
    let rep = analyze(&data.events, data.malformed);
    assert_eq!(rep.scopes.len(), 1);
    let s = &rep.scopes[0];
    assert_eq!(s.probes, 55);
    assert_eq!(s.measured, 53);
    let base = s.baseline.as_ref().expect("baseline probe");
    let win = s.winner.as_ref().expect("winner probe");
    assert_eq!(base.phase, "SEED");
    assert_eq!(base.cycles, 8_058);
    assert_eq!(win.cycles, 6_086);
    assert!((s.speedup() - 8_058.0 / 6_086.0).abs() < 1e-9);
    // Both endpoints carried stats, so both got a bottleneck verdict
    // and the headline counter diff exists.
    assert_eq!(base.bottleneck.map(|b| b.label()), Some("memory-bound"));
    assert_eq!(win.bottleneck.map(|b| b.label()), Some("prefetch-limited"));
    let d = s.winner_vs_baseline.as_ref().expect("winner/baseline diff");
    assert_eq!(d.cycles, 6_086 - 8_058);
    // The attribution table covers the transforms the search actually
    // moved (one-knob pairs exist for prefetch and unroll at minimum),
    // and every exemplar pair is a genuine single-knob step.
    assert!(s.attribution.len() >= 3, "attribution table too small");
    for row in &s.attribution {
        assert!(row.pairs > 0);
        assert_ne!(row.from, row.to, "{}: degenerate pair", row.knob);
    }
    assert!(s.attribution.iter().any(|r| r.transform == "PF DST"));
    assert!(s.attribution.iter().any(|r| r.transform == "UR"));
    // Convergence path replays the strict-improvement rule: monotone
    // decreasing cycles, starting at the seed.
    assert!(s.path.len() >= 2);
    assert_eq!(s.path[0].probe, 0);
    assert!(s.path.windows(2).all(|w| w[0].cycles > w[1].cycles));
    // The winner's feature vector rode along for the transfer hook.
    let f = s.features.as_ref().expect("winner feature vector");
    assert_eq!(f.values.len(), ifko_xsim::FeatureVector::NAMES.len());
    assert_eq!(ifko_xsim::FeatureVector::NAMES[0], "cycles_per_elem");
    assert!(f.values[0] > 0.0);
}

/// Model-era golden: the committed trace was recorded with the static
/// cost model attached, so every measured candidate carries a
/// prediction and explain renders the predicted-vs-actual column.
/// Regenerate exactly like `explain-trace.jsonl`, writing to the
/// `explain-model-*` names.
#[test]
fn golden_json_explain_with_predictions() {
    let got = explain_files(
        &[fixture("explain-model-trace.jsonl")],
        ReportFormat::Json,
        None,
    )
    .unwrap();
    let want = std::fs::read_to_string(fixture("explain-model-report.json")).unwrap();
    assert_eq!(got, want, "model-era explain output drifted from golden");

    // The facts the golden encodes: predictions on the whole path, and
    // a rendered error column in the human format.
    let data = read_trace(fixture("explain-model-trace.jsonl")).unwrap();
    let rep = analyze(&data.events, data.malformed);
    let s = &rep.scopes[0];
    assert!(s.path.len() >= 2);
    for c in &s.path {
        assert!(
            c.predicted.is_some(),
            "path probe {} lost its prediction",
            c.probe
        );
        assert!(c.pred_err_pct().is_some());
    }
    let text = explain_files(
        &[fixture("explain-model-trace.jsonl")],
        ReportFormat::Text,
        None,
    )
    .unwrap();
    assert!(text.contains("PRED"), "prediction column missing:\n{text}");
    assert!(text.contains("ERR%"), "error column missing:\n{text}");
}

/// The hand-authored report fixture uses simplified `k=v` params and
/// injected faults — explain must analyze it without panicking and
/// render in every format.
#[test]
fn explain_degrades_gracefully_on_foreign_params() {
    for fmt in [
        ReportFormat::Text,
        ReportFormat::Json,
        ReportFormat::Markdown,
    ] {
        let out = explain_files(&[fixture("sample-trace.jsonl")], fmt, None).unwrap();
        assert!(out.contains("ddot"), "{fmt:?} render lost the scope");
    }
}

/// End to end with the tuned-results database: tune with a db attached,
/// then explain the trace with `--db` — the winner cross-check appears.
#[test]
fn explain_cross_checks_the_tuned_db() {
    let dir = std::env::temp_dir().join(format!("ifko-explain-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");

    TuneConfig::quick(1024)
        .trace_file(&trace)
        .unwrap()
        .tuned_db(dir.join("db"))
        .unwrap()
        .tune(Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        })
        .unwrap();

    let db = TunedDb::open(dir.join("db")).unwrap();
    assert_eq!(db.len(), 1, "tune did not store its winner");
    // Another machine's winner for the same kernel, whose key sorts
    // first: the cross-check must compare against this machine's record.
    let other = ifko::machine_fingerprint(&opteron());
    db.store(&TunedRecord {
        key: db_key("ddot", "D", &other, "oc", "r0"),
        kernel: "ddot".into(),
        prec: "D".into(),
        machine: other,
        context: "oc".into(),
        rev: "r0".into(),
        n: 1024,
        seed: 0,
        strategy: "line".into(),
        cycles: 1,
        params: ifko_fko::TransformParams::off(),
        features: None,
    });
    assert_eq!(
        db.records()[0].machine,
        ifko::machine_fingerprint(&opteron())
    );
    let out = explain_files(
        &[trace.display().to_string()],
        ReportFormat::Text,
        Some(&db),
    )
    .unwrap();
    assert!(
        out.contains("matches stored db entry"),
        "db cross-check missing from:\n{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
