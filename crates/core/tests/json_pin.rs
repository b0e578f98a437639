//! Encoding pin: the exact bytes every JSON encoder in `ifko` writes —
//! trace lines, stats objects, worker frames, the tuned journal, the
//! evaluation-cache journal, the pack manifest, metrics, the Chrome view
//! and the report document — on fixed values, plus a round-trip
//! property over seeded values (`decode(encode(x)) == x`).
//!
//! Traces, journals and artifacts outlive the binary that wrote them, so
//! a changed byte here is a format change: older readers and the files
//! already on disk see it. Records with optional fields are pinned both
//! all-set and all-absent, and every string field carries a quote, a
//! backslash, control characters and non-ASCII text.

use ifko::artifact::pack_records;
use ifko::chrome::render_chrome;
use ifko::eval::{EvalEvent, EvalScope, SearchEvent, SpanEvent};
use ifko::fault::FaultPlan;
use ifko::metrics::{labeled, MetricsRegistry};
use ifko::proto;
use ifko::report::{self, parse_json, parse_trace_line, ReportFormat};
use ifko::runner::Context;
use ifko::strategy::db::{params_from_json, params_json, parse_record, record_json, DbStats};
use ifko::strategy::TunedRecord;
use ifko::trace::stats_json;
use ifko::worker::{self, WorkerHandle, WorkerSpec};
use ifko::{EvalCache, SearchOptions, Timer};
use ifko_fko::ir::PtrId;
use ifko_fko::{PrefSpec, TransformParams};
use ifko_xsim::rng::Rng64;
use ifko_xsim::{p4e, PrefKind, RunStats};

/// A string every escaping rule applies to.
const NASTY: &str = "q\"uo\\te\n\t\r\u{1}\u{1f}é€😀";

#[track_caller]
fn pin(actual: &str, expected: &str) {
    assert_eq!(actual, expected, "\nactual bytes: {actual:?}");
}

fn counted_stats() -> RunStats {
    let mut s = RunStats::default();
    for (i, (_, _, set)) in RunStats::FIELDS.iter().enumerate() {
        set(&mut s, i as u64 + 1);
    }
    s
}

fn eval_all_set() -> EvalEvent {
    EvalEvent {
        scope: NASTY.into(),
        phase: "PF DST".into(),
        params: NASTY.into(),
        cycles: Some(u64::MAX),
        verified: true,
        cache_hit: true,
        wall_us: 17,
        stats: Some(RunStats {
            cycles: 40,
            insts: 30,
            loads: 7,
            ..RunStats::default()
        }),
        predicted: Some(41),
        pruned: Some(NASTY.into()),
        strategy: NASTY.into(),
        retries: u32::MAX,
        faults: 3,
        outliers: 1,
        failed: true,
        worker: Some(u32::MAX),
    }
}

fn eval_all_absent() -> EvalEvent {
    EvalEvent {
        scope: "s".into(),
        phase: "SEED".into(),
        params: "p".into(),
        cycles: None,
        verified: false,
        cache_hit: false,
        wall_us: 0,
        stats: None,
        predicted: None,
        pruned: None,
        strategy: String::new(),
        retries: 0,
        faults: 0,
        outliers: 0,
        failed: false,
        worker: None,
    }
}

fn span(parent: Option<u64>) -> SpanEvent {
    SpanEvent {
        scope: NASTY.into(),
        stage: "simulate".into(),
        id: u64::MAX,
        parent,
        wall_us: 12,
    }
}

fn params() -> TransformParams {
    let mut p = TransformParams::off();
    p.simd = true;
    p.unroll = 8;
    p.accum_expand = 4;
    p.wnt = true;
    p.prefetch = vec![
        PrefSpec {
            ptr: PtrId(0),
            kind: Some(PrefKind::Nta),
            dist: 1024,
        },
        PrefSpec {
            ptr: PtrId(1),
            kind: None,
            dist: -64,
        },
    ];
    p
}

fn record(features: Option<Vec<f64>>) -> TunedRecord {
    TunedRecord {
        key: NASTY.into(),
        kernel: "ddot".into(),
        prec: "D".into(),
        machine: "P4E#0123".into(),
        context: "oc".into(),
        rev: NASTY.into(),
        n: 1024,
        seed: u64::MAX,
        strategy: "line".into(),
        cycles: 9000,
        params: params(),
        features,
    }
}

fn spec(chaos: bool) -> WorkerSpec {
    let machine = p4e();
    let opts = SearchOptions::quick();
    let scope = EvalScope::new("ddot", &machine, Context::OutOfCache, 64, 7, &opts.timer);
    let mut spec = WorkerSpec::blas("ddot", &machine, Context::OutOfCache, 64, 7, &opts, &scope);
    if chaos {
        spec.src = Some(NASTY.into());
        spec.timer = Timer {
            reps: u32::MAX,
            interference: 0.1 + 0.2,
            seed: u64::MAX,
        };
        spec.verify_ir = true;
        spec.max_retries = 5;
        spec.chaos = Some(FaultPlan {
            seed: u64::MAX,
            compile: 0.1,
            tester: 1e-5,
            timer_rep: 1.0 / 3.0,
            persist: 0.0,
        });
        spec.scope_key = NASTY.into();
    }
    spec
}

#[test]
fn trace_lines() {
    pin(
        &eval_all_absent().to_json(),
        r#"{"scope":"s","phase":"SEED","params":"p","cycles":null,"verified":false,"cache_hit":false,"wall_us":0}"#,
    );
    pin(
        &eval_all_set().to_json(),
        r#"{"scope":"q\"uo\\te\n\t\r\u0001\u001fé€😀","phase":"PF DST","params":"q\"uo\\te\n\t\r\u0001\u001fé€😀","cycles":18446744073709551615,"verified":true,"cache_hit":true,"wall_us":17,"strategy":"q\"uo\\te\n\t\r\u0001\u001fé€😀","stats":{"cycles":40,"insts":30,"loads":7,"stores":0,"l1_hits":0,"l1_misses":0,"l2_hits":0,"l2_misses":0,"bus_read_bytes":0,"bus_write_bytes":0,"prefetch_issued":0,"prefetch_dropped":0,"prefetch_useless":0,"hw_prefetches":0,"nt_stores":0,"wc_flushes":0,"branches":0,"mispredicts":0},"predicted":41,"pruned":"q\"uo\\te\n\t\r\u0001\u001fé€😀","retries":4294967295,"faults":3,"outliers":1,"failed":true,"worker":4294967295}"#,
    );
    pin(
        &SearchEvent::Span(span(None)).to_json(),
        r#"{"span":"simulate","scope":"q\"uo\\te\n\t\r\u0001\u001fé€😀","id":18446744073709551615,"parent":null,"wall_us":12}"#,
    );
    pin(
        &span(Some(3)).to_json(),
        r#"{"span":"simulate","scope":"q\"uo\\te\n\t\r\u0001\u001fé€😀","id":18446744073709551615,"parent":3,"wall_us":12}"#,
    );
    pin(
        &stats_json(&counted_stats()),
        r#"{"cycles":1,"insts":2,"loads":3,"stores":4,"l1_hits":5,"l1_misses":6,"l2_hits":7,"l2_misses":8,"bus_read_bytes":9,"bus_write_bytes":10,"prefetch_issued":11,"prefetch_dropped":12,"prefetch_useless":13,"hw_prefetches":14,"nt_stores":15,"wc_flushes":16,"branches":17,"mispredicts":18}"#,
    );
}

#[test]
fn worker_frames() {
    pin(
        &spec(false).to_json(),
        r#"{"cmd":"hello","machine":"P4E","context":"oc","n":64,"seed":7,"timer":{"reps":2,"interference":0.01,"seed":24301},"verify_ir":false,"max_retries":2,"scope":"ddot@P4E#b7470cfff67d022c/oc/n64/s7/r2i0.01s5eed","kernel":"ddot"}"#,
    );
    pin(
        &spec(true).to_json(),
        r#"{"cmd":"hello","machine":"P4E","context":"oc","n":64,"seed":7,"timer":{"reps":4294967295,"interference":0.30000000000000004,"seed":18446744073709551615},"verify_ir":true,"max_retries":5,"scope":"q\"uo\\te\n\t\r\u0001\u001fé€😀","kernel":"ddot","src":"q\"uo\\te\n\t\r\u0001\u001fé€😀","chaos":{"seed":18446744073709551615,"compile":0.1,"tester":1e-5,"timer_rep":0.3333333333333333,"persist":0.0}}"#,
    );

    // The dispatcher's eval request, as a scripted peer receives it.
    let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
    let peer = std::thread::spawn(move || {
        let mut theirs = theirs;
        let req = proto::read_frame(&mut theirs).unwrap().unwrap();
        let reply = "{\"ok\":true,\"id\":9,\"cycles\":null,\"retries\":0,\"faults\":0,\"outliers\":0,\"failed\":false}";
        proto::write_frame(&mut theirs, reply).unwrap();
        req
    });
    let mut handle = WorkerHandle::from_stream(0, ours);
    handle.eval(9, &params()).unwrap();
    pin(
        &peer.join().unwrap(),
        r#"{"cmd":"eval","id":9,"params":{"simd":true,"unroll":8,"ae":4,"wnt":true,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":0,"kind":"nta","dist":1024},{"ptr":1,"kind":null,"dist":-64}]}}"#,
    );

    // The worker's acknowledgement and its replies: a candidate that
    // ran (cycles and counters), and, under a plan that fails every
    // compile, one that never ran.
    let mut failing = spec(false);
    failing.max_retries = 0;
    failing.chaos = Some(FaultPlan {
        seed: 1,
        compile: 1.0,
        tester: 0.0,
        timer_rep: 0.0,
        persist: 0.0,
    });
    let mut unrolled = TransformParams::off();
    unrolled.unroll = 4;
    let session = |spec: WorkerSpec, id: u64| {
        let mut input: Vec<u8> = Vec::new();
        proto::write_frame(&mut input, &spec.to_json()).unwrap();
        let req = format!(
            "{{\"cmd\":\"eval\",\"id\":{id},\"params\":{}}}",
            params_json(&unrolled)
        );
        proto::write_frame(&mut input, &req).unwrap();
        proto::write_frame(&mut input, "{\"cmd\":\"nope\"}").unwrap();
        proto::write_frame(&mut input, "{\"cmd\":\"shutdown\"}").unwrap();
        let mut output: Vec<u8> = Vec::new();
        worker::serve(&mut std::io::Cursor::new(input), &mut output).unwrap();
        let mut frames = std::io::Cursor::new(output);
        let mut next = || proto::read_frame(&mut frames).unwrap().unwrap();
        [next(), next(), next(), next()].join("\n")
    };
    pin(
        &session(spec(false), 1),
        concat!(
            r#"{"ok":true,"scope":"ddot@P4E#b7470cfff67d022c/oc/n64/s7/r2i0.01s5eed"}"#,
            "\n",
            r#"{"ok":true,"id":1,"cycles":2149,"retries":0,"faults":0,"outliers":0,"failed":false,"stats":{"cycles":2149,"insts":268,"loads":128,"stores":0,"l1_hits":112,"l1_misses":16,"l2_hits":8,"l2_misses":8,"bus_read_bytes":1152,"bus_write_bytes":0,"prefetch_issued":0,"prefetch_dropped":0,"prefetch_useless":0,"hw_prefetches":10,"nt_stores":0,"wc_flushes":0,"branches":18,"mispredicts":2}}"#,
            "\n",
            r#"{"ok":false,"error":"unknown cmd `nope`"}"#,
            "\n",
            r#"{"ok":true}"#
        ),
    );
    pin(
        &session(failing, u64::MAX),
        concat!(
            r#"{"ok":true,"scope":"ddot@P4E#b7470cfff67d022c/oc/n64/s7/r2i0.01s5eed"}"#,
            "\n",
            r#"{"ok":true,"id":18446744073709551615,"cycles":null,"retries":0,"faults":1,"outliers":0,"failed":true}"#,
            "\n",
            r#"{"ok":false,"error":"unknown cmd `nope`"}"#,
            "\n",
            r#"{"ok":true}"#
        ),
    );

    pin(&proto::ok_response(), r#"{"ok":true}"#);
    pin(
        &proto::error_response(NASTY),
        r#"{"ok":false,"error":"q\"uo\\te\n\t\r\u0001\u001fé€😀"}"#,
    );
}

#[test]
fn tuned_journal() {
    pin(
        &params_json(&params()),
        r#"{"simd":true,"unroll":8,"ae":4,"wnt":true,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":0,"kind":"nta","dist":1024},{"ptr":1,"kind":null,"dist":-64}]}"#,
    );
    pin(
        &params_json(&TransformParams::off()),
        r#"{"simd":false,"unroll":1,"ae":1,"wnt":false,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[]}"#,
    );
    pin(
        &record_json(&record(None)),
        r#"{"key":"q\"uo\\te\n\t\r\u0001\u001fé€😀","kernel":"ddot","prec":"D","machine":"P4E#0123","context":"oc","rev":"q\"uo\\te\n\t\r\u0001\u001fé€😀","n":1024,"seed":18446744073709551615,"strategy":"line","cycles":9000,"params":{"simd":true,"unroll":8,"ae":4,"wnt":true,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":0,"kind":"nta","dist":1024},{"ptr":1,"kind":null,"dist":-64}]}}"#,
    );
    pin(
        &record_json(&record(Some(vec![0.5, 1.0 / 3.0, 1e-9, 12_345.678_9]))),
        r#"{"key":"q\"uo\\te\n\t\r\u0001\u001fé€😀","kernel":"ddot","prec":"D","machine":"P4E#0123","context":"oc","rev":"q\"uo\\te\n\t\r\u0001\u001fé€😀","n":1024,"seed":18446744073709551615,"strategy":"line","cycles":9000,"params":{"simd":true,"unroll":8,"ae":4,"wnt":true,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":0,"kind":"nta","dist":1024},{"ptr":1,"kind":null,"dist":-64}]},"sfv":[0.500000,0.333333,0.000000,12345.678900]}"#,
    );
    let stats = DbStats {
        live: 3,
        file_lines: 7,
        bytes: 1234,
    };
    pin(
        &stats.to_json(),
        r#"{"live":3,"file_lines":7,"dead":4,"dead_ratio":0.5714,"bytes":1234}"#,
    );
    let empty = DbStats {
        live: 0,
        file_lines: 0,
        bytes: 0,
    };
    pin(
        &empty.to_json(),
        r#"{"live":0,"file_lines":0,"dead":0,"dead_ratio":0.0000,"bytes":0}"#,
    );
    let art = pack_records(NASTY, &[record(None), record(Some(vec![2.0]))]);
    pin(
        &art,
        concat!(
            r#"{"magic":"ifko-tune-cache","version":1,"rev":"q\"uo\\te\n\t\r\u0001\u001fé€😀","records":2,"checksum":"ccc4ccf1147a7586"}"#,
            "\n",
            r#"{"key":"q\"uo\\te\n\t\r\u0001\u001fé€😀","kernel":"ddot","prec":"D","machine":"P4E#0123","context":"oc","rev":"q\"uo\\te\n\t\r\u0001\u001fé€😀","n":1024,"seed":18446744073709551615,"strategy":"line","cycles":9000,"params":{"simd":true,"unroll":8,"ae":4,"wnt":true,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":0,"kind":"nta","dist":1024},{"ptr":1,"kind":null,"dist":-64}]}}"#,
            "\n",
            r#"{"key":"q\"uo\\te\n\t\r\u0001\u001fé€😀","kernel":"ddot","prec":"D","machine":"P4E#0123","context":"oc","rev":"q\"uo\\te\n\t\r\u0001\u001fé€😀","n":1024,"seed":18446744073709551615,"strategy":"line","cycles":9000,"params":{"simd":true,"unroll":8,"ae":4,"wnt":true,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":0,"kind":"nta","dist":1024},{"ptr":1,"kind":null,"dist":-64}]},"sfv":[2.000000]}"#,
            "\n"
        ),
    );
    pin(
        &pack_records("r", &[]),
        concat!(
            r#"{"magic":"ifko-tune-cache","version":1,"rev":"r","records":0,"checksum":"cbf29ce484222325"}"#,
            "\n"
        ),
    );
}

#[test]
fn eval_cache_journal() {
    let dir = std::env::temp_dir().join(format!("ifko-json-pin-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cache = EvalCache::persistent(&dir).unwrap();
        cache.insert(NASTY.into(), Some(u64::MAX));
        cache.insert("scope|rejected".into(), None);
    }
    let journal = std::fs::read_to_string(dir.join("evals.jsonl")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    pin(
        &journal,
        concat!(
            r#"{"key":"q\"uo\\te\n\t\r\u0001\u001fé€😀","cycles":18446744073709551615}"#,
            "\n",
            r#"{"key":"scope|rejected","cycles":null}"#,
            "\n"
        ),
    );
}

#[test]
fn metrics_snapshot() {
    let m = MetricsRegistry::new();
    m.counter("a_total").add(u64::MAX);
    m.counter(&labeled("b_total", "kind", "tune")).inc();
    m.gauge("c_gauge").set(-5);
    let h = m.histogram("d_us", &[10, 100]);
    h.observe(5);
    h.observe(500);
    pin(
        &m.to_json(),
        r#"{"a_total":{"type":"counter","value":18446744073709551615},"b_total{kind=\"tune\"}":{"type":"counter","value":1},"c_gauge":{"type":"gauge","value":-5},"d_us":{"type":"histogram","bounds":[10,100],"counts":[1,0,1],"count":2,"sum":505}}"#,
    );
    pin(&MetricsRegistry::new().to_json(), r#"{}"#);
}

#[test]
fn chrome_and_report_documents() {
    let mut child = span(Some(2));
    child.id = 1;
    let mut root = span(None);
    root.id = 2;
    root.stage = "tune".into();
    let mut hit = eval_all_absent();
    hit.cache_hit = true;
    hit.cycles = Some(5);
    let mut pruned = eval_all_absent();
    pruned.pruned = Some("model-rank".into());
    let mut failed = eval_all_absent();
    failed.failed = true;
    // Counts a report sums; the extremes are pinned per line above.
    let mut chaotic = eval_all_set();
    chaotic.retries = 2;
    chaotic.cycles = Some(7);
    let events = vec![
        SearchEvent::Span(child),
        SearchEvent::Span(root),
        SearchEvent::Eval(chaotic),
        SearchEvent::Eval(eval_all_absent()),
        SearchEvent::Eval(hit),
        SearchEvent::Eval(pruned),
        SearchEvent::Eval(failed),
    ];
    pin(
        &render_chrome(&events),
        concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"pipeline spans"}},"#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"candidates"}},"#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":1,"name":"process_name","args":{"name":"ifko tune"}},"#,
            "\n",
            r#"{"ph":"X","pid":1,"tid":1,"name":"simulate","cat":"span","ts":0,"dur":12,"args":{"scope":"q\"uo\\te\n\t\r\u0001\u001fé€😀","id":1,"parent":2,"wall_us":12}},"#,
            "\n",
            r#"{"ph":"X","pid":1,"tid":1,"name":"tune","cat":"span","ts":0,"dur":12,"args":{"scope":"q\"uo\\te\n\t\r\u0001\u001fé€😀","id":2,"parent":null,"wall_us":12}},"#,
            "\n",
            r#"{"ph":"X","pid":1,"tid":2,"name":"PF DST (cache)","cat":"eval","ts":0,"dur":17,"args":{"scope":"q\"uo\\te\n\t\r\u0001\u001fé€😀","params":"q\"uo\\te\n\t\r\u0001\u001fé€😀","cycles":7,"verified":true,"cache_hit":true,"strategy":"q\"uo\\te\n\t\r\u0001\u001fé€😀","pruned":"q\"uo\\te\n\t\r\u0001\u001fé€😀","retries":2,"faults":3,"ipc":0.7500,"l1_miss_ratio":0.0000,"l2_miss_ratio":0.0000,"prefetch_efficacy":0.0000}},"#,
            "\n",
            r#"{"ph":"X","pid":1,"tid":2,"name":"SEED","cat":"eval","ts":17,"dur":1,"args":{"scope":"s","params":"p","cycles":null,"verified":false,"cache_hit":false}},"#,
            "\n",
            r#"{"ph":"X","pid":1,"tid":2,"name":"SEED (cache)","cat":"eval","ts":18,"dur":1,"args":{"scope":"s","params":"p","cycles":5,"verified":false,"cache_hit":true}},"#,
            "\n",
            r#"{"ph":"X","pid":1,"tid":2,"name":"SEED (pruned)","cat":"eval","ts":19,"dur":1,"args":{"scope":"s","params":"p","cycles":null,"verified":false,"cache_hit":false,"pruned":"model-rank"}},"#,
            "\n",
            r#"{"ph":"X","pid":1,"tid":2,"name":"SEED (failed)","cat":"eval","ts":20,"dur":1,"args":{"scope":"s","params":"p","cycles":null,"verified":false,"cache_hit":false}}"#,
            "\n",
            r#"]}"#,
            "\n"
        ),
    );
    pin(
        &render_chrome(&[]),
        concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"pipeline spans"}},"#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"candidates"}},"#,
            "\n",
            r#"{"ph":"M","pid":1,"tid":1,"name":"process_name","args":{"name":"ifko tune"}}"#,
            "\n",
            r#"]}"#,
            "\n"
        ),
    );
    let rep = report::analyze(&events, 2);
    pin(
        &report::render(&rep, ReportFormat::Json),
        concat!(
            r#"[{"heading":"q\"uo\\te\n\t\r\u0001\u001fé€😀"},"#,
            "\n",
            r#"{"line":"probes 1 (fresh 0, cache hits 0, rejected 0, pruned 1)"},"#,
            "\n",
            r#"{"line":"chaos: 2 retries, 3 faults injected, 1 outliers rejected, 0 failed"},"#,
            "\n",
            r#"{"line":"cycles 7 -> 7  (speedup 1.0000x)"},"#,
            "\n",
            r#"{"line":"best q\"uo\\te\n\t\r\u0001\u001fé€😀"},"#,
            "\n",
            r#"{"table":[{"phase":"PF DST","cands":"1","wins":"0","speedup":"1.0000"}]},"#,
            "\n",
            r#"{"table":[{"strategy":"q\"uo\\te\n\t\r\u0001\u001fé€😀","probes":"1","fresh":"0","wins":"1","best":"7"}]},"#,
            "\n",
            r#"{"line":"winner strategy: q\"uo\\te\n\t\r\u0001\u001fé€😀"},"#,
            "\n",
            r#"{"table":[{"worker":"w4294967295","evals":"1","wall_us":"17"}]},"#,
            "\n",
            r#"{"line":"convergence (probe: cycles @phase): 1:7@PF DST"},"#,
            "\n",
            r#"{"line":"winner hw: insts 30  L1 miss 0.0000  L2 miss 0.0000  bus rd/wr 0/0 B"},"#,
            "\n",
            r#"{"line":"cache: 0 hits, ~0.0000 us saved (mean fresh eval 0.0000 us)"},"#,
            "\n",
            r#"{"heading":"s"},"#,
            "\n",
            r#"{"line":"probes 4 (fresh 2, cache hits 1, rejected 1, pruned 1)"},"#,
            "\n",
            r#"{"line":"chaos: 0 retries, 0 faults injected, 0 outliers rejected, 1 failed"},"#,
            "\n",
            r#"{"table":[{"phase":"SEED","cands":"4","wins":"0","speedup":"1.0000"}]},"#,
            "\n",
            r#"{"line":"cache: 1 hits, ~0.0000 us saved (mean fresh eval 0.0000 us)"},"#,
            "\n",
            r#"{"heading":"stage time attribution"},"#,
            "\n",
            r#"{"table":[{"stage":"simulate","count":"1","total_us":"12","%":"100.0"}]},"#,
            "\n",
            r#"{"line":"simulations / fresh eval: 1 / 2 = 0.5000"},"#,
            "\n",
            r#"{"line":"(2 malformed lines skipped)"}]"#,
            "\n"
        ),
    );
}

// ---------------------------------------------------------------------------
// Round trip over seeded values
// ---------------------------------------------------------------------------

const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
    'é', '€', '😀', '|', '{', '}', ':', ',',
];

fn string(r: &mut Rng64) -> String {
    let len = r.range_usize(12);
    (0..len)
        .map(|_| ALPHABET[r.range_usize(ALPHABET.len())])
        .collect()
}

/// A `u64` that is often an edge: 0, 1, `u32::MAX`, `u64::MAX` or just
/// past 2^53.
fn wide(r: &mut Rng64) -> u64 {
    match r.range_usize(6) {
        0 => 0,
        1 => 1,
        2 => u32::MAX as u64,
        3 => u64::MAX,
        4 => (1 << 53) + 1,
        _ => r.next_u64(),
    }
}

fn narrow(r: &mut Rng64) -> u32 {
    match r.range_usize(4) {
        0 => 0,
        1 => u32::MAX,
        _ => r.next_u64() as u32,
    }
}

fn maybe<T>(r: &mut Rng64, f: impl FnOnce(&mut Rng64) -> T) -> Option<T> {
    r.gen_bool(0.5).then(|| f(r))
}

fn random_stats(r: &mut Rng64) -> RunStats {
    let mut s = RunStats::default();
    for (_, _, set) in RunStats::FIELDS {
        set(&mut s, wide(r));
    }
    s
}

fn random_params(r: &mut Rng64) -> TransformParams {
    let kinds = [
        None,
        Some(PrefKind::T0),
        Some(PrefKind::T1),
        Some(PrefKind::T2),
        Some(PrefKind::Nta),
        Some(PrefKind::W),
    ];
    let pf = r.range_usize(4);
    TransformParams {
        simd: r.gen_bool(0.5),
        unroll: narrow(r),
        accum_expand: narrow(r),
        wnt: r.gen_bool(0.5),
        prefetch: (0..pf)
            .map(|_| PrefSpec {
                ptr: PtrId(narrow(r)),
                kind: kinds[r.range_usize(kinds.len())],
                // Distances within ±2^53; the integer extremes are
                // `json.rs`'s own unit tests.
                dist: (r.next_u64() >> 10) as i64 - (1 << 53),
            })
            .collect(),
        loop_control: r.gen_bool(0.5),
        cisc_memops: r.gen_bool(0.5),
        copy_prop: r.gen_bool(0.5),
        dead_code_elim: r.gen_bool(0.5),
        branch_cleanup: r.gen_bool(0.5),
    }
}

#[test]
fn decoding_an_encoding_gives_the_value_back() {
    let mut r = Rng64::seed_from_u64(0x150e);
    for _ in 0..300 {
        let ev = EvalEvent {
            scope: string(&mut r),
            phase: string(&mut r),
            params: string(&mut r),
            cycles: maybe(&mut r, wide),
            verified: r.gen_bool(0.5),
            cache_hit: r.gen_bool(0.5),
            wall_us: wide(&mut r),
            stats: maybe(&mut r, random_stats),
            predicted: maybe(&mut r, wide),
            pruned: maybe(&mut r, string),
            strategy: string(&mut r),
            retries: narrow(&mut r),
            faults: narrow(&mut r),
            outliers: narrow(&mut r),
            failed: r.gen_bool(0.5),
            worker: maybe(&mut r, narrow),
        };
        match parse_trace_line(&ev.to_json()) {
            Some(SearchEvent::Eval(back)) => assert_eq!(back, ev),
            other => panic!("{ev:?} read back as {other:?}"),
        }

        let sp = SpanEvent {
            scope: string(&mut r),
            stage: string(&mut r),
            id: wide(&mut r),
            parent: maybe(&mut r, wide),
            wall_us: wide(&mut r),
        };
        match parse_trace_line(&sp.to_json()) {
            Some(SearchEvent::Span(back)) => assert_eq!(back, sp),
            other => panic!("{sp:?} read back as {other:?}"),
        }

        let p = random_params(&mut r);
        let back = parse_json(&params_json(&p)).and_then(|v| params_from_json(&v));
        assert_eq!(back.as_ref(), Some(&p));

        // Features are written at six decimals: draw values that have an
        // exact six-decimal form.
        let features = maybe(&mut r, |r| {
            let len = r.range_usize(5);
            (0..len)
                .map(|_| (r.next_u64() % 2_000_000) as f64 / 64.0 - 10_000.0)
                .collect::<Vec<f64>>()
        });
        let rec = TunedRecord {
            key: string(&mut r),
            kernel: string(&mut r),
            prec: string(&mut r),
            machine: string(&mut r),
            context: string(&mut r),
            rev: string(&mut r),
            n: r.next_u64() as usize,
            seed: wide(&mut r),
            strategy: string(&mut r),
            cycles: wide(&mut r),
            params: random_params(&mut r),
            features,
        };
        assert_eq!(parse_record(&record_json(&rec)), Some(rec));

        let mut s = spec(r.gen_bool(0.5));
        s.kernel = maybe(&mut r, string);
        s.src = if s.kernel.is_some() {
            None
        } else {
            Some(string(&mut r))
        };
        s.machine = string(&mut r);
        s.context = string(&mut r);
        s.n = 1 + r.range_usize(ifko::config::MAX_N);
        s.seed = wide(&mut r);
        s.timer = Timer {
            reps: narrow(&mut r),
            interference: r.unit_f64(),
            seed: wide(&mut r),
        };
        s.verify_ir = r.gen_bool(0.5);
        s.max_retries = narrow(&mut r);
        if let Some(plan) = &mut s.chaos {
            plan.seed = wide(&mut r);
            plan.compile = r.unit_f64();
            plan.tester = r.unit_f64() * 1e-7;
            plan.timer_rep = r.unit_f64();
            plan.persist = r.unit_f64();
        }
        s.scope_key = string(&mut r);
        let back = WorkerSpec::from_json(&parse_json(&s.to_json()).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{s:?}"));
    }
}
