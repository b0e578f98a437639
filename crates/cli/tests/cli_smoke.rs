//! Smoke tests of the `ifko` CLI binary against the shipped sample
//! kernels.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ifko")
}

fn repo(path: &str) -> String {
    format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), path)
}

#[test]
fn analyze_reports_search_feedback() {
    let out = Command::new(bin())
        .args(["analyze", &repo("kernels/ddot.hil")])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vectorizable : yes"));
    assert!(text.contains("PF candidates: X, Y"));
    assert!(text.contains("ReductionAdd"));
}

#[test]
fn compile_dumps_assembly() {
    let out = Command::new(bin())
        .args([
            "compile",
            &repo("kernels/ddot.hil"),
            "--ur",
            "4",
            "--scalar",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fmuld"), "scalar multiply expected:\n{text}");
    assert!(text.contains("jgt"), "loop branch expected");
}

#[test]
fn tune_improves_custom_kernel() {
    let out = Command::new(bin())
        .args(["tune", &repo("kernels/waxpby.hil"), "--n", "4000"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("winning parameters"));
    assert!(text.contains("SV  : yes"));
}

#[test]
fn tune_with_trace_and_metrics_then_report() {
    let dir = std::env::temp_dir().join(format!("ifko-cli-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let metrics = dir.join("m.json");

    let out = Command::new(bin())
        .args([
            "tune",
            &repo("kernels/ddot.hil"),
            "--n",
            "2000",
            "--jobs",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        m.contains("ifko_engine_evals_total"),
        "metrics missing:\n{m}"
    );

    // The analyzer consumes what --trace wrote.
    let out = Command::new(bin())
        .args(["report", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stage time attribution"), "report:\n{text}");
    assert!(text.contains("simulate"));

    // JSON format is machine-readable and mentions the same scope.
    let out = Command::new(bin())
        .args(["report", trace.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.trim_start().starts_with('{'));
    assert!(json.contains("\"scopes\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_rejects_missing_input() {
    let out = Command::new(bin()).args(["report"]).output().unwrap();
    assert!(!out.status.success());
    let out = Command::new(bin())
        .args(["report", "no_such_trace.jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn bad_file_fails_cleanly() {
    let out = Command::new(bin())
        .args(["analyze", "no_such.hil"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn nrm2_sample_compiles_with_sqrt() {
    let out = Command::new(bin())
        .args(["compile", &repo("kernels/snrm2.hil"), "--no-pf"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fsqrt"), "sqrt epilogue expected:\n{text}");
}

#[test]
fn db_tune_pack_install_round_trip() {
    let dir = std::env::temp_dir().join(format!("ifko-cli-pack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src_db = dir.join("src-db");
    let dst_db = dir.join("dst-db");
    let artifact = dir.join("tunes.ifko");

    // Cold tune with a database attached.
    let out = Command::new(bin())
        .args([
            "tune",
            &repo("kernels/ddot.hil"),
            "--n",
            "2000",
            "--db",
            src_db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("tuned.jsonl"), "db banner missing:\n{err}");

    // `db stats` sees the stored winner, text and json.
    let out = Command::new(bin())
        .args(["db", "stats", "--db", src_db.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("live records : 1"), "stats:\n{text}");
    let out = Command::new(bin())
        .args([
            "db",
            "stats",
            "--db",
            src_db.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"live\":1"), "json stats:\n{json}");
    assert!(json.contains("\"file_lines\":1,\"dead\":0"));

    // `db compact` leaves exactly the live records on disk.
    let out = Command::new(bin())
        .args(["db", "compact", "--db", src_db.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // pack → install into a fresh database, with re-verification.
    let out = Command::new(bin())
        .args([
            "pack",
            "--db",
            src_db.to_str().unwrap(),
            "--out",
            artifact.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let packed = std::fs::read_to_string(&artifact).unwrap();
    assert!(packed.starts_with("{\"magic\":\"ifko-tune-cache\""));

    let out = Command::new(bin())
        .args([
            "install",
            artifact.to_str().unwrap(),
            "--db",
            dst_db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("installed 1 record(s)"),
        "install said:\n{text}"
    );

    // The installed winner warm-starts the next tune in the new home.
    let out = Command::new(bin())
        .args([
            "tune",
            &repo("kernels/ddot.hil"),
            "--n",
            "2000",
            "--db",
            dst_db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("strategy           : warm"),
        "expected a warm start after install:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ifko worker` speaks the wire protocol on stdin/stdout: handshake
/// with a scope ack, one evaluated candidate, clean shutdown.
#[test]
fn worker_subcommand_speaks_the_wire_protocol() {
    use ifko::eval::EvalScope;
    use ifko::report::{parse_json, Json};
    use ifko::worker::WorkerSpec;
    use ifko::{proto, SearchOptions};
    use std::process::Stdio;

    let mach = ifko_xsim::p4e();
    let opts = SearchOptions::quick();
    let ctx = ifko::runner::Context::OutOfCache;
    let scope = EvalScope::new("ddot", &mach, ctx, 512, 0xb1a5, &opts.timer);
    let spec = WorkerSpec::blas("ddot", &mach, ctx, 512, 0xb1a5, &opts, &scope);

    let mut child = Command::new(bin())
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut reply = |req: &str| -> Json {
        proto::write_frame(&mut stdin, req).unwrap();
        parse_json(&proto::read_frame(&mut stdout).unwrap().unwrap()).unwrap()
    };

    let ack = reply(&spec.to_json());
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        ack.get("scope").and_then(Json::as_str),
        Some(scope.key()),
        "worker recomputed a different scope"
    );

    let ev = reply(&format!(
        "{{\"cmd\":\"eval\",\"id\":42,\"params\":{}}}",
        ifko::strategy::db::params_json(&ifko_fko::TransformParams::off())
    ));
    assert_eq!(ev.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(ev.get("id").and_then(Json::as_u64), Some(42));
    assert!(ev.get("cycles").and_then(Json::as_u64).is_some());

    let bye = reply("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    assert!(child.wait().unwrap().success());
}

/// `tune --workers 2` dispatches to a pool of `ifko worker` children
/// and still prints the winning parameters.
#[test]
fn tune_with_worker_pool_smokes() {
    let out = Command::new(bin())
        .args([
            "tune",
            &repo("kernels/ddot.hil"),
            "--n",
            "2000",
            "--workers",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("winning parameters"), "tune said:\n{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("worker pool"),
        "worker-pool banner missing:\n{err}"
    );
}

/// `ifko db prune --rev-missing` drops records from other repo
/// revisions (IFKO_REPO_REV pins the revision on both sides).
#[test]
fn db_prune_rev_missing_drops_stale_records() {
    let dir = std::env::temp_dir().join(format!("ifko-cli-prune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db");

    // Store a winner under revision "aaa".
    let out = Command::new(bin())
        .args([
            "tune",
            &repo("kernels/ddot.hil"),
            "--n",
            "2000",
            "--db",
            db.to_str().unwrap(),
        ])
        .env("IFKO_REPO_REV", "aaa")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Same revision: nothing to prune.
    let out = Command::new(bin())
        .args(["db", "prune", "--rev-missing", "--db", db.to_str().unwrap()])
        .env("IFKO_REPO_REV", "aaa")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pruned 0 record(s)"), "prune said:\n{text}");

    // From revision "bbb" the stored record's revision is missing.
    let out = Command::new(bin())
        .args(["db", "prune", "--rev-missing", "--db", db.to_str().unwrap()])
        .env("IFKO_REPO_REV", "bbb")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pruned 1 record(s)"), "prune said:\n{text}");
    assert!(text.contains("live records : 0"), "prune said:\n{text}");

    // `prune` without a criterion is an error, as is --rev-missing on
    // another subcommand.
    let out = Command::new(bin())
        .args(["db", "prune", "--db", db.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(bin())
        .args(["db", "stats", "--rev-missing", "--db", db.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_remote_tune_and_control_plane() {
    let dir = std::env::temp_dir().join(format!("ifko-cli-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ifkod.sock");
    let db = dir.join("db");

    // `ifkod` lives in the daemon crate; drive it through the library so
    // this test does not depend on a second binary being built first.
    let handle = ifko_daemon::server::Daemon::start(ifko_daemon::server::DaemonConfig {
        socket: socket.clone(),
        db_dir: db.clone(),
        cache_dir: None,
        jobs: 1,
        quiet: true,
    })
    .unwrap();

    let remote_tune = |extra: &[&str]| {
        Command::new(bin())
            .args([
                "tune",
                &repo("kernels/ddot.hil"),
                "--n",
                "2000",
                "--remote",
                socket.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap()
    };
    let out = remote_tune(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("warm start         : no"), "cold:\n{text}");

    // Second identical request is a warm hit from the daemon's index.
    // A flag only a local tune applies is named on stderr, not dropped
    // silently, and does not fail the run.
    let metrics = dir.join("m.json");
    let out = remote_tune(&["--metrics", metrics.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("warm start         : yes"), "warm:\n{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("local-only") && err.contains("--metrics"),
        "stderr must name the ignored flag:\n{err}"
    );
    assert!(!metrics.exists(), "--remote writes no local metrics");

    // Control plane: ping, metrics, stats.
    let out = Command::new(bin())
        .args(["daemon", "ping", "--socket", socket.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = Command::new(bin())
        .args(["daemon", "metrics", "--socket", socket.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("ifkod_requests_total"),
        "daemon metrics:\n{text}"
    );
    let out = Command::new(bin())
        .args(["daemon", "stats", "--socket", socket.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("live records : 1"), "daemon stats:\n{text}");

    // Clean shutdown through the CLI.
    let out = Command::new(bin())
        .args(["daemon", "stop", "--socket", socket.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
