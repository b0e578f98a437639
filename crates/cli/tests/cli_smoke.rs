//! Smoke tests of the `ifko` CLI binary against the shipped sample
//! kernels, and the flag tables: every flag `ifko`, `ifkod` and
//! `pipeline` read, given a good value, no value and a bad value.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ifko")
}

fn repo(path: &str) -> String {
    format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), path)
}

/// A binary of this workspace: `ifko`, or one a workspace `cargo test`
/// builds next to it (`ifkod`, `pipeline`, the experiment binaries).
fn exe(name: &str) -> PathBuf {
    let path = Path::new(bin()).with_file_name(name);
    assert!(
        path.exists(),
        "{} is not built: run the workspace's tests (`cargo test` at the root)",
        path.display()
    );
    path
}

/// A scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ifko-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One command line and what it must do: exit with `code` and write a
/// first stderr line containing `first` ("" accepts any line).
struct Case {
    exe: String,
    args: Vec<String>,
    env: Vec<(&'static str, &'static str)>,
    code: i32,
    first: String,
}

fn case(exe: &str, args: &[&str], code: i32, first: &str) -> Case {
    Case {
        exe: exe.to_string(),
        args: args.iter().map(|a| a.to_string()).collect(),
        env: Vec::new(),
        code,
        first: first.to_string(),
    }
}

/// `exe args...` must succeed.
fn ok(exe: &str, args: &[&str]) -> Case {
    case(exe, args, 0, "")
}

/// `exe args... flag` (the flag's value left off) must be refused.
fn needs(exe: &str, args: &[&str], flag: &str) -> Case {
    let mut c = case(exe, args, 2, &format!("{exe}: {flag} needs a value"));
    c.args.push(flag.to_string());
    c
}

/// Run every case with `dir` as the working directory, then fail naming
/// each case that exited or began its stderr otherwise. A case still
/// running after two minutes is killed (exit 124) rather than left to
/// hang the suite.
fn check(dir: &Path, cases: &[Case]) {
    let mut wrong = Vec::new();
    for c in cases {
        let out = Command::new("timeout")
            .arg("120")
            .arg(exe(&c.exe))
            .args(&c.args)
            .envs(c.env.iter().copied())
            .current_dir(dir)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or("");
        if out.status.code() != Some(c.code) || !first.contains(&c.first) {
            wrong.push(format!(
                "{} {}: exit {:?}, stderr `{first}`; want exit {} and `{}`",
                c.exe,
                c.args.join(" "),
                out.status.code(),
                c.code,
                c.first
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} cases:\n{}",
        wrong.len(),
        cases.len(),
        wrong.join("\n")
    );
}

/// `analyze`, `compile` and `tune`: each flag they read.
#[test]
fn flag_table_kernel_commands() {
    let t = Scratch::new("flags-kernel");
    let k = repo("kernels/ddot.hil");
    let k = k.as_str();
    let (trace, metrics, db) = (t.path("t.jsonl"), t.path("m.json"), t.path("db"));
    let mut cases = vec![
        ok("ifko", &["analyze", k, "--machine", "opteron"]),
        ok("ifko", &["analyze", k, "-m", "p4e"]),
        needs("ifko", &["analyze", k], "--machine"),
        case(
            "ifko",
            &["analyze", k, "--machine", "x"],
            2,
            "unknown machine `x` (p4e | opteron)",
        ),
        case(
            "ifko",
            &[
                "compile",
                k,
                "--machine",
                "opteron",
                "--scalar",
                "--ur",
                "4",
                "--ae",
                "2",
                "--wnt",
            ],
            0,
            "# dot for Opteron:",
        ),
        case(
            "ifko",
            &["compile", k, "-m", "p4e", "--pf-dist", "128"],
            0,
            "# dot for P4E:",
        ),
        case("ifko", &["compile", k, "--no-pf"], 0, "# dot for P4E:"),
        case(
            "ifko",
            &["compile", k, "--machine", "x"],
            2,
            "unknown machine `x` (p4e | opteron)",
        ),
        ok(
            "ifko",
            &[
                "tune",
                k,
                "--machine",
                "opteron",
                "--context",
                "ic",
                "--n",
                "256",
                "--seed",
                "3",
                "--jobs",
                "2",
                "--strategy",
                "random",
                "--budget",
                "16",
                "--model-prune",
                "0.5",
                "--max-retries",
                "1",
                "--chaos",
                "7",
                "--verify-ir",
                "--no-prune",
                "--trace",
                &trace,
                "--metrics",
                &metrics,
                "--db",
                &db,
                "--warm-start",
            ],
        ),
        ok(
            "ifko",
            &[
                "tune",
                k,
                "-m",
                "p4e",
                "-c",
                "oc",
                "--n",
                "256",
                "--full",
                "--budget",
                "8",
                "-j",
                "1",
                "--workers",
                "2",
            ],
        ),
        case(
            "ifko",
            &["tune", k, "--machine", "x"],
            2,
            "unknown machine `x` (p4e | opteron)",
        ),
        case(
            "ifko",
            &["tune", k, "--n", "256", "--metrics", "/dev/null/m"],
            1,
            "tuning on P4E (oc), N=256",
        ),
        case(
            "ifko",
            &["tune", k, "--remote", "/nope"],
            1,
            "ifko: --remote /nope: No such file or directory (os error 2) (is ifkod running?)",
        ),
        case(
            "ifko",
            &["tune", k, "--model-prune", "2"],
            2,
            "ifko: --model-prune: 2 outside [0, 1]",
        ),
        case(
            "ifko",
            &["tune", k, "--model-prune", "x"],
            2,
            "ifko: --model-prune: invalid float literal",
        ),
    ];
    for flag in ["--ur", "--ae", "--pf-dist"] {
        cases.push(needs("ifko", &["compile", k], flag));
        let msg = format!("ifko: {flag}: invalid digit found in string");
        cases.push(case("ifko", &["compile", k, flag, "x"], 2, &msg));
    }
    for flag in [
        "--machine",
        "--context",
        "--n",
        "--seed",
        "--jobs",
        "--workers",
        "--trace",
        "--metrics",
        "--strategy",
        "--budget",
        "--model-prune",
        "--db",
        "--remote",
        "--chaos",
        "--max-retries",
    ] {
        cases.push(needs("ifko", &["tune", k], flag));
    }
    for flag in ["--n", "--seed", "--jobs", "--workers", "--max-retries"] {
        let msg = format!("ifko: {flag}: invalid digit found in string");
        cases.push(case("ifko", &["tune", k, flag, "x"], 2, &msg));
    }
    check(&t.0, &cases);
}

/// `lint`, `report` and `explain`: each flag they read.
#[test]
fn flag_table_trace_commands() {
    let t = Scratch::new("flags-trace");
    let k = repo("kernels/ddot.hil");
    let k = k.as_str();
    let trace = repo("crates/core/tests/fixtures/explain-trace.jsonl");
    let trace = trace.as_str();
    let db = t.path("db");
    let cases = vec![
        ok(
            "ifko",
            &["lint", k, "--machine", "opteron", "--format", "json"],
        ),
        ok("ifko", &["lint", k, "-m", "p4e", "-f", "text"]),
        needs("ifko", &["lint", k], "--machine"),
        needs("ifko", &["lint", k], "--format"),
        case(
            "ifko",
            &["lint", k, "--machine", "x"],
            2,
            "unknown machine `x` (p4e | opteron)",
        ),
        case(
            "ifko",
            &["lint", k, "--format", "md"],
            2,
            "unknown format `md` (text | json)",
        ),
        ok("ifko", &["report", trace, "--format", "md"]),
        ok("ifko", &["report", trace, "-f", "json"]),
        ok("ifko", &["report", trace, "--format", "chrome"]),
        needs("ifko", &["report", trace], "--format"),
        case(
            "ifko",
            &["report", trace, "--format", "x"],
            2,
            "unknown format `x` (text | json | md | chrome)",
        ),
        // Span ids restart in every process: two traces' spans would
        // nest under each other's parents.
        case(
            "ifko",
            &["report", trace, trace, "--format", "chrome"],
            2,
            "ifko: --format chrome reads one trace, not 2",
        ),
        ok("ifko", &["explain", trace, "--format", "json", "--db", &db]),
        ok("ifko", &["explain", trace, "-f", "md"]),
        needs("ifko", &["explain", trace], "--format"),
        needs("ifko", &["explain", trace], "--db"),
        case(
            "ifko",
            &["explain", trace, "--format", "x"],
            2,
            "unknown format `x` (text | json | md)",
        ),
        case(
            "ifko",
            &["explain", trace, "--format", "chrome"],
            2,
            "unknown format `chrome` (text | json | md)",
        ),
        case(
            "ifko",
            &["explain", trace, "--db", "/dev/null/d"],
            2,
            "ifko: --db /dev/null/d: Not a directory (os error 20)",
        ),
    ];
    check(&t.0, &cases);
}

/// `db`, `pack`, `install`, `daemon` and `tune --remote`: each flag they
/// read, against a daemon run in this process.
#[test]
fn flag_table_store_commands() {
    let t = Scratch::new("flags-store");
    let k = repo("kernels/ddot.hil");
    let k = k.as_str();
    let (db, fresh, socket) = (t.path("db"), t.path("fresh"), t.path("s.sock"));
    let (a1, a2, a3) = (t.path("a1.ifko"), t.path("a2.ifko"), t.path("a3.ifko"));
    let handle = ifko_daemon::server::Daemon::start(ifko_daemon::server::DaemonConfig {
        socket: socket.clone().into(),
        db_dir: t.0.join("daemondb"),
        cache_dir: None,
        jobs: 1,
        quiet: true,
    })
    .unwrap();
    let no_dir = "ifko: --db /dev/null/d: Not a directory (os error 20)";
    let no_daemon = "ifko: /nope: No such file or directory (os error 2) (is ifkod running?)";
    let cases = vec![
        ok("ifko", &["tune", k, "--n", "512", "--remote", &socket]),
        ok("ifko", &["db", "stats", "--db", &db, "--format", "json"]),
        ok("ifko", &["db", "compact", "--db", &db, "-f", "text"]),
        ok("ifko", &["db", "prune", "--rev-missing", "--db", &db]),
        needs("ifko", &["db", "stats"], "--db"),
        needs("ifko", &["db", "stats"], "--format"),
        case("ifko", &["db", "stats", "--db", "/dev/null/d"], 2, no_dir),
        case(
            "ifko",
            &["db", "stats", "--format", "md"],
            2,
            "unknown format `md` (text | json)",
        ),
        case(
            "ifko",
            &["db", "stats", "--rev-missing", "--db", &db],
            2,
            "ifko: --rev-missing only applies to `ifko db prune`",
        ),
        ok("ifko", &["pack", "--db", &db, "--out", &a1]),
        ok("ifko", &["pack", "--socket", &socket, "-o", &a2]),
        ok("ifko", &["pack", "-s", &socket, "--out", &a3]),
        needs("ifko", &["pack"], "--db"),
        needs("ifko", &["pack"], "--out"),
        needs("ifko", &["pack"], "--socket"),
        case("ifko", &["pack", "--db", "/dev/null/d"], 2, no_dir),
        case(
            "ifko",
            &["pack", "--db", &db, "--out", "/dev/null/a"],
            2,
            "ifko: --out /dev/null/a: Not a directory (os error 20)",
        ),
        case("ifko", &["pack", "--socket", "/nope"], 2, no_daemon),
        ok("ifko", &["install", &a2, "--db", &fresh]),
        ok("ifko", &["install", &a1, "--db", &fresh, "--no-verify"]),
        needs("ifko", &["install", &a1], "--db"),
        case("ifko", &["install", &a1, "--db", "/dev/null/d"], 2, no_dir),
        ok("ifko", &["daemon", "ping", "--socket", &socket]),
        ok("ifko", &["daemon", "stats", "-s", &socket]),
        needs("ifko", &["daemon", "ping"], "--socket"),
        case(
            "ifko",
            &["daemon", "ping", "--socket", "/nope"],
            2,
            no_daemon,
        ),
        ok("ifko", &["daemon", "stop", "--socket", &socket]),
    ];
    check(&t.0, &cases);
    handle.wait();
}

/// `ifkod`: each flag it reads. A daemon that starts is stopped through
/// `ifko daemon stop`; one that should not start but does fails the test
/// after a minute instead of hanging it.
#[test]
fn flag_table_ifkod() {
    let t = Scratch::new("flags-ifkod");
    for (sock, args) in [
        (
            "a.sock",
            [
                "--db", "db-a", "--cache", "cache-a", "--jobs", "1", "--quiet",
            ],
        ),
        (
            "b.sock",
            ["--db", "db-b", "-j", "2", "-q", "--cache", "cache-b"],
        ),
    ] {
        let mut child = Command::new(exe("ifkod"))
            .args(["--socket", sock])
            .args(args)
            .current_dir(&t.0)
            .spawn()
            .unwrap();
        let socket = t.0.join(sock);
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        let stop = Command::new(bin())
            .args(["daemon", "stop", "-s", socket.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            stop.status.success(),
            "{}",
            String::from_utf8_lossy(&stop.stderr)
        );
        assert!(
            child.wait().unwrap().success(),
            "ifkod --socket {sock} {args:?}"
        );
    }
    let cases = vec![
        needs("ifkod", &[], "--socket"),
        needs("ifkod", &[], "--db"),
        needs("ifkod", &[], "--cache"),
        case("ifkod", &["--jobs"], 2, "ifkod: --jobs needs a"),
        case("ifkod", &["--jobs", "x"], 2, "ifkod: --jobs"),
        case(
            "ifkod",
            &["--socket", "/dev/null/s.sock", "--db", "d"],
            2,
            "ifkod: File exists (os error 17)",
        ),
        case(
            "ifkod",
            &["--socket", "s.sock", "--db", "/dev/null/d"],
            2,
            "ifkod: Not a directory (os error 20)",
        ),
        case(
            "ifkod",
            &["--socket", "c.sock", "--db", "d", "--cache", "/dev/null/c"],
            2,
            "ifkod: Not a directory (os error 20)",
        ),
    ];
    check(&t.0, &cases);
}

/// `pipeline`: each flag it reads.
#[test]
fn flag_table_pipeline() {
    let t = Scratch::new("flags-pipeline");
    let base = repo("BENCH_pipeline.json");
    let base = base.as_str();
    let out = t.path("out.json");
    let mut slow = case(
        "pipeline",
        &["--out", "/dev/null/x"],
        1,
        "cannot write /dev/null/x",
    );
    slow.env.push(("IFKO_BENCH_SECS", "0"));
    let cases = vec![
        ok("pipeline", &["--compare", base, "--current", base]),
        ok(
            "pipeline",
            &["--out", &out, "--current", base, "--compare", base],
        ),
        case(
            "pipeline",
            &["--compare", "/nope", "--current", base],
            2,
            "pipeline: cannot read /nope: No such file or directory (os error 2)",
        ),
        case(
            "pipeline",
            &["--current", "/nope", "--compare", base],
            2,
            "pipeline: cannot read /nope: No such file or directory (os error 2)",
        ),
        slow,
    ];
    check(&t.0, &cases);
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

/// A flag the command does not read is refused, not dropped: each of
/// these used to exit 0 (or run the whole experiment) as if it were not
/// there.
#[test]
fn foreign_flags_are_refused() {
    let t = Scratch::new("flags-foreign");
    let k = repo("kernels/ddot.hil");
    let k = k.as_str();
    let f = t.path("F");
    let cases = vec![
        case(
            "ifko",
            &["tune", k, "--n", "512", "--ur", "8", "--wnt"],
            2,
            "ifko: unknown flag `--ur`",
        ),
        case(
            "ifko",
            &[
                "analyze", k, "--jobs", "4", "--chaos", "7", "--remote", "/nope",
            ],
            2,
            "ifko: unknown flag `--jobs`",
        ),
        case(
            "ifko",
            &["compile", k, "--trace", &f],
            2,
            "ifko: unknown flag `--trace`",
        ),
        case(
            "ifko",
            &["compile", k, "--n", "512"],
            2,
            "ifko: unknown flag `--n`",
        ),
        case(
            "ifko",
            &["lint", k, "--db", "d"],
            2,
            "ifko: unknown flag `--db`",
        ),
        case(
            "ifko",
            &["pack", "--bogus"],
            2,
            "ifko: unknown flag `--bogus`",
        ),
        case(
            "ifko",
            &["worker", "--jobs", "2"],
            2,
            "ifko: unknown flag `--jobs`",
        ),
        case("ifkod", &["--bogus"], 2, "ifkod: unknown flag `--bogus`"),
        case(
            "pipeline",
            &["--bogus"],
            2,
            "pipeline: unknown flag `--bogus`",
        ),
        case(
            "table3",
            &["--quick", "--no-cache", "--job", "4"],
            2,
            "table3: unknown flag `--job`",
        ),
        case(
            "strategies",
            &["--quick", "--bogus"],
            2,
            "strategies: unknown flag `--bogus`",
        ),
        case(
            "figure6",
            &["--quick"],
            2,
            "figure6: unknown flag `--quick`",
        ),
    ];
    check(&t.0, &cases);
    assert!(!Path::new(&f).exists(), "compile --trace wrote a trace");
}

/// Every refused flag value exits 2 with `<flag>: <error>` before any
/// work starts, whichever binary reads it: `ifko tune` used to exit 1 for
/// these, `pipeline` panicked on a missing value, and the experiment
/// binaries warned and ran on without the sink.
#[test]
fn flag_errors_share_one_form() {
    let t = Scratch::new("flags-form");
    let k = repo("kernels/ddot.hil");
    let k = k.as_str();
    let quick = ["--quick", "--no-cache"];
    let with = |exe: &str, head: &[&str], tail: &[&str], first: &str| {
        case(exe, &[head, tail].concat(), 2, first)
    };
    let cases = vec![
        with(
            "ifko",
            &["tune", k],
            &["--context", "x"],
            "ifko: --context: unknown context `x` (oc | ic)",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--n", "0"],
            "ifko: --n: n = 0 is out of range (1 ..= 4000000)",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--strategy", "x"],
            "ifko: --strategy: unknown strategy `x`",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--budget", "x"],
            "ifko: --budget: bad budget `x`",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--chaos", "x"],
            "ifko: --chaos: bad chaos spec `x`",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--trace", "/dev/null/t"],
            "ifko: --trace /dev/null/t: File exists",
        ),
        // A tune's one live sink is the JSONL trace: the Chrome view is
        // rendered from it by `ifko report --format chrome`.
        with(
            "ifko",
            &["tune", k],
            &["--trace-chrome", "/dev/null/t"],
            "ifko: unknown flag `--trace-chrome`",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--timeseries", "/dev/null/t"],
            "ifko: unknown flag `--timeseries`",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--profile-pipeline"],
            "ifko: unknown flag `--profile-pipeline`",
        ),
        with(
            "ifko",
            &["explain"],
            &["--check-chrome", "/dev/null/t"],
            "ifko: unknown flag `--check-chrome`",
        ),
        with(
            "ifko",
            &["tune", k],
            &["--db", "/dev/null/d"],
            "ifko: --db /dev/null/d: Not a directory",
        ),
        needs("pipeline", &[], "--out"),
        needs("pipeline", &["--current", "x"], "--compare"),
        needs("pipeline", &["--compare", "x"], "--current"),
        needs("table3", &quick, "--jobs"),
        with(
            "table3",
            &quick,
            &["--jobs", "x"],
            "table3: --jobs: invalid digit found in string",
        ),
        with(
            "table3",
            &quick,
            &["--trace", "/dev/null/t"],
            "table3: --trace /dev/null/t: File exists",
        ),
        with(
            "table3",
            &quick,
            &["--trace-chrome", "/dev/null/t"],
            "table3: unknown flag `--trace-chrome`",
        ),
        with(
            "table3",
            &quick,
            &["--timeseries", "/dev/null/t"],
            "table3: unknown flag `--timeseries`",
        ),
        with(
            "table3",
            &quick,
            &["--db", "/dev/null/d"],
            "table3: --db /dev/null/d: Not a directory",
        ),
        needs("strategies", &quick, "--strategies"),
        with(
            "strategies",
            &quick,
            &["--strategies", "line,x"],
            "strategies: --strategies: unknown strategy `x`",
        ),
        with(
            "strategies",
            &quick,
            &["--db", "/dev/null/d"],
            "strategies: --db /dev/null/d: Not a directory",
        ),
    ];
    check(&t.0, &cases);
}

/// `--help` and `-h` print a help generated from the command's flag
/// table: exit 0, a usage line, and every flag the command reads.
#[test]
fn every_command_answers_help() {
    let report = &["--format"][..];
    let tune_flags = &[
        "--machine",
        "--context",
        "--n",
        "--seed",
        "--full",
        "--jobs",
        "--workers",
        "--trace",
        "--metrics",
        "--verify-ir",
        "--no-prune",
        "--strategy",
        "--budget",
        "--warm-start",
        "--model-prune",
        "--db",
        "--remote",
        "--chaos",
        "--max-retries",
    ][..];
    let experiment = &[
        "--quick",
        "--no-cache",
        "--jobs",
        "--workers",
        "--trace",
        "--metrics",
        "--strategy",
        "--budget",
        "--db",
        "--warm-start",
        "--chaos",
        "--max-retries",
        "--model-prune",
    ][..];
    let commands: &[(&str, &[&str], &[&str])] = &[
        ("ifko", &["analyze"], &["--machine"]),
        (
            "ifko",
            &["compile"],
            &[
                "--machine",
                "--scalar",
                "--ur",
                "--ae",
                "--wnt",
                "--no-pf",
                "--pf-dist",
            ],
        ),
        ("ifko", &["tune"], tune_flags),
        ("ifko", &["lint"], &["--machine", "--format"]),
        ("ifko", &["report"], report),
        ("ifko", &["explain"], &["--format", "--db"]),
        ("ifko", &["daemon"], &["--socket"]),
        ("ifko", &["db"], &["--db", "--rev-missing", "--format"]),
        ("ifko", &["pack"], &["--db", "--out", "--socket"]),
        ("ifko", &["install"], &["--db", "--no-verify"]),
        ("ifko", &["worker"], &[]),
        (
            "ifko",
            &[],
            &[
                "analyze", "compile", "tune", "lint", "report", "explain", "daemon", "db", "pack",
                "install", "worker",
            ],
        ),
        (
            "ifkod",
            &[],
            &["--socket", "--db", "--cache", "--jobs", "--quiet"],
        ),
        ("pipeline", &[], &["--out", "--compare", "--current"]),
        ("table3", &[], experiment),
        ("figure7", &[], experiment),
        ("strategies", &[], &[experiment, &["--strategies"]].concat()),
        ("table1", &[], &[]),
        ("figure6", &[], &[]),
    ];
    for (name, sub, flags) in commands {
        for help in ["--help", "-h"] {
            let out = Command::new("timeout")
                .arg("60")
                .arg(exe(name))
                .args(*sub)
                .arg(help)
                .stdin(Stdio::null())
                .output()
                .unwrap();
            let text = String::from_utf8_lossy(&out.stdout);
            let line = format!("{name} {} {help}", sub.join(" "));
            assert!(
                out.status.success(),
                "{line}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(text.starts_with("usage: "), "{line}:\n{text}");
            for flag in *flags {
                assert!(text.contains(flag), "{line} does not name {flag}:\n{text}");
            }
        }
    }
}
