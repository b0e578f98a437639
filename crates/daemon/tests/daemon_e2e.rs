//! End-to-end tests for the `ifkod` daemon: the engine's determinism
//! contract extended to the socket boundary, the in-memory-index
//! guarantee, and the pack → install artifact round trip.

use ifko::artifact;
use ifko::eval::machine_fingerprint;
use ifko::runner::Context;
use ifko::strategy::db::{db_key, params_json, record_json};
use ifko::strategy::{repo_rev, StrategySpec, TunedDb, TunedRecord};
use ifko::{SearchOptions, TuneConfig};
use ifko_blas::hil_src::hil_source;
use ifko_blas::{Kernel, ALL_KERNELS};
use ifko_daemon::client::{Client, TuneRequest};
use ifko_daemon::server::{Daemon, DaemonConfig};
use ifko_fko::{CompileSession, TransformParams};
use ifko_xsim::p4e;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifkod-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ddot() -> Kernel {
    *ALL_KERNELS.iter().find(|k| k.name() == "ddot").unwrap()
}

/// A synthetic-but-wellformed record keyed like a real tune of `kernel`
/// on P4E/oc under this repo revision.
fn synthetic_record(kernel: &str, cycles: u64) -> TunedRecord {
    let fp = machine_fingerprint(&p4e());
    let rev = repo_rev();
    let m = p4e();
    let k = ddot();
    let sess = CompileSession::from_source(&hil_source(k.op, k.prec), &m).unwrap();
    let params = TransformParams::defaults(sess.report(), &m);
    TunedRecord {
        key: db_key(kernel, "D", &fp, "oc", &rev),
        kernel: kernel.to_string(),
        prec: "D".to_string(),
        machine: fp,
        context: "oc".to_string(),
        rev,
        n: 1024,
        seed: 7,
        strategy: "line".to_string(),
        cycles,
        params,
        features: None,
    }
}

/// The acceptance guard: a daemon holding >= 1k records answers
/// warm-start queries from the in-memory index — proven by deleting
/// every database file on disk after startup and querying anyway.
#[test]
fn queries_answer_from_memory_index_not_disk() {
    let db_dir = tmp("memidx-db");
    {
        let db = TunedDb::open(&db_dir).unwrap();
        for i in 0..1200u64 {
            db.store(&synthetic_record(&format!("kern{i}"), 1000 + i));
        }
        db.store(&synthetic_record("ddot", 555));
        db.compact();
    }
    let socket = db_dir.join("ifkod.sock");
    let handle = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        db_dir: db_dir.clone(),
        cache_dir: None,
        jobs: 1,
        quiet: true,
    })
    .unwrap();

    // Pull the rug: no database file remains on disk.
    std::fs::remove_file(db_dir.join("tuned.jsonl")).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    client.ping().unwrap();
    let v = client.query("ddot", "p4e", "oc", None, None).unwrap();
    assert_eq!(v.get("found").and_then(|j| j.as_bool()), Some(true));
    let rec = v.get("record").unwrap();
    assert_eq!(rec.get("cycles").and_then(|j| j.as_u64()), Some(555));

    // A deep key from the 1k bulk answers too.
    let v = client
        .query("kern1100", "p4e", "oc", Some("D"), None)
        .unwrap();
    assert_eq!(v.get("found").and_then(|j| j.as_bool()), Some(true));
    assert_eq!(
        v.get("record")
            .and_then(|r| r.get("cycles"))
            .and_then(|j| j.as_u64()),
        Some(2100)
    );

    // A query that asks for the nearest record by `sfv` is refused: a
    // query answers only its own key, and the connection stays usable.
    let err = client
        .query("ddot", "p4e", "oc", None, Some(&[1555.0, 1.0]))
        .expect_err("an sfv query must be refused");
    assert!(err.contains("`sfv` is refused"), "{err}");

    // Misses report cleanly.
    let v = client
        .query("no-such-kernel", "p4e", "oc", Some("D"), None)
        .unwrap();
    assert_eq!(v.get("found").and_then(|j| j.as_bool()), Some(false));

    // Stats served from the index as well.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("live").and_then(|j| j.as_u64()), Some(1201));

    handle.stop();
    let _ = std::fs::remove_dir_all(&db_dir);
}

/// Serial-reference tune used by the concurrency test.
fn serial_reference(db_dir: &PathBuf, n: usize, seed: u64) -> (String, u64) {
    let cfg = TuneConfig::paper()
        .machine(p4e())
        .context(Context::OutOfCache)
        .n(n)
        .seed(seed)
        .search(SearchOptions::quick())
        .jobs(1)
        .strategy(StrategySpec::Line)
        .tuned_db(db_dir)
        .unwrap();
    let out = cfg.tune(ddot()).unwrap();
    (params_json(&out.result.best), out.result.best_cycles)
}

/// N parallel clients tuning the same kernel/machine converge to the
/// bit-identical winner of a serial run — including while a client
/// killed mid-request tears its connection.
#[test]
fn concurrent_daemon_sessions_match_serial_winner() {
    let n = 2048;
    let seed = 11;
    let serial_dir = tmp("concurrent-serial");
    let (serial_params, serial_cycles) = serial_reference(&serial_dir, n, seed);

    let daemon_dir = tmp("concurrent-daemon");
    let socket = daemon_dir.join("ifkod.sock");
    let handle = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        db_dir: daemon_dir.clone(),
        cache_dir: None,
        jobs: 2,
        quiet: true,
    })
    .unwrap();

    // A client dies mid-request: frame header promises 100 bytes, 10
    // arrive, connection drops. The daemon must shrug it off.
    {
        use std::io::Write;
        let mut s = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(b"0123456789").unwrap();
        drop(s);
    }

    let socket = Arc::new(socket);
    let results: Vec<(String, u64, bool)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..4 {
            let socket = Arc::clone(&socket);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(socket.as_path()).unwrap();
                let v = client
                    .tune(&TuneRequest {
                        kernel: Some("ddot".to_string()),
                        machine: "p4e".to_string(),
                        context: "oc".to_string(),
                        n: Some(n),
                        seed: Some(seed),
                        ..TuneRequest::default()
                    })
                    .unwrap();
                (
                    format!("{:?}", v.get("params").unwrap()),
                    v.get("best_cycles").and_then(|j| j.as_u64()).unwrap(),
                    v.get("warm").and_then(|j| j.as_bool()).unwrap(),
                )
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    // Parse the serial params through the same Json debug rendering so
    // the comparison is representation-for-representation.
    let serial_rendered = format!("{:?}", ifko::report::parse_json(&serial_params).unwrap());
    for (params, cycles, _warm) in &results {
        assert_eq!(params, &serial_rendered, "winner params diverged");
        assert_eq!(*cycles, serial_cycles, "winner cycles diverged");
    }
    // The duplicates coalesced behind the first session and finished on
    // the warm path.
    assert!(
        results.iter().filter(|(_, _, warm)| *warm).count() >= 3,
        "expected coalesced requests to warm-start: {results:?}"
    );

    // And a repeat tune over the live daemon is a warm hit end to end.
    let mut client = Client::connect(socket.as_path()).unwrap();
    let v = client
        .tune(&TuneRequest {
            kernel: Some("ddot".to_string()),
            machine: "p4e".to_string(),
            context: "oc".to_string(),
            n: Some(n),
            seed: Some(seed),
            ..TuneRequest::default()
        })
        .unwrap();
    assert_eq!(v.get("warm").and_then(|j| j.as_bool()), Some(true));
    assert_eq!(v.get("seed").and_then(|j| j.as_u64()), Some(seed));

    // A request that omits `seed` tunes the workload `ifko tune` would
    // locally: the seed of `TuneConfig::paper`, echoed in the reply.
    let v = client
        .tune(&TuneRequest {
            kernel: Some("ddot".to_string()),
            n: Some(n),
            ..TuneRequest::default()
        })
        .unwrap();
    assert_eq!(v.get("seed").and_then(|j| j.as_u64()), Some(0xb1a5));

    // Daemon metrics counted the sessions and the torn connection.
    let text = client.metrics().unwrap();
    assert!(text.contains("ifkod_sessions_total"), "{text}");
    assert!(text.contains("ifkod_errors_total"), "{text}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&daemon_dir);
}

/// A `.hil` tune over the socket reports what a local tune of the same
/// request does: the winner's exact cycle count (its best) and no MFLOPS
/// rate — a source has no flop count — with the winner `tune_source`
/// finds in-process from the config `TuneRequest::config` builds.
#[test]
fn hil_reply_reports_the_exact_count_and_the_local_winner() {
    let (handle, socket, db_dir) = quiet_daemon("hil-reply-db");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels");
    for name in ["ddot.hil", "snrm2.hil", "waxpby.hil"] {
        let src = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        let req = TuneRequest {
            src: Some(src.clone()),
            context: "ic".to_string(),
            ..TuneRequest::default()
        };
        let v = Client::connect(&socket).unwrap().tune(&req).unwrap();
        let num = |k: &str| v.get(k).and_then(|j| j.as_u64()).unwrap();
        assert_eq!(num("cycles"), num("best_cycles"), "{name}");
        assert_eq!(
            v.get("mflops").and_then(|j| j.as_f64()),
            Some(0.0),
            "{name}"
        );

        let local = req.config().unwrap().tune_source(&src).unwrap();
        assert_eq!(local.cycles, local.result.best_cycles, "{name}");
        assert_eq!(local.mflops, 0.0, "{name}");
        assert_eq!(num("best_cycles"), local.result.best_cycles, "{name}");
        let local_params = ifko::report::parse_json(&params_json(&local.result.best)).unwrap();
        assert_eq!(
            format!("{:?}", v.get("params").unwrap()),
            format!("{local_params:?}"),
            "{name}: winner params diverged"
        );
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&db_dir);
}

/// An `ifkod` process of its own, so its metrics registry counts only the
/// requests of the test that started it; killed if that test fails first.
struct DaemonProcess(std::process::Child);

impl DaemonProcess {
    fn start(socket: &std::path::Path, db_dir: &std::path::Path) -> DaemonProcess {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_ifkod"))
            .arg("--socket")
            .arg(socket)
            .arg("--db")
            .arg(db_dir)
            .arg("--quiet")
            .spawn()
            .unwrap();
        let process = DaemonProcess(child);
        for _ in 0..400 {
            if Client::connect(socket).is_ok_and(|mut c| c.ping().is_ok()) {
                return process;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("ifkod did not come up on {}", socket.display());
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One sample from Prometheus text (0 when the metric is absent).
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

/// A warm repeat of a tune, spelled differently but resolving to the same
/// request, reuses the subject the first tune left open: the same winner
/// and cycles, and not one simulation or compile-pipeline miss — neither
/// a re-run of the stored winner nor its recompile in a new session. Both
/// for a suite kernel and for a `.hil` source.
#[test]
fn a_warm_repeat_in_another_spelling_simulates_and_compiles_nothing() {
    let db_dir = tmp("resident-db");
    let socket = db_dir.join("ifkod.sock");
    let daemon = DaemonProcess::start(&socket, &db_dir);
    let mut client = Client::connect(&socket).unwrap();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels");
    let waxpby = std::fs::read_to_string(format!("{dir}/waxpby.hil")).unwrap();
    let suite = TuneRequest {
        kernel: Some("ddot".to_string()),
        n: Some(1024),
        seed: Some(5),
        ..TuneRequest::default()
    };
    let source = TuneRequest {
        kernel: None,
        src: Some(waxpby),
        ..suite.clone()
    };
    for (what, slots, cold) in [("ddot", 1, suite), ("waxpby.hil", 2, source)] {
        let spelled = TuneRequest {
            machine: "p4e".to_string(),
            context: "oc".to_string(),
            ..cold.clone()
        };
        let first = client.tune(&cold).unwrap();
        let before = client.metrics().unwrap();
        let second = client.tune(&spelled).unwrap();
        let after = client.metrics().unwrap();

        let field = |v: &ifko::report::Json, k: &str| format!("{:?}", v.get(k));
        assert_eq!(first.get("warm").and_then(|j| j.as_bool()), Some(false));
        assert_eq!(second.get("warm").and_then(|j| j.as_bool()), Some(true));
        for k in ["params", "best_cycles", "cycles"] {
            assert_eq!(field(&first, k), field(&second, k), "{what}: {k}");
        }
        for name in [
            "ifko_engine_simulations_total",
            "ifko_pipeline_subcache_misses_total",
        ] {
            assert!(
                metric(&before, name) > 0,
                "{what}: the cold tune ran no {name}"
            );
            assert_eq!(
                metric(&before, name),
                metric(&after, name),
                "{what}: the warm repeat moved {name}"
            );
        }
        assert_eq!(metric(&after, "ifkod_subjects"), slots, "{what}");
    }
    client.shutdown().unwrap();
    drop(daemon);
    let _ = std::fs::remove_dir_all(&db_dir);
}

/// `pack` from a live daemon → `install` into an empty results dir →
/// the first tune against it short-circuits on a verified warm start
/// with the bit-identical winner.
#[test]
fn pack_install_round_trip_warm_starts_fresh_deployment() {
    let n = 2048;
    let seed = 23;
    let source_dir = tmp("pack-source");
    // Tune once to populate the source database.
    let cfg = TuneConfig::paper()
        .machine(p4e())
        .context(Context::OutOfCache)
        .n(n)
        .seed(seed)
        .search(SearchOptions::quick())
        .jobs(1)
        .tuned_db(&source_dir)
        .unwrap();
    let out = cfg.tune(ddot()).unwrap();
    assert_ne!(out.result.strategy, "warm");
    let exported = params_json(&out.result.best);

    // Pack through the daemon.
    let socket = source_dir.join("ifkod.sock");
    let handle = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        db_dir: source_dir.clone(),
        cache_dir: None,
        jobs: 1,
        quiet: true,
    })
    .unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let text = client.pack().unwrap();
    handle.stop();

    // Install into an empty deployment, re-verification on.
    let deploy_dir = tmp("pack-deploy");
    let deploy_db = Arc::new(TunedDb::open(&deploy_dir).unwrap());
    let report = artifact::install(&text, &deploy_db, true).unwrap();
    assert_eq!(report.installed, 1);
    assert_eq!(report.verified, 1);
    assert!(report.rejected.is_empty());

    // The deployment's first tune warm-starts bit-identically.
    let cfg = TuneConfig::paper()
        .machine(p4e())
        .context(Context::OutOfCache)
        .n(n)
        .seed(seed)
        .search(SearchOptions::quick())
        .jobs(1)
        .db(Arc::clone(&deploy_db))
        .strategy(StrategySpec::Line);
    let warm_out = cfg.tune(ddot()).unwrap();
    assert_eq!(
        warm_out.result.strategy, "warm",
        "first tune not a warm hit"
    );
    assert_eq!(
        params_json(&warm_out.result.best),
        exported,
        "winner diverged"
    );

    // The record text itself round-tripped bit-identically.
    let art = artifact::parse(&text).unwrap();
    let installed = deploy_db.lookup(&art.records[0].key).unwrap();
    assert_eq!(record_json(&installed), record_json(&art.records[0]));

    let _ = std::fs::remove_dir_all(&source_dir);
    let _ = std::fs::remove_dir_all(&deploy_dir);
}

/// Wire input must not kill or wedge the daemon: an absurd `n` is refused
/// with an error that names it (it used to panic the connection thread in
/// `Workload::generate`, or abort the process on allocation), the daemon
/// keeps serving, and the refused request's single-flight key is released
/// — the same request again gets the same answer instead of parking on
/// the condvar forever.
#[test]
fn oversized_n_is_refused_and_leaves_the_daemon_serving() {
    let db_dir = tmp("bad-n-db");
    let socket = db_dir.join("ifkod.sock");
    let handle = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        db_dir: db_dir.clone(),
        cache_dir: None,
        jobs: 1,
        quiet: true,
    })
    .unwrap();

    for bad in ["1e18", "1000000000000", "0"] {
        let payload = format!("{{\"cmd\":\"tune\",\"kernel\":\"ddot\",\"n\":{bad}}}");
        let refused = |what: &str| {
            let reply = Client::connect(&socket).unwrap().request(&payload);
            reply
                .err()
                .unwrap_or_else(|| panic!("n = {bad} must be refused ({what})"))
        };
        let err = refused("first");
        assert!(err.contains("n = "), "error must name n: {err}");
        Client::connect(&socket).unwrap().ping().unwrap();
        assert_eq!(refused("repeat"), err, "the repeat must not hang or differ");
    }
    // The largest accepted size is still a size, not an error.
    let edge = TuneRequest {
        kernel: Some("ddot".into()),
        n: Some(ifko::config::MAX_N + 1),
        ..TuneRequest::default()
    };
    assert!(edge.config().is_err());
    assert!(TuneRequest {
        n: Some(ifko::config::MAX_N),
        ..edge
    }
    .config()
    .is_ok());

    handle.stop();
    let _ = std::fs::remove_dir_all(&db_dir);
}

/// A quiet daemon over a fresh database, for the adversarial cases.
fn quiet_daemon(name: &str) -> (ifko_daemon::DaemonHandle, PathBuf, PathBuf) {
    let db_dir = tmp(name);
    let socket = db_dir.join("ifkod.sock");
    let handle = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        db_dir: db_dir.clone(),
        cache_dir: None,
        jobs: 1,
        quiet: true,
    })
    .unwrap();
    (handle, socket, db_dir)
}

/// Bytes that are not a frame: the handler drops that connection without
/// a reply, and the daemon answers a `ping` on a new one afterwards.
#[test]
fn malformed_frames_drop_the_connection_not_the_daemon() {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    let (handle, socket, db_dir) = quiet_daemon("bad-frames-db");

    let over_max = (ifko_daemon::MAX_FRAME + 1).to_be_bytes();
    let cases: [(&str, Vec<u8>); 5] = [
        // Must be refused before a 4 GiB allocation.
        ("length word of u32::MAX", u32::MAX.to_be_bytes().to_vec()),
        ("length word just above MAX_FRAME", over_max.to_vec()),
        ("torn mid-length", vec![0, 0]),
        (
            "torn mid-payload",
            [&100u32.to_be_bytes()[..], b"0123456789"].concat(),
        ),
        (
            "non-UTF-8 payload",
            [&4u32.to_be_bytes()[..], &[0xff, 0xfe, 0xfd, 0xfc]].concat(),
        ),
    ];
    for (what, bytes) in cases {
        let mut s = UnixStream::connect(&socket).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        s.write_all(&bytes).unwrap();
        // Closing our write side is what tears the torn frames.
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = ifko_daemon::read_frame(&mut s);
        assert!(!matches!(reply, Ok(Some(_))), "{what}: got {reply:?}");
        Client::connect(&socket)
            .unwrap()
            .ping()
            .unwrap_or_else(|e| panic!("{what}: the daemon stopped serving: {e}"));
    }

    handle.stop();
    let _ = std::fs::remove_dir_all(&db_dir);
}

/// A frame of one value nested 100 000 deep is a typed refusal: the
/// daemon process survives it and answers a `ping` on a new connection.
/// A process of its own, since a stack overflow aborts the whole process.
#[test]
fn a_deeply_nested_frame_is_refused_not_fatal() {
    use std::os::unix::net::UnixStream;
    let db_dir = tmp("deep-frame-db");
    let socket = db_dir.join("ifkod.sock");
    let _daemon = DaemonProcess::start(&socket, &db_dir);
    let mut s = UnixStream::connect(&socket).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    ifko_daemon::write_frame(&mut s, &"[".repeat(100_000)).unwrap();
    let reply = ifko_daemon::read_frame(&mut s).unwrap().unwrap();
    assert!(reply.contains("unparseable"), "{reply}");
    Client::connect(&socket)
        .unwrap()
        .ping()
        .expect("the daemon stopped serving");
    let _ = std::fs::remove_dir_all(&db_dir);
}

/// Well-framed requests that are not well-formed: each gets a typed
/// `ok:false` naming what is wrong, on a connection that stays usable,
/// and none starts a tune under a default the caller did not ask for.
#[test]
fn malformed_requests_get_typed_errors() {
    let (handle, socket, db_dir) = quiet_daemon("bad-requests-db");

    let cases = [
        ("this is not json {{{", "unparseable"),
        ("[1,2,3]", "unknown cmd"),
        ("{}", "unknown cmd"),
        ("{\"cmd\":7}", "unknown cmd"),
        ("{\"cmd\":\"frobnicate\"}", "frobnicate"),
        (
            "{\"cmd\":\"tune\",\"kernel\":7}",
            "`kernel` must be a string",
        ),
        (
            "{\"cmd\":\"tune\",\"kernel\":\"ddot\",\"n\":\"big\"}",
            "`n` must be a non-negative integer",
        ),
        (
            "{\"cmd\":\"tune\",\"kernel\":\"ddot\",\"n\":1.5}",
            "`n` must be a non-negative integer",
        ),
        (
            "{\"cmd\":\"tune\",\"kernel\":\"ddot\",\"n\":64,\"seed\":-1}",
            "`seed` must be a non-negative integer",
        ),
        (
            "{\"cmd\":\"tune\",\"kernel\":\"ddot\",\"n\":64,\"full\":\"yes\"}",
            "`full` must be a boolean",
        ),
        (
            "{\"cmd\":\"query\",\"kernel\":7,\"machine\":\"p4e\"}",
            "kernel",
        ),
        (
            "{\"cmd\":\"query\",\"kernel\":\"ddot\",\"machine\":7}",
            "machine",
        ),
        (
            "{\"cmd\":\"query\",\"kernel\":\"ddot\",\"machine\":\"p4e\",\"sfv\":[1,\"x\"]}",
            "`sfv` is refused",
        ),
        (
            "{\"cmd\":\"query\",\"kernel\":\"ddot\",\"machine\":\"p4e\",\"sfv\":[1.5,2]}",
            "`sfv` is refused",
        ),
        (
            "{\"cmd\":\"query\",\"kernel\":\"ddot\",\"machine\":\"p4e\",\"prec\":\"d\"}",
            "unknown prec \"d\" (S | D)",
        ),
    ];
    let mut client = Client::connect(&socket).unwrap();
    for (payload, needle) in cases {
        let err = client
            .request(payload)
            .expect_err(&format!("{payload} must be refused"));
        assert!(err.contains(needle), "{payload}: error {err:?}");
        client.ping().unwrap();
    }
    Client::connect(&socket).unwrap().ping().unwrap();
    // Refusals wrote nothing.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("live").and_then(|j| j.as_u64()), Some(0));

    handle.stop();
    let _ = std::fs::remove_dir_all(&db_dir);
}
