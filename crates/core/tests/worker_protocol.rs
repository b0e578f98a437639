//! Adversarial wire-protocol tests: a [`WorkerHandle`] talking to a
//! scripted peer (the other end of a socketpair, not a real worker)
//! must turn every malformed reply into a **typed error** — the
//! dispatcher's cue to retire the worker and re-dispatch the candidate
//! — and must never hand back a record it cannot trust. Covered:
//! truncated frames, oversized length prefixes, garbage JSON, replies
//! carrying the wrong candidate id, remote error replies, and a peer
//! that simply hangs.

use ifko::proto;
use ifko::worker::{WorkerError, WorkerHandle};
use ifko_fko::TransformParams;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Run `script` as the peer on one end of a socketpair; return the
/// handle wired to the other end. The peer thread owns its stream and
/// exits when the script returns (dropping the stream = EOF).
fn scripted_peer(
    script: impl FnOnce(UnixStream) + Send + 'static,
) -> (WorkerHandle, std::thread::JoinHandle<()>) {
    let (ours, theirs) = UnixStream::pair().unwrap();
    let peer = std::thread::spawn(move || script(theirs));
    let mut h = WorkerHandle::from_stream(0, ours);
    h.set_timeout(Some(Duration::from_secs(5)));
    (h, peer)
}

/// Read and discard the request frame the handle sent.
fn swallow_request(stream: &mut UnixStream) {
    let _ = proto::read_frame(stream);
}

#[test]
fn truncated_reply_frame_is_an_io_error() {
    // Length word claims 100 bytes; only 10 arrive before EOF.
    let (mut h, peer) = scripted_peer(|mut s| {
        swallow_request(&mut s);
        let _ = s.write_all(&100u32.to_be_bytes());
        let _ = s.write_all(b"0123456789");
    });
    let err = h.eval(1, &TransformParams::off()).unwrap_err();
    assert!(matches!(err, WorkerError::Io(_)), "got {err}");
    assert!(
        !err.is_protocol(),
        "a torn stream is transport, not protocol"
    );
    peer.join().unwrap();
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let (mut h, peer) = scripted_peer(|mut s| {
        swallow_request(&mut s);
        // u32::MAX >> MAX_FRAME: must be refused without allocating 4 GiB.
        let _ = s.write_all(&u32::MAX.to_be_bytes());
        let _ = s.write_all(&[0u8; 64]);
    });
    let err = h.eval(2, &TransformParams::off()).unwrap_err();
    match err {
        WorkerError::Io(e) => {
            assert!(
                e.to_string().contains("MAX_FRAME"),
                "wrong rejection reason: {e}"
            )
        }
        other => panic!("expected Io(MAX_FRAME), got {other}"),
    }
    peer.join().unwrap();
}

#[test]
fn garbage_json_reply_is_a_protocol_error() {
    let (mut h, peer) = scripted_peer(|mut s| {
        swallow_request(&mut s);
        let _ = proto::write_frame(&mut s, "this is not json {{{");
        swallow_request(&mut s); // let the handle close first
    });
    let err = h.eval(3, &TransformParams::off()).unwrap_err();
    assert!(matches!(err, WorkerError::Protocol(_)), "got {err}");
    assert!(err.is_protocol());
    drop(h);
    peer.join().unwrap();
}

/// A syntactically valid record under the wrong candidate id must never
/// merge: it is a typed `WrongId` error and the record is discarded.
#[test]
fn wrong_candidate_id_is_discarded_not_merged() {
    let (mut h, peer) = scripted_peer(|mut s| {
        swallow_request(&mut s);
        let _ = proto::write_frame(
            &mut s,
            "{\"ok\":true,\"id\":99,\"cycles\":1234,\"retries\":0,\
             \"faults\":0,\"outliers\":0,\"failed\":false}",
        );
        swallow_request(&mut s);
    });
    let err = h.eval(7, &TransformParams::off()).unwrap_err();
    match err {
        WorkerError::WrongId { want, got } => {
            assert_eq!((want, got), (7, 99));
        }
        other => panic!("expected WrongId, got {other}"),
    }
    assert!(err.is_protocol());
    drop(h);
    peer.join().unwrap();
}

#[test]
fn ok_false_reply_surfaces_the_remote_error() {
    let (mut h, peer) = scripted_peer(|mut s| {
        swallow_request(&mut s);
        let _ = proto::write_frame(&mut s, &proto::error_response("scope drift: a vs b"));
        swallow_request(&mut s);
    });
    let err = h.eval(4, &TransformParams::off()).unwrap_err();
    match &err {
        WorkerError::Remote(msg) => assert!(msg.contains("scope drift"), "{msg}"),
        other => panic!("expected Remote, got {other}"),
    }
    assert!(err.is_protocol());
    drop(h);
    peer.join().unwrap();
}

/// A reply that parses but lacks the record fields is protocol-invalid,
/// not silently a zero-cycle record.
#[test]
fn reply_missing_record_fields_is_a_protocol_error() {
    let (mut h, peer) = scripted_peer(|mut s| {
        swallow_request(&mut s);
        let _ = proto::write_frame(&mut s, "{\"ok\":true,\"id\":5}");
        swallow_request(&mut s);
    });
    let err = h.eval(5, &TransformParams::off()).unwrap_err();
    assert!(matches!(err, WorkerError::Protocol(_)), "got {err}");
    drop(h);
    peer.join().unwrap();
}

/// A hung peer trips the read timeout instead of blocking the
/// dispatcher forever — the hung-worker detection path.
#[test]
fn hung_peer_times_out() {
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let (mut h, peer) = scripted_peer(move |mut s| {
        swallow_request(&mut s);
        // Never reply; hold the stream open until the test finishes so
        // the handle sees silence, not EOF.
        let _ = done_rx.recv_timeout(Duration::from_secs(30));
    });
    h.set_timeout(Some(Duration::from_millis(200)));
    let t0 = std::time::Instant::now();
    let err = h.eval(6, &TransformParams::off()).unwrap_err();
    assert!(matches!(err, WorkerError::Io(_)), "got {err}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "timeout did not fire promptly"
    );
    done_tx.send(()).unwrap();
    peer.join().unwrap();
}

/// The serving side of the protocol, driven raw: a real `serve()` loop
/// (the body of `ifko worker`) answers an unknown command with a typed
/// error *and keeps serving* — a confused dispatcher never wedges the
/// worker — then honors ping, eval, and shutdown.
#[test]
fn serve_survives_unknown_commands_and_keeps_serving() {
    use ifko::eval::EvalScope;
    use ifko::report::parse_json;
    use ifko::worker::WorkerSpec;
    use ifko::SearchOptions;
    use ifko_xsim::p4e;

    let mach = p4e();
    let opts = SearchOptions::quick();
    let scope = EvalScope::new(
        "ddot",
        &mach,
        ifko::runner::Context::OutOfCache,
        512,
        0xb1a5,
        &opts.timer,
    );
    let spec = WorkerSpec::blas(
        "ddot",
        &mach,
        ifko::runner::Context::OutOfCache,
        512,
        0xb1a5,
        &opts,
        &scope,
    );

    let (mut ours, theirs) = UnixStream::pair().unwrap();
    let server = std::thread::spawn(move || {
        let mut r = theirs.try_clone().unwrap();
        let mut w = theirs;
        ifko::worker::serve(&mut r, &mut w).unwrap();
    });

    let reply = |s: &mut UnixStream, req: &str| {
        proto::write_frame(s, req).unwrap();
        parse_json(&proto::read_frame(s).unwrap().unwrap()).unwrap()
    };
    let ok = |v: &ifko::report::Json| v.get("ok").and_then(ifko::report::Json::as_bool);

    // Handshake ack carries the scope key.
    let ack = reply(&mut ours, &spec.to_json());
    assert_eq!(ok(&ack), Some(true));
    assert_eq!(
        ack.get("scope").and_then(ifko::report::Json::as_str),
        Some(scope.key())
    );

    // Unknown command: typed error, not a hangup.
    let err = reply(&mut ours, "{\"cmd\":\"frobnicate\"}");
    assert_eq!(ok(&err), Some(false));
    assert!(err.get("error").is_some());

    // Garbage JSON: same story.
    let err = reply(&mut ours, "not json at all");
    assert_eq!(ok(&err), Some(false));

    // Still serving: ping and a real eval both work after the errors.
    assert_eq!(ok(&reply(&mut ours, "{\"cmd\":\"ping\"}")), Some(true));
    let ev = reply(
        &mut ours,
        &format!(
            "{{\"cmd\":\"eval\",\"id\":11,\"params\":{}}}",
            ifko::strategy::db::params_json(&TransformParams::off())
        ),
    );
    assert_eq!(ok(&ev), Some(true));
    assert_eq!(ev.get("id").and_then(ifko::report::Json::as_u64), Some(11));
    assert!(ev
        .get("cycles")
        .and_then(ifko::report::Json::as_u64)
        .is_some());

    // Clean shutdown ends the serve loop without error.
    assert_eq!(ok(&reply(&mut ours, "{\"cmd\":\"shutdown\"}")), Some(true));
    server.join().unwrap();
}

/// A handshake is wire input too: a problem size of zero or beyond
/// `MAX_N` is refused with an error naming `n` before the worker sizes a
/// single operand vector (it used to panic or abort in
/// `Workload::generate`), and the serve loop ends cleanly.
#[test]
fn handshake_with_out_of_range_n_is_refused() {
    use ifko::report::{parse_json, Json};
    use ifko::worker::WorkerSpec;
    use ifko::SearchOptions;

    let mach = ifko_xsim::p4e();
    let opts = SearchOptions::quick();
    let ctx = ifko::runner::Context::OutOfCache;
    let scope = ifko::eval::EvalScope::new("ddot", &mach, ctx, 512, 1, &opts.timer);
    let good = WorkerSpec::blas("ddot", &mach, ctx, 512, 1, &opts, &scope).to_json();
    assert!(WorkerSpec::from_json(&parse_json(&good).unwrap()).is_ok());

    for bad in ["0", "1e18", &(ifko::config::MAX_N + 1).to_string()] {
        let handshake = good.replacen("\"n\":512", &format!("\"n\":{bad}"), 1);
        assert_ne!(handshake, good, "the spec's wire form moved");
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        let server = std::thread::spawn(move || {
            let mut r = theirs.try_clone().unwrap();
            let mut w = theirs;
            ifko::worker::serve(&mut r, &mut w)
        });
        proto::write_frame(&mut ours, &handshake).unwrap();
        let ack = parse_json(&proto::read_frame(&mut ours).unwrap().unwrap()).unwrap();
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(false));
        let err = ack.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains("n = "), "n = {bad}: error must name n: {err}");
        server.join().unwrap().unwrap();
    }
}
