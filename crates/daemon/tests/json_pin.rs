//! Encoding pin for the daemon's wire: the exact bytes `Client` sends
//! for every request and `ifkod` answers to each command, on fixed
//! values. Clients and daemons of different builds talk over this
//! socket, so a changed byte here is a protocol change. Requests with
//! optional fields are pinned both all-set and all-absent, and string
//! fields carry a quote, a backslash, control characters and non-ASCII
//! text.

use ifko::eval::machine_fingerprint;
use ifko::strategy::db::db_key;
use ifko::strategy::{repo_rev, TunedDb, TunedRecord};
use ifko_daemon::client::{Client, TuneRequest};
use ifko_daemon::server::{Daemon, DaemonConfig};
use ifko_daemon::{read_frame, write_frame};
use ifko_fko::ir::PtrId;
use ifko_fko::{PrefSpec, TransformParams};
use ifko_xsim::{p4e, PrefKind};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// A string every escaping rule applies to.
const NASTY: &str = "q\"uo\\te\n\t\r\u{1}\u{1f}é€😀";

#[track_caller]
fn pin(actual: &str, expected: &str) {
    assert_eq!(actual, expected, "\nactual bytes: {actual:?}");
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifkod-pin-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The frames `drive` makes a `Client` send, as a stand-in daemon that
/// answers every one with `ok` receives them.
fn sent(name: &str, drive: impl FnOnce(&mut Client)) -> Vec<String> {
    let dir = tmp(name);
    let socket = dir.join("capture.sock");
    let listener = UnixListener::bind(&socket).unwrap();
    let capture = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut stream).unwrap() {
            frames.push(frame);
            let reply = r#"{"ok":true,"stats":{},"text":"","artifact":""}"#;
            write_frame(&mut stream, reply).unwrap();
        }
        frames
    });
    let mut client = Client::connect(&socket).unwrap();
    drive(&mut client);
    drop(client);
    let frames = capture.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    frames
}

#[test]
fn client_requests() {
    let all_set = TuneRequest {
        kernel: Some(NASTY.into()),
        src: Some(NASTY.into()),
        machine: NASTY.into(),
        context: NASTY.into(),
        n: Some(usize::MAX),
        seed: Some(u64::MAX),
        full: true,
        strategy: Some(NASTY.into()),
        budget: Some(NASTY.into()),
    };
    let frames = sent("tune", |c| {
        c.tune(&all_set).unwrap();
        c.tune(&TuneRequest::default()).unwrap();
    });
    pin(
        &frames[0],
        r#"{"cmd":"tune","kernel":"q\"uo\\te\n\t\r\u0001\u001fé€😀","src":"q\"uo\\te\n\t\r\u0001\u001fé€😀","machine":"q\"uo\\te\n\t\r\u0001\u001fé€😀","context":"q\"uo\\te\n\t\r\u0001\u001fé€😀","n":18446744073709551615,"seed":18446744073709551615,"full":true,"strategy":"q\"uo\\te\n\t\r\u0001\u001fé€😀","budget":"q\"uo\\te\n\t\r\u0001\u001fé€😀"}"#,
    );
    pin(&frames[1], r#"{"cmd":"tune"}"#);

    let frames = sent("query", |c| {
        let sfv = [0.5, 1.0 / 3.0, 1e-9, -2.0];
        c.query(NASTY, NASTY, NASTY, Some(NASTY), Some(&sfv))
            .unwrap();
        c.query("ddot", "p4e", "oc", None, None).unwrap();
    });
    pin(
        &frames[0],
        r#"{"cmd":"query","kernel":"q\"uo\\te\n\t\r\u0001\u001fé€😀","machine":"q\"uo\\te\n\t\r\u0001\u001fé€😀","context":"q\"uo\\te\n\t\r\u0001\u001fé€😀","prec":"q\"uo\\te\n\t\r\u0001\u001fé€😀","sfv":[0.500000,0.333333,0.000000,-2.000000]}"#,
    );
    pin(
        &frames[1],
        r#"{"cmd":"query","kernel":"ddot","machine":"p4e","context":"oc"}"#,
    );

    let frames = sent("bare", |c| {
        c.ping().unwrap();
        c.metrics().unwrap();
        c.stats().unwrap();
        c.compact().unwrap();
        c.pack().unwrap();
        c.shutdown().unwrap();
    });
    pin(
        &frames.join("\n"),
        concat!(
            r#"{"cmd":"ping"}"#,
            "\n",
            r#"{"cmd":"metrics"}"#,
            "\n",
            r#"{"cmd":"stats"}"#,
            "\n",
            r#"{"cmd":"compact"}"#,
            "\n",
            r#"{"cmd":"pack"}"#,
            "\n",
            r#"{"cmd":"shutdown"}"#
        ),
    );
}

/// One raw request to a running daemon, and its raw reply.
fn ask(socket: &PathBuf, request: &str) -> String {
    let mut s = UnixStream::connect(socket).unwrap();
    write_frame(&mut s, request).unwrap();
    read_frame(&mut s).unwrap().unwrap()
}

fn stored(kernel: &str) -> TunedRecord {
    let fp = machine_fingerprint(&p4e());
    let rev = repo_rev();
    let mut params = TransformParams::off();
    params.unroll = 4;
    params.prefetch = vec![PrefSpec {
        ptr: PtrId(1),
        kind: Some(PrefKind::T0),
        dist: 256,
    }];
    TunedRecord {
        key: db_key(kernel, "D", &fp, "oc", &rev),
        kernel: kernel.into(),
        prec: "D".into(),
        machine: fp,
        context: "oc".into(),
        rev,
        n: 1024,
        seed: 7,
        strategy: NASTY.into(),
        cycles: 555,
        params,
        features: None,
    }
}

#[test]
fn daemon_replies() {
    let db_dir = tmp("replies-db");
    {
        let db = TunedDb::open(&db_dir).unwrap();
        db.store(&stored("ddot"));
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
    // The stored record carries this build's rev, which sizes the
    // journal and enters the pack checksum: the pins spell those REV,
    // BYTES and SUM.
    let bytes = std::fs::metadata(db_dir.join("tuned.jsonl")).unwrap().len();
    let rev = repo_rev();
    let ask = |request: &str| {
        // The rev ends a JSON string, plain or escaped inside the packed
        // artifact: mask it only there, so it can be any text at all.
        let mut reply = ask(&socket, request);
        for q in ["\"", "\\\""] {
            for open in [format!(":{q}"), "|".to_string()] {
                reply = reply.replace(&format!("{open}{rev}{q}"), &format!("{open}REV{q}"));
            }
        }
        let reply = reply.replace(&format!("\"bytes\":{bytes}"), "\"bytes\":BYTES");
        match reply.split_once(r#"\"checksum\":\""#) {
            Some((head, tail)) => format!(r#"{head}\"checksum\":\"SUM{}"#, &tail[16..]),
            None => reply,
        }
    };

    pin(&ask(r#"{"cmd":"ping"}"#), r#"{"ok":true,"pong":"ifkod"}"#);
    pin(
        &ask(r#"{"cmd":"frob\"x"}"#),
        "{\"ok\":false,\"error\":\"unknown cmd \\\"frob\\\\\\\"x\\\"\"}",
    );
    pin(
        &ask("not json"),
        r#"{"ok":false,"error":"unparseable request"}"#,
    );
    pin(
        &ask(r#"{"cmd":"stats"}"#),
        r#"{"ok":true,"stats":{"live":1,"file_lines":1,"dead":0,"dead_ratio":0.0000,"bytes":BYTES}}"#,
    );
    pin(
        &ask(r#"{"cmd":"compact"}"#),
        r#"{"ok":true,"stats":{"live":1,"file_lines":1,"dead":0,"dead_ratio":0.0000,"bytes":BYTES}}"#,
    );
    pin(
        &ask(r#"{"cmd":"pack"}"#),
        r#"{"ok":true,"artifact":"{\"magic\":\"ifko-tune-cache\",\"version\":1,\"rev\":\"REV\",\"records\":1,\"checksum\":\"SUM\"}\n{\"key\":\"ddot|D|P4E#b7470cfff67d022c|oc|REV\",\"kernel\":\"ddot\",\"prec\":\"D\",\"machine\":\"P4E#b7470cfff67d022c\",\"context\":\"oc\",\"rev\":\"REV\",\"n\":1024,\"seed\":7,\"strategy\":\"q\\\"uo\\\\te\\n\\t\\r\\u0001\\u001fé€😀\",\"cycles\":555,\"params\":{\"simd\":false,\"unroll\":4,\"ae\":1,\"wnt\":false,\"lc\":true,\"cisc\":true,\"copy_prop\":true,\"dce\":true,\"branch_cleanup\":true,\"pf\":[{\"ptr\":1,\"kind\":\"t0\",\"dist\":256}]}}\n"}"#,
    );
    pin(
        &ask(r#"{"cmd":"query","kernel":"ddot","machine":"p4e","context":"oc"}"#),
        r#"{"ok":true,"found":true,"record":{"key":"ddot|D|P4E#b7470cfff67d022c|oc|REV","kernel":"ddot","prec":"D","machine":"P4E#b7470cfff67d022c","context":"oc","rev":"REV","n":1024,"seed":7,"strategy":"q\"uo\\te\n\t\r\u0001\u001fé€😀","cycles":555,"params":{"simd":false,"unroll":4,"ae":1,"wnt":false,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":1,"kind":"t0","dist":256}]}}}"#,
    );
    pin(
        &ask(r#"{"cmd":"query","kernel":"dasum","machine":"p4e","sfv":[1.5,2]}"#),
        r#"{"ok":false,"error":"query field `sfv` is refused: a query answers only its key's record"}"#,
    );
    pin(
        &ask(r#"{"cmd":"query","kernel":"dasum","machine":"p4e"}"#),
        r#"{"ok":true,"found":false}"#,
    );
    pin(
        &ask(r#"{"cmd":"tune","kernel":"dasum","context":"ic","n":256,"seed":3}"#),
        r#"{"ok":true,"kernel":"dasum","machine":"P4E#b7470cfff67d022c","context":"ic","n":256,"seed":3,"warm":false,"strategy":"line","winner_strategy":"line","default_cycles":678,"best_cycles":218,"cycles":218,"mflops":6576.146789,"evaluations":23,"cache_hits":14,"pruned":2,"params":{"simd":true,"unroll":8,"ae":4,"wnt":false,"lc":true,"cisc":true,"copy_prop":true,"dce":true,"branch_cleanup":true,"pf":[{"ptr":0,"kind":"nta","dist":128}]}}"#,
    );
    pin(
        &ask(r#"{"cmd":"tune","kernel":7}"#),
        r#"{"ok":false,"error":"tune field `kernel` must be a string"}"#,
    );
    pin(&ask(r#"{"cmd":"shutdown"}"#), r#"{"ok":true}"#);

    handle.wait();
    let _ = std::fs::remove_dir_all(&db_dir);
}
