//! Encoding pin for the JSON `ifko` prints: `ifko lint --format json`
//! and `ifko db <stats|compact|prune> --format json`, byte for byte on
//! fixed inputs. Scripts parse this output, so a changed byte here is an
//! interface change. The linted file's name carries a quote, a
//! backslash, a control character and non-ASCII text.

use ifko::strategy::{TunedDb, TunedRecord};
use ifko_fko::TransformParams;
use std::path::{Path, PathBuf};
use std::process::Command;

#[track_caller]
fn pin(actual: &str, expected: &str) {
    assert_eq!(actual, expected, "\nactual bytes: {actual:?}");
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifko-json-pin-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Stdout of `ifko args...`, run in `dir`.
fn ifko(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ifko"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn lint_json() {
    let dir = scratch("lint");
    let kernel = format!("{}/../../kernels/ddot.hil", env!("CARGO_MANIFEST_DIR"));
    let nasty = "q\"uo\\te\t\u{1}é€😀.hil";
    std::fs::copy(&kernel, dir.join(nasty)).unwrap();
    std::fs::write(dir.join("broken.hil"), "ROUTINE x;\nthis is not HIL\n").unwrap();
    pin(
        &ifko(&dir, &["lint", nasty, "--format", "json"]),
        concat!(
            r#"{"files":[{"file":"q\"uo\\te\t\u0001é€😀.hil","diagnostics":[{"code":"A103","severity":"note","stage":"analysis","msg":"tuned loop stores to no array: non-temporal writes never apply","line":8},{"code":"A106","severity":"note","stage":"costmodel","msg":"unroll beyond ~21 overflows the machine's fast-issue loop buffer (256 insts) or L1 working set on P4E: the analysis cap of 128 is not reachable profitably","line":8},{"code":"A107","severity":"note","stage":"costmodel","msg":"accumulator-chain latency bound dominates at defaults (2.50 vs 1.02 cycles/elem issue): raise accumulator expansion","line":8},{"code":"A108","severity":"note","stage":"costmodel","msg":"predicted memory-bound out of cache (6.96 cycles/elem of bus transfer vs 2.50 compute): prefetch and non-temporal-store tuning should dominate","line":8}]}],"errors":0,"warnings":0}"#,
            "\n"
        ),
    );
    pin(
        &ifko(&dir, &["lint", "broken.hil", nasty, "--format", "json"]),
        concat!(
            r#"{"files":[{"file":"broken.hil","diagnostics":[{"code":"F001","severity":"error","stage":"frontend","msg":"parse error: line 1: expected `(`, found Semi","line":1}]},{"file":"q\"uo\\te\t\u0001é€😀.hil","diagnostics":[{"code":"A103","severity":"note","stage":"analysis","msg":"tuned loop stores to no array: non-temporal writes never apply","line":8},{"code":"A106","severity":"note","stage":"costmodel","msg":"unroll beyond ~21 overflows the machine's fast-issue loop buffer (256 insts) or L1 working set on P4E: the analysis cap of 128 is not reachable profitably","line":8},{"code":"A107","severity":"note","stage":"costmodel","msg":"accumulator-chain latency bound dominates at defaults (2.50 vs 1.02 cycles/elem issue): raise accumulator expansion","line":8},{"code":"A108","severity":"note","stage":"costmodel","msg":"predicted memory-bound out of cache (6.96 cycles/elem of bus transfer vs 2.50 compute): prefetch and non-temporal-store tuning should dominate","line":8}]}],"errors":1,"warnings":0}"#,
            "\n"
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn db_json() {
    let dir = scratch("db");
    {
        // Two live records under an old rev, one of them stored twice.
        let db = TunedDb::open(dir.join("db")).unwrap();
        for (key, cycles) in [("a", 10), ("b", 20), ("a", 9)] {
            db.store(&TunedRecord {
                key: key.into(),
                kernel: "ddot".into(),
                prec: "D".into(),
                machine: "P4E#0".into(),
                context: "oc".into(),
                rev: "old".into(),
                n: 64,
                seed: 1,
                strategy: "line".into(),
                cycles,
                params: TransformParams::off(),
                features: None,
            });
        }
    }
    let stats = ["db", "stats", "--db", "db", "--format", "json"];
    pin(
        &ifko(&dir, &stats),
        concat!(
            r#"{"live":2,"file_lines":3,"dead":1,"dead_ratio":0.3333,"bytes":791}"#,
            "\n"
        ),
    );
    let compact = ["db", "compact", "--db", "db", "--format", "json"];
    pin(
        &ifko(&dir, &compact),
        concat!(
            r#"{"live":2,"file_lines":2,"dead":0,"dead_ratio":0.0000,"bytes":527}"#,
            "\n"
        ),
    );
    let prune = [
        "db",
        "prune",
        "--rev-missing",
        "--db",
        "db",
        "--format",
        "json",
    ];
    pin(
        &ifko(&dir, &prune),
        concat!(
            r#"{"pruned":2,"stats":{"live":0,"file_lines":0,"dead":0,"dead_ratio":0.0000,"bytes":0}}"#,
            "\n"
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
