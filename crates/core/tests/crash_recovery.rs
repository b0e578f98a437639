//! Crash-safe persistence, through the public API: the tuned-results
//! database (one `tuned.jsonl` journal behind an in-memory map) and
//! the persistent evaluation cache must survive a write that
//! died mid-record or a stray non-UTF-8 byte — the loader skips the bad
//! line and only that line, the next store rewrites a clean journal —
//! and random records must round-trip through disk bit-exactly
//! (property-tested over the in-repo xoshiro generator; no external
//! crates).

use ifko::eval::EvalCache;
use ifko::prelude::*;
use ifko::strategy::TunedRecord;
use ifko_fko::TransformParams;
use ifko_xsim::Rng64;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifko-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rec(key: &str, cycles: u64, seed: u64) -> TunedRecord {
    TunedRecord {
        key: key.to_string(),
        kernel: "ddot".into(),
        prec: "D".into(),
        machine: "P4E".into(),
        context: "oc".into(),
        rev: "r1".into(),
        n: 1024,
        seed,
        strategy: "line".into(),
        cycles,
        params: TransformParams::off(),
        features: None,
    }
}

/// Chop a partial record onto the end of a journal, as a crash between
/// `write` and the trailing newline would leave it.
fn truncate_tail(path: &Path) {
    let mut f = OpenOptions::new().append(true).open(path).unwrap();
    write!(f, "{{\"key\":\"half-written record with no closing").unwrap();
}

/// Splice a line that is not UTF-8 in front of a journal's last record
/// (mid-file, or at the head of a one-record journal), as a bad sector
/// or a foreign writer would leave it.
fn splice_bad_utf8(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    let last_line = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let spliced = [
        &bytes[..last_line],
        b"\xff\xfe not utf-8\n",
        &bytes[last_line..],
    ]
    .concat();
    std::fs::write(path, spliced).unwrap();
}

#[test]
fn tuned_db_skips_truncated_tail_and_repairs_on_store() {
    tuned_db_skips_a_bad_line_and_repairs_on_store("torn-tail", truncate_tail);
    tuned_db_skips_a_bad_line_and_repairs_on_store("bad-utf8", splice_bad_utf8);
}

fn tuned_db_skips_a_bad_line_and_repairs_on_store(tag: &str, corrupt: fn(&Path)) {
    let dir = tmp_dir(&format!("db-{tag}"));
    let db = TunedDb::open(&dir).unwrap();
    for i in 0..5u64 {
        db.store(&rec(&format!("k{i}"), 1000 + i, i));
    }
    drop(db);
    let journal = dir.join("tuned.jsonl");
    corrupt(&journal);

    // The loader recovers every record but the bad line.
    let db = TunedDb::open(&dir).unwrap();
    assert_eq!(db.len(), 5, "{tag}: one bad line cost other records");
    assert_eq!(db.lookup("k3").unwrap().cycles, 1003);

    // The next store heals the torn journal: a fresh
    // open sees the overwrite and no leftover garbage.
    db.store(&rec("k3", 2003, 9));
    let healed = String::from_utf8(std::fs::read(&journal).unwrap());
    assert!(
        healed.is_ok_and(|text| !text.contains("half-written")),
        "{tag}: store did not rewrite the bad journal"
    );
    drop(db);
    let db = TunedDb::open(&dir).unwrap();
    assert_eq!(db.len(), 5);
    assert_eq!(db.lookup("k3").unwrap().cycles, 2003);
    // Appends after the repair still land and survive reopen, and a
    // compaction — a rewrite from the index — keeps every record.
    db.store(&rec("k6", 1006, 6));
    drop(db);
    let db = TunedDb::open(&dir).unwrap();
    assert_eq!(db.len(), 6);
    assert_eq!(db.compact().live, 6);
    drop(db);
    assert_eq!(TunedDb::open(&dir).unwrap().len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_cache_skips_truncated_tail_and_repairs_on_store() {
    eval_cache_skips_a_bad_line_and_repairs_on_store("torn-tail", truncate_tail);
    eval_cache_skips_a_bad_line_and_repairs_on_store("bad-utf8", splice_bad_utf8);
}

fn eval_cache_skips_a_bad_line_and_repairs_on_store(tag: &str, corrupt: fn(&Path)) {
    let dir = tmp_dir(&format!("cache-{tag}"));
    let cache = EvalCache::persistent(&dir).unwrap();
    for i in 0..8u64 {
        cache.insert(format!("point/{i}"), Some(100 + i));
    }
    drop(cache);
    let journal = dir.join("evals.jsonl");
    corrupt(&journal);

    let cache = EvalCache::persistent(&dir).unwrap();
    assert_eq!(cache.len(), 8, "{tag}: one bad line cost other entries");
    assert_eq!(cache.get("point/7"), Some(Some(107)));

    cache.insert("point/8".to_string(), None);
    let healed = String::from_utf8(std::fs::read(&journal).unwrap())
        .unwrap_or_else(|_| panic!("{tag}: insert did not rewrite the bad journal"));
    assert!(
        !healed.contains("half-written"),
        "{tag}: insert did not rewrite the bad journal"
    );
    assert_eq!(healed.lines().count(), 9);
    drop(cache);
    let cache = EvalCache::persistent(&dir).unwrap();
    assert_eq!(cache.len(), 9);
    assert_eq!(cache.get("point/8"), Some(None), "rejection verdict lost");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: random tuned records round-trip through the journal
/// bit-exactly, whatever the keys and values drawn. Numeric fields stay
/// below 2^53 — the journal is JSON, whose numbers are doubles.
#[test]
fn tuned_db_round_trips_random_records() {
    let mut rng = Rng64::seed_from_u64(0xc4a5_4001);
    for trial in 0..8 {
        let dir = tmp_dir(&format!("db-prop-{trial}"));
        let db = TunedDb::open(&dir).unwrap();
        let n_recs = 3 + (rng.next_u64() % 20) as usize;
        let mut recs = Vec::new();
        for i in 0..n_recs {
            let key = format!("k{}/{:x}@{}", i, rng.next_u64(), trial);
            let mut r = rec(&key, rng.next_u64() % 1_000_000, rng.next_u64() >> 11);
            r.n = (rng.next_u64() % 100_000) as usize;
            r.strategy = format!("s{}", rng.next_u64() % 10);
            db.store(&r);
            recs.push(r);
        }
        drop(db);
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), n_recs);
        for r in &recs {
            let got = db
                .lookup(&r.key)
                .unwrap_or_else(|| panic!("{} lost", r.key));
            assert_eq!(got.cycles, r.cycles);
            assert_eq!(got.n, r.n);
            assert_eq!(got.seed, r.seed);
            assert_eq!(got.strategy, r.strategy);
            assert_eq!(got.params, r.params);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Property: the evaluation cache round-trips random keys and verdicts
/// (including `None` — "evaluated and rejected"), and recovery after a
/// torn write loses at most the torn record.
#[test]
fn eval_cache_round_trips_random_entries() {
    let mut rng = Rng64::seed_from_u64(0xe7a1_ca5e);
    for trial in 0..8 {
        let dir = tmp_dir(&format!("cache-prop-{trial}"));
        let cache = EvalCache::persistent(&dir).unwrap();
        let n_entries = 4 + (rng.next_u64() % 30) as usize;
        let mut entries = Vec::new();
        for i in 0..n_entries {
            let key = format!("e{}:{:x}/{}", i, rng.next_u64(), trial);
            let val = if rng.gen_bool(0.25) {
                None
            } else {
                Some(rng.next_u64() % 10_000_000)
            };
            cache.insert(key.clone(), val);
            entries.push((key, val));
        }
        drop(cache);
        if trial % 2 == 0 {
            truncate_tail(&dir.join("evals.jsonl"));
        }
        let cache = EvalCache::persistent(&dir).unwrap();
        assert_eq!(cache.len(), n_entries);
        for (key, val) in &entries {
            assert_eq!(cache.get(key), Some(*val), "{key} did not round-trip");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A well-formed artifact may carry a control character in a string
/// field (here a newline in the kernel name). Installing it must not
/// write that character raw into a JSONL journal: the record would split
/// into two malformed lines and be gone on the next open.
#[test]
fn installed_record_with_control_characters_survives_reopen() {
    use ifko::artifact::{install, parse, VerifyOutcome, MAGIC, VERSION};
    use ifko::strategy::db::record_json;

    let evil = TunedRecord {
        kernel: "evil\nname\t\u{1}".into(),
        ..rec("evil|D|P4E|oc|r1", 4242, 9)
    };
    let line = record_json(&evil);
    assert!(!line.contains('\n'), "record line carries a raw newline");
    let body = format!("{line}\n");
    let text = format!(
        "{{\"magic\":\"{MAGIC}\",\"version\":{VERSION},\"rev\":\"r1\",\"records\":1,\
         \"checksum\":\"{:016x}\"}}\n{body}",
        ifko::eval::fnv64(body.as_bytes())
    );
    let art = parse(&text).expect("artifact is well formed");
    assert_eq!(art.records, vec![evil.clone()]);
    assert!(matches!(
        ifko::artifact::verify_record(&evil),
        VerifyOutcome::Unverifiable(_)
    ));

    let dir = tmp_dir("evil-install");
    {
        let db = TunedDb::open(&dir).unwrap();
        let report = install(&text, &db, true).unwrap();
        assert_eq!((report.installed, report.unverified), (1, 1));
    }
    let db = TunedDb::open(&dir).unwrap();
    let stats = db.stats();
    assert_eq!((stats.live, stats.file_lines), (1, 1), "one clean line");
    assert_eq!(db.lookup(&evil.key), Some(evil));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strings without control characters serialize exactly as before the
/// escapers were merged (committed journals and goldens stay valid).
#[test]
fn plain_strings_serialize_byte_identically() {
    use ifko::strategy::db::record_json;
    let r = TunedRecord {
        kernel: "hil:w\"axpy\\#00ff".into(),
        ..rec("k", 1, 2)
    };
    assert!(record_json(&r).starts_with(
        "{\"key\":\"k\",\"kernel\":\"hil:w\\\"axpy\\\\#00ff\",\"prec\":\"D\",\"machine\":\"P4E\","
    ));
}
