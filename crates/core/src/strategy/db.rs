//! The persistent tuned-results database: winning parameter points,
//! keyed by kernel / precision / machine / context / repo revision, held
//! in one in-memory map mirrored to one append-only JSONL journal
//! (`results/db/tuned.jsonl` by convention).
//!
//! The database is deliberately *not* keyed by problem size or workload
//! seed: a tuned parameter point transfers across sizes (the paper tunes
//! once per context and reuses the result), and a warm start never
//! trusts a stored winner blindly — the driver re-evaluates it through
//! the full compile → verify → time path before accepting it (see
//! `strategy::run_search`). The repo revision is part of the
//! key so a changed compiler invalidates old winners automatically.
//!
//! Storage is sized to its traffic: a tune stores one winner after
//! thousands of probes, and a warm tune stores nothing, so one map behind
//! one lock and one file is all the store needs. A lookup answers one
//! key from the map, the key's own record or nothing; the journal is
//! replayed exactly once, at open. Lines beyond the live-record count are
//! *dead* (superseded last-wins history); the store that takes the dead
//! count across the threshold compacts the journal in line (atomic tmp +
//! rename, the same rewrite that heals torn appends), so file size and
//! load time stay proportional to the live record count, not to append
//! history.
//!
//! Concurrency: the journal is append-only with last-record-wins
//! semantics on load, so interrupted runs and concurrent writers degrade
//! to stale entries, never corruption.

use crate::fault::FaultPlan;
use crate::journal::{self, Journal};
use crate::json::{obj, parse_json, Array, FieldError, Fixed, Json, Raw};
pub use crate::key::db_key;
use crate::metrics;
use ifko_fko::ir::PtrId;
use ifko_fko::{PrefSpec, TransformParams};
use ifko_xsim::PrefKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The journal is compacted by the store that leaves it with this many
/// dead (superseded) lines, provided they also outnumber the live ones.
const AUTO_COMPACT_MIN_DEAD: u64 = 128;

/// One stored winner.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedRecord {
    /// Full database key (see [`tuned_key`](crate::key::tuned_key)).
    pub key: String,
    pub kernel: String,
    /// Precision label (`D` / `S`).
    pub prec: String,
    /// Machine fingerprint (see
    /// [`machine_fingerprint`](crate::key::machine_fingerprint)).
    pub machine: String,
    /// Timing-context label (`oc` / `ic`).
    pub context: String,
    /// Repo revision the winner was tuned under.
    pub rev: String,
    /// Problem size of the tuning run (informational; not in the key).
    pub n: usize,
    /// Workload seed of the tuning run (informational; not in the key).
    pub seed: u64,
    /// Strategy that found the winner.
    pub strategy: String,
    /// Winning cycles at tuning time.
    pub cycles: u64,
    pub params: TransformParams,
    /// The `sfv` field of a line an older revision wrote, read and
    /// kept but never written: no tune reads it.
    pub features: Option<Vec<f64>>,
}

/// Database statistics snapshot (see [`TunedDb::stats`]).
#[derive(Clone, Debug)]
pub struct DbStats {
    /// Live (indexed) records.
    pub live: usize,
    /// Record lines in the journal, live + dead.
    pub file_lines: u64,
    /// Journal size in bytes.
    pub bytes: u64,
}

impl DbStats {
    /// Dead (superseded or malformed) record lines in the journal.
    pub fn dead(&self) -> u64 {
        self.file_lines.saturating_sub(self.live as u64)
    }

    /// Dead lines as a fraction of all lines (0 when the db is empty).
    pub fn dead_ratio(&self) -> f64 {
        if self.file_lines == 0 {
            0.0
        } else {
            self.dead() as f64 / self.file_lines as f64
        }
    }

    /// JSON rendering (one object; `ifko db stats --format json` and the
    /// daemon's `stats` response both emit it).
    pub fn to_json(&self) -> String {
        obj()
            .field("live", self.live)
            .field("file_lines", self.file_lines)
            .field("dead", self.dead())
            .field("dead_ratio", Fixed(self.dead_ratio(), 4))
            .field("bytes", self.bytes)
            .finish()
    }
}

/// The tuned-results database: one in-memory map mirrored to the
/// append-only journal `tuned.jsonl`, compacted in line.
pub struct TunedDb {
    entries: Mutex<HashMap<String, TunedRecord>>,
    /// The journal file. Its line count minus the live records is the
    /// dead (superseded or malformed) count, the compaction trigger.
    journal: Journal,
    rev: String,
}

impl TunedDb {
    /// Open (creating if needed) the database in `dir`, loading every
    /// well-formed record into the map with last-record-wins semantics.
    /// Malformed records — typically one truncated trailing line from a
    /// crash mid-append — are skipped with a diagnostic and the journal
    /// is repaired (atomic tmp + rename rewrite) by the next store. A
    /// directory in the older eight-file `shard-*.jsonl` layout is merged
    /// into `tuned.jsonl` on first open.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<TunedDb> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut entries: HashMap<String, TunedRecord> = HashMap::new();
        let mut index = |line: &str| {
            parse_record(line)
                .map(|rec| entries.insert(rec.key.clone(), rec))
                .is_some()
        };
        let path = dir.join("tuned.jsonl");
        let loaded = journal::read_lines(&path, &mut index);
        // Shard files load after the journal, in name order, so where a
        // key repeats the later file wins, as it did under that layout.
        let mut shards: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| Some(entry.ok()?.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|name| name.to_str())
                    .is_some_and(|name| name.starts_with("shard-") && name.ends_with(".jsonl"))
            })
            .collect();
        shards.sort();
        let malformed = shards.iter().fold(loaded.malformed, |sum, shard| {
            sum + journal::read_lines(shard, &mut index).malformed
        });
        journal::report_skipped("tuned db", dir, malformed, metrics::DB_RECOVERED);
        let db = TunedDb {
            entries: Mutex::new(entries),
            journal: Journal::open(path, &loaded)?,
            rev: repo_rev(),
        };
        // Materialize the merged map, then drop the shard files — a crash
        // between the two leaves both layouts present and the next open
        // repeats the (idempotent) merge.
        if !shards.is_empty() && db.rewrite() {
            for shard in &shards {
                std::fs::remove_file(shard)?;
            }
            eprintln!(
                "ifko: tuned db {}: merged {} record(s) from {} shard file(s) into tuned.jsonl",
                dir.display(),
                db.len(),
                shards.len()
            );
        }
        Ok(db)
    }

    /// The repo revision this process keys new records under.
    pub fn rev(&self) -> &str {
        &self.rev
    }

    /// The map, locked (poisoned only by a panic mid-update: a bug here).
    fn entries(&self) -> MutexGuard<'_, HashMap<String, TunedRecord>> {
        self.entries.lock().expect("tuned-db lock poisoned")
    }

    /// Stored winner for a key, if any — answered from the in-memory
    /// map, never from disk.
    pub fn lookup(&self, key: &str) -> Option<TunedRecord> {
        self.entries().get(key).cloned()
    }

    /// Store (or overwrite) a winner, appending it to the journal.
    pub fn store(&self, rec: &TunedRecord) {
        self.store_with(rec, None);
    }

    /// [`TunedDb::store`] under a chaos plan: the plan may truncate the
    /// appended record mid-write (simulating a crash), which marks the
    /// journal dirty so the *next* store repairs it. The in-memory entry
    /// always lands, so lookups never depend on the fault.
    pub fn store_with(&self, rec: &TunedRecord, faults: Option<&FaultPlan>) {
        let live = {
            let mut entries = self.entries();
            entries.insert(rec.key.clone(), rec.clone());
            entries.len() as u64
        };
        let repaired = self
            .journal
            .store(&rec.key, record_json(rec), faults, || self.lines());
        let dead = self.journal.lines().saturating_sub(live);
        if repaired {
            metrics::global().counter(metrics::DB_COMPACTIONS).inc();
        } else if dead >= AUTO_COMPACT_MIN_DEAD && dead >= live {
            self.rewrite();
        }
        metrics::global().counter(metrics::DB_STORES).inc();
    }

    /// Every live record as a journal line, sorted by key so a rewritten
    /// journal is deterministic.
    fn lines(&self) -> Vec<String> {
        self.records().iter().map(record_json).collect()
    }

    /// Rewrite the journal from the map: one line per key. Compaction
    /// and torn-append repair are this one operation; a failed rewrite
    /// leaves the journal dirty, to be retried by the next store.
    fn rewrite(&self) -> bool {
        let landed = self.journal.rewrite(|| self.lines());
        if landed {
            metrics::global().counter(metrics::DB_COMPACTIONS).inc();
        }
        landed
    }

    /// Compact the journal now (atomic rewrite, one record per key),
    /// returning post-compaction statistics. `ifko db compact` and the
    /// daemon's `compact` command call this; routine operation relies on
    /// the in-line rule in [`TunedDb::store_with`] instead.
    pub fn compact(&self) -> DbStats {
        self.rewrite();
        self.stats()
    }

    /// Drop every record stored under a repo revision other than this
    /// process's ([`TunedDb::rev`]) — the library behind
    /// `ifko db prune --rev-missing`. Stale-revision records can never
    /// answer a warm-start lookup (the revision is part of the db key),
    /// so once the code moves on they only cost space. The journal is
    /// compacted afterwards so the file shrinks with the map. Returns
    /// the number of records removed.
    pub fn prune_missing_rev(&self) -> usize {
        let removed = {
            let mut entries = self.entries();
            let before = entries.len();
            entries.retain(|_, rec| rec.rev == self.rev);
            before - entries.len()
        };
        self.rewrite();
        removed
    }

    /// Statistics snapshot: live records, journal lines, and bytes.
    pub fn stats(&self) -> DbStats {
        DbStats {
            live: self.len(),
            file_lines: self.journal.lines(),
            bytes: std::fs::metadata(self.journal.path())
                .map(|m| m.len())
                .unwrap_or(0),
        }
    }

    /// All stored winners, sorted by key — a deterministic iteration
    /// order for offline consumers (`ifko explain` cross-checks trace
    /// winners against the database with it; `ifko pack` serializes it).
    pub fn records(&self) -> Vec<TunedRecord> {
        let mut v: Vec<TunedRecord> = self.entries().values().cloned().collect();
        v.sort_by(|a, b| a.key.cmp(&b.key));
        v
    }

    pub fn len(&self) -> usize {
        self.entries().len()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The repo revision used in database keys: `IFKO_REPO_REV` when set,
/// else the short git HEAD commit found by walking up from the current
/// directory, else `unknown`.
pub fn repo_rev() -> String {
    if let Ok(rev) = std::env::var("IFKO_REPO_REV") {
        return short_rev(rev.trim());
    }
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let head = d.join(".git").join("HEAD");
        if let Ok(s) = std::fs::read_to_string(&head) {
            let s = s.trim();
            let hash = match s.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(d.join(".git").join(r.trim()))
                    .map(|h| h.trim().to_string())
                    .unwrap_or_else(|_| r.trim().replace('/', "-")),
                None => s.to_string(),
            };
            return short_rev(&hash);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

fn short_rev(h: &str) -> String {
    let h = if h.is_empty() { "unknown" } else { h };
    h.chars().take(12).collect()
}

// ---------------------------------------------------------------------------
// Record (de)serialization
// ---------------------------------------------------------------------------

/// Serialize a parameter point as a stable JSON object (field names
/// abbreviated like the Table 3 rows).
pub fn params_json(p: &TransformParams) -> String {
    let pf = p.prefetch.iter().map(|s| {
        obj()
            .field("ptr", s.ptr.0)
            .field("kind", s.kind.map(PrefKind::abbrev))
            .field("dist", s.dist)
    });
    obj()
        .field("simd", p.simd)
        .field("unroll", p.unroll)
        .field("ae", p.accum_expand)
        .field("wnt", p.wnt)
        .field("lc", p.loop_control)
        .field("cisc", p.cisc_memops)
        .field("copy_prop", p.copy_prop)
        .field("dce", p.dead_code_elim)
        .field("branch_cleanup", p.branch_cleanup)
        .field("pf", Array(pf))
        .finish()
}

fn kind_from_abbrev(s: &str) -> Option<PrefKind> {
    use PrefKind::*;
    [T0, T1, T2, Nta, W].into_iter().find(|k| k.abbrev() == s)
}

/// Parse a [`params_json`] object back into a point.
pub fn params_from_json(v: &Json) -> Option<TransformParams> {
    read_params(v).ok()
}

fn read_params(v: &Json) -> Result<TransformParams, FieldError> {
    let mut prefetch = Vec::new();
    for item in v.req::<&[Json]>("pf")? {
        let kind = match item.req::<Option<&str>>("kind")? {
            None => None,
            Some(k) => Some(kind_from_abbrev(k).ok_or(FieldError::Wrong {
                field: "kind".to_string(),
                want: "a prefetch kind",
            })?),
        };
        prefetch.push(PrefSpec {
            ptr: PtrId(item.req("ptr")?),
            kind,
            dist: item.req("dist")?,
        });
    }
    Ok(TransformParams {
        simd: v.req("simd")?,
        unroll: v.req("unroll")?,
        accum_expand: v.req("ae")?,
        wnt: v.req("wnt")?,
        prefetch,
        loop_control: v.req("lc")?,
        cisc_memops: v.req("cisc")?,
        copy_prop: v.req("copy_prop")?,
        dead_code_elim: v.req("dce")?,
        branch_cleanup: v.req("branch_cleanup")?,
    })
}

/// Serialize a record as one stable JSONL line — the on-disk and
/// artifact wire format. A record's `features` are not written.
pub fn record_json(rec: &TunedRecord) -> String {
    obj()
        .field("key", &rec.key)
        .field("kernel", &rec.kernel)
        .field("prec", &rec.prec)
        .field("machine", &rec.machine)
        .field("context", &rec.context)
        .field("rev", &rec.rev)
        .field("n", rec.n)
        .field("seed", rec.seed)
        .field("strategy", &rec.strategy)
        .field("cycles", rec.cycles)
        .field("params", Raw(&params_json(&rec.params)))
        .finish()
}

/// Parse one [`record_json`] line back into a record: `None` for a
/// malformed one. An older revision's `sfv` field reads into
/// `features`.
pub fn parse_record(line: &str) -> Option<TunedRecord> {
    read_record(&parse_json(line.trim())?).ok()
}

fn read_record(v: &Json) -> Result<TunedRecord, FieldError> {
    Ok(TunedRecord {
        key: v.req("key")?,
        kernel: v.req("kernel")?,
        prec: v.req("prec")?,
        machine: v.req("machine")?,
        context: v.req("context")?,
        rev: v.req("rev")?,
        n: v.req("n")?,
        seed: v.req("seed")?,
        strategy: v.req("strategy")?,
        cycles: v.req("cycles")?,
        params: read_params(v.req("params")?)?,
        features: v.field("sfv")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> TransformParams {
        let mut p = TransformParams::off();
        p.simd = true;
        p.unroll = 8;
        p.accum_expand = 4;
        p.prefetch = vec![
            PrefSpec {
                ptr: PtrId(0),
                kind: Some(PrefKind::Nta),
                dist: 1024,
            },
            PrefSpec {
                ptr: PtrId(1),
                kind: None,
                dist: 128,
            },
        ];
        p
    }

    fn sample_record(key: &str, cycles: u64) -> TunedRecord {
        TunedRecord {
            key: key.to_string(),
            kernel: "ddot".to_string(),
            prec: "D".to_string(),
            machine: "P4E#0123".to_string(),
            context: "oc".to_string(),
            rev: "abc123def456".to_string(),
            n: 1024,
            seed: 0xb1a5,
            strategy: "line".to_string(),
            cycles,
            params: sample_params(),
            features: None,
        }
    }

    /// The record lines of the journal file.
    fn journal_lines(dir: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(dir.join("tuned.jsonl")).unwrap();
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn params_round_trip_through_json() {
        let p = sample_params();
        let v = parse_json(&params_json(&p)).unwrap();
        assert_eq!(params_from_json(&v), Some(p));
        let off = TransformParams::off();
        let v = parse_json(&params_json(&off)).unwrap();
        assert_eq!(params_from_json(&v), Some(off));
    }

    #[test]
    fn out_of_range_params_are_refused_not_truncated() {
        let mut p = sample_params();
        p.unroll = 1;
        let text = params_json(&p);
        let wide = text.replacen("\"unroll\":1,", "\"unroll\":4294967297,", 1);
        assert_ne!(wide, text, "the point's wire form moved");
        assert_eq!(params_from_json(&parse_json(&wide).unwrap()), None);
    }

    #[test]
    fn record_round_trips_and_last_wins() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = db_key("ddot", "D", "P4E#0123", "oc", "abc123def456");
        {
            let db = TunedDb::open(&dir).unwrap();
            assert!(db.is_empty());
            db.store(&sample_record(&key, 9000));
            db.store(&sample_record(&key, 2500)); // overwrite
            assert_eq!(db.len(), 1);
            let stats = db.stats();
            assert_eq!((stats.live, stats.file_lines, stats.dead()), (1, 2, 1));
            assert!((stats.dead_ratio() - 0.5).abs() < 1e-9);
            assert!(stats.bytes > 0);
        }
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1);
        let rec = db.lookup(&key).unwrap();
        assert_eq!(rec.cycles, 2500, "last record wins");
        assert_eq!(rec.params, sample_params());
        assert!(db.lookup("other|key").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_missing_rev_drops_stale_revisions() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = TunedDb::open(&dir).unwrap();
        let mut live = sample_record("live|key", 100);
        live.rev = db.rev().to_string();
        db.store(&live);
        // sample_record's rev is a fixed fake hash — never this repo's.
        db.store(&sample_record("stale|key", 200));
        db.store(&sample_record("stale|two", 300));
        assert_eq!(db.len(), 3);
        assert_eq!(db.prune_missing_rev(), 2);
        assert_eq!(db.len(), 1);
        assert!(db.lookup("live|key").is_some());
        assert!(db.lookup("stale|key").is_none());
        assert!(db.lookup("stale|two").is_none());
        drop(db);
        // The prune compacts the journal: a reopen sees only the
        // survivor, and a second prune is a no-op.
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.prune_missing_rev(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rec = sample_record("k", 100);
        let good = record_json(&rec);
        std::fs::write(
            dir.join("tuned.jsonl"),
            format!("garbage\n{good}\n{{\"key\":\"half\"\n"),
        )
        .unwrap();
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.lookup("k").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_trailing_record_is_repaired_on_next_store() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = record_json(&sample_record("k2", 100));
        let torn = &record_json(&sample_record("k-torn", 999));
        let torn = &torn[..torn.len() / 2];
        std::fs::write(dir.join("tuned.jsonl"), format!("{good}\n{torn}")).unwrap();
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1, "torn record is skipped");
        // The next store into the dirty journal rewrites it whole.
        db.store(&sample_record("k2", 200));
        for line in journal_lines(&dir) {
            assert!(parse_record(&line).is_some(), "unparseable: {line}");
        }
        // And the reopened append handle keeps working.
        db.store(&sample_record("k3", 300));
        let db2 = TunedDb::open(&dir).unwrap();
        assert_eq!(db2.len(), 2);
        assert_eq!(db2.lookup("k2").unwrap().cycles, 200);
        assert_eq!(db2.lookup("k3").unwrap().cycles, 300);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_persist_faults_self_heal() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::uniform(7, crate::fault::MAX_RATE);
        {
            let db = TunedDb::open(&dir).unwrap();
            for i in 0..24u64 {
                db.store_with(&sample_record(&format!("key-{i}"), 100 + i), Some(&plan));
            }
        }
        // A truncated append is repaired by the next store; at most the
        // last append can stay torn.
        let db = TunedDb::open(&dir).unwrap();
        assert!(db.len() >= 23, "only {}/24 records survived", db.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_shard_files_migrate_to_one_journal() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let keys: Vec<String> = (0..20)
            .map(|i| db_key(&format!("kern{i}"), "D", "M#0", "oc", "r1"))
            .collect();
        // Eight shard files as the older layout wrote them, records dealt
        // round-robin; keys[3] (home: shard-3) also sits, stale, in
        // shard-1 and, newer, in shard-6: the last file read wins.
        let mut shards = vec![String::new(); 8];
        for (i, k) in keys.iter().enumerate() {
            shards[i % 8] += &(record_json(&sample_record(k, 100 + i as u64)) + "\n");
        }
        shards[1] += &(record_json(&sample_record(&keys[3], 9999)) + "\n");
        shards[6] += &(record_json(&sample_record(&keys[3], 4242)) + "\n");
        for (i, text) in shards.iter().enumerate() {
            std::fs::write(dir.join(format!("shard-{i}.jsonl")), text).unwrap();
        }
        let files = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 20);
        assert_eq!(db.lookup(&keys[3]).unwrap().cycles, 4242);
        assert_eq!(db.lookup(&keys[19]).unwrap().cycles, 119);
        assert_eq!(files(), ["tuned.jsonl"], "shard files removed");
        let merged = journal_lines(&dir);
        assert_eq!(merged.len(), 20, "one line per key");
        drop(db);
        // Reopening is a no-op: same records, same bytes.
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 20);
        assert_eq!(db.lookup(&keys[3]).unwrap().cycles, 4242);
        assert_eq!(files(), ["tuned.jsonl"]);
        assert_eq!(journal_lines(&dir), merged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_dedups_to_one_byte_identical_record_per_key() {
        // The satellite regression: a 10k-append history compacts to
        // exactly one line per key, and that line is byte-identical to
        // the serialization of the winning (last-stored) record.
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-10k-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let keys: Vec<String> = (0..4)
            .map(|i| db_key(&format!("kern{i}"), "D", "M#0", "oc", "r1"))
            .collect();
        let db = TunedDb::open(&dir).unwrap();
        for i in 0..10_000u64 {
            let mut rec = sample_record(&keys[(i % 4) as usize], i);
            rec.seed = i;
            db.store(&rec);
        }
        let stats = db.compact();
        assert_eq!(stats.live, 4);
        assert_eq!(stats.file_lines, 4, "dead records compacted away");
        assert_eq!(stats.dead(), 0);
        let lines = journal_lines(&dir);
        assert_eq!(lines.len(), 4);
        for key in &keys {
            let winner = db.lookup(key).unwrap();
            let expect = record_json(&winner);
            assert!(
                lines.contains(&expect),
                "winning record for {key} not byte-identical on disk"
            );
            assert_eq!(winner.cycles, winner.seed, "last store wins");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_compaction_bounds_file_growth() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-auto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = db_key("kern", "D", "M#0", "oc", "r1");
        let db = TunedDb::open(&dir).unwrap();
        for i in 0..2_000u64 {
            db.store(&sample_record(&key, i));
            // The store that makes the 128th dead line compacts, so the
            // file never holds more than the rule's own bound.
            assert!(db.stats().file_lines < 2 * AUTO_COMPACT_MIN_DEAD);
        }
        drop(db);
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.lookup(&key).unwrap().cycles, 1999);
        let lines = journal_lines(&dir).len() as u64;
        assert!(
            lines < 2 * AUTO_COMPACT_MIN_DEAD,
            "in-line compaction never ran: {lines} lines on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn features_round_trip_and_old_records_parse() {
        // A record's features are not written: its line is the bare
        // record's, which round-trips with no `sfv` field at all.
        let mut rec = sample_record("fk", 500);
        rec.features = Some(vec![1.5, 0.25, 3.0]);
        let line = record_json(&rec);
        assert!(!line.contains("sfv"));
        assert_eq!(line, record_json(&sample_record("fk", 500)));
        assert_eq!(parse_record(&line), Some(sample_record("fk", 500)));
        // A line an older revision wrote with `sfv` still parses, and its
        // vector reads into `features`.
        let old_line = format!(
            "{},\"sfv\":[1.5,0.25,3.0]}}",
            line.strip_suffix('}').unwrap()
        );
        assert_eq!(parse_record(&old_line), Some(rec));
    }

    #[test]
    fn repo_rev_is_stable_and_short() {
        let a = repo_rev();
        let b = repo_rev();
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 12, "{a}");
    }
}
