//! The persistent tuned-results database: winning parameter points,
//! keyed by kernel / precision / machine / context / repo revision, held
//! in an in-memory index mirrored to sharded append-only JSONL files
//! (`results/db/shard-*.jsonl` by convention).
//!
//! The database is deliberately *not* keyed by problem size or workload
//! seed: a tuned parameter point transfers across sizes (the paper tunes
//! once per context and reuses the result), and a warm start never
//! trusts a stored winner blindly — the driver re-evaluates it through
//! the full compile → verify → time path before accepting it (see
//! [`run_search`](super::run_search)). The repo revision is part of the
//! key so a changed compiler invalidates old winners automatically.
//!
//! Storage layout: records are sharded by FNV-64 of the
//! `kernel|machine` key prefix into [`N_SHARDS`] files, so a hot shard's
//! append traffic and compaction never touch the others. Every lookup —
//! exact key or nearest-by-features — is answered from the in-memory
//! index; the JSONL is replayed exactly once, at open. Appends beyond
//! the live-record count are *dead* (superseded last-wins history);
//! once a shard's dead count crosses a threshold a background
//! compaction rewrites it (atomic tmp + rename, the same journal-repair
//! machinery that heals torn appends), so file size and load time stay
//! proportional to the live record count, not to append history.
//!
//! Concurrency: shard files are append-only with last-record-wins
//! semantics on load, so interrupted runs and concurrent writers
//! degrade to stale entries, never corruption.

use crate::eval::fnv64;
use crate::fault::FaultPlan;
use crate::journal::{self, Journal, Loaded};
use crate::json::{esc, parse_json, Json};
use crate::metrics;
use ifko_fko::ir::PtrId;
use ifko_fko::{PrefSpec, TransformParams};
use ifko_xsim::PrefKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Number of storage shards. Fixed: the shard of a record depends only
/// on its key, so the count cannot change without a migration.
pub const N_SHARDS: usize = 8;

/// A shard accumulates this many dead (superseded) records before a
/// background compaction rewrites it.
const AUTO_COMPACT_MIN_DEAD: u64 = 128;

/// One stored winner.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedRecord {
    /// Full database key (see [`db_key`]).
    pub key: String,
    pub kernel: String,
    /// Precision label (`D` / `S`).
    pub prec: String,
    /// Machine fingerprint (see
    /// [`machine_fingerprint`](crate::eval::machine_fingerprint)).
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
    /// Static feature vector of the kernel at FKO defaults
    /// (`StaticFeatureVector::values` order) — the similarity key for
    /// transfer warm starts. `None` on records from older revisions.
    pub features: Option<Vec<f64>>,
}

/// The canonical database key.
pub fn db_key(kernel: &str, prec: &str, machine: &str, context: &str, rev: &str) -> String {
    format!("{kernel}|{prec}|{machine}|{context}|{rev}")
}

/// Shard index for a record key: FNV-64 of the `kernel|machine` prefix,
/// so every precision/context/revision variant of one kernel on one
/// machine lands in the same shard (a pack of one kernel's history
/// touches one file). Malformed keys hash whole.
fn shard_of(key: &str) -> usize {
    let parts: Vec<&str> = key.split('|').collect();
    let h = if parts.len() == 5 {
        fnv64(format!("{}|{}", parts[0], parts[2]).as_bytes())
    } else {
        fnv64(key.as_bytes())
    };
    (h as usize) % N_SHARDS
}

/// One storage shard: a slice of the index plus its append-only file.
struct Shard {
    entries: Mutex<HashMap<String, TunedRecord>>,
    /// The shard file. Its line count minus the live records is the
    /// dead (superseded or malformed) count, the compaction trigger.
    journal: Journal,
    /// A background compaction of this shard is in flight.
    compacting: AtomicBool,
}

/// Shared state between the handle and background compaction threads.
struct DbInner {
    dir: PathBuf,
    shards: Vec<Shard>,
}

/// Per-shard statistics snapshot.
#[derive(Clone, Debug)]
pub struct ShardStats {
    pub shard: usize,
    /// Live (indexed) records.
    pub live: usize,
    /// Record lines in the file, live + dead.
    pub file_lines: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// Database statistics snapshot (see [`TunedDb::stats`]).
#[derive(Clone, Debug)]
pub struct DbStats {
    pub live: usize,
    pub file_lines: u64,
    pub bytes: u64,
    pub shards: Vec<ShardStats>,
}

impl DbStats {
    /// Dead (superseded or malformed) record lines across all shards.
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
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"shard\":{},\"live\":{},\"file_lines\":{},\"bytes\":{}}}",
                    s.shard, s.live, s.file_lines, s.bytes
                )
            })
            .collect();
        format!(
            "{{\"live\":{},\"file_lines\":{},\"dead\":{},\"dead_ratio\":{:.4},\"bytes\":{},\
             \"shards\":[{}]}}",
            self.live,
            self.file_lines,
            self.dead(),
            self.dead_ratio(),
            self.bytes,
            shards.join(",")
        )
    }
}

/// The tuned-results database: a sharded in-memory index mirrored to
/// append-only `shard-*.jsonl` files with background compaction.
pub struct TunedDb {
    inner: Arc<DbInner>,
    rev: String,
    /// Outstanding background compaction threads; joined on drop so
    /// short-lived processes never leave a rewrite in flight.
    compactions: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TunedDb {
    /// Open (creating if needed) the database in `dir`, loading every
    /// well-formed record into the in-memory index with
    /// last-record-wins semantics. Malformed records — typically one
    /// truncated trailing line from a crash mid-append — are skipped
    /// with a diagnostic and the shard is repaired (atomic tmp + rename
    /// rewrite) on the next store. A legacy single-file `tuned.jsonl`
    /// is migrated into the sharded layout on first open.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<TunedDb> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut maps: Vec<HashMap<String, TunedRecord>> =
            (0..N_SHARDS).map(|_| HashMap::new()).collect();
        // Index one record line under the shard its *key* hashes to,
        // wherever it was read from; `None` is a malformed line.
        let mut index = |line: &str| {
            let rec = parse_record(line)?;
            let home = shard_of(&rec.key);
            maps[home].insert(rec.key.clone(), rec);
            Some(home)
        };
        // Legacy single-file layout loads first, so sharded records
        // (written later by definition) win on key collision.
        let legacy = dir.join("tuned.jsonl");
        let migrate = legacy.exists();
        let mut total_malformed = 0;
        if migrate {
            total_malformed += journal::read_lines(&legacy, |l| index(l).is_some()).malformed;
        }
        // A record misplaced by a hand-edit (or a future shard-count
        // migration) is re-homed by a full rewrite below rather than
        // silently dropped by its file's compaction.
        let mut misplaced = false;
        let loaded: Vec<Loaded> = (0..N_SHARDS)
            .map(|i| {
                journal::read_lines(&shard_path(&dir, i), |l| {
                    index(l).map(|home| misplaced |= home != i).is_some()
                })
            })
            .collect();
        total_malformed += loaded.iter().map(|l| l.malformed).sum::<u64>();
        if total_malformed > 0 {
            eprintln!(
                "ifko: tuned db {}: skipped {total_malformed} malformed record(s) \
                 (truncated write?); affected shard(s) will be rewritten on next store",
                dir.display()
            );
            metrics::global()
                .counter(metrics::DB_RECOVERED)
                .add(total_malformed);
        }

        let mut shards = Vec::with_capacity(N_SHARDS);
        for (i, (map, loaded)) in maps.into_iter().zip(&loaded).enumerate() {
            shards.push(Shard {
                entries: Mutex::new(map),
                journal: Journal::open(shard_path(&dir, i), loaded)?,
                compacting: AtomicBool::new(false),
            });
        }
        let inner = Arc::new(DbInner { dir, shards });
        if migrate || misplaced {
            // Materialize every shard from the merged index, then drop
            // the legacy file — a crash between the two leaves both
            // layouts present and the next open repeats the (idempotent)
            // migration.
            let live: usize = inner
                .shards
                .iter()
                .map(|s| s.entries.lock().unwrap().len())
                .sum();
            for i in 0..N_SHARDS {
                inner.compact_shard(i);
            }
            if migrate {
                std::fs::remove_file(&legacy)?;
                eprintln!(
                    "ifko: tuned db {}: migrated {live} record(s) from legacy tuned.jsonl \
                     into {N_SHARDS} shards",
                    inner.dir.display()
                );
            }
        }
        Ok(TunedDb {
            inner,
            rev: repo_rev(),
            compactions: Mutex::new(Vec::new()),
        })
    }

    /// The backing directory (shard files live inside it).
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The repo revision this process keys new records under.
    pub fn rev(&self) -> &str {
        &self.rev
    }

    /// Stored winner for a key, if any — answered from the in-memory
    /// index, never from disk.
    pub fn lookup(&self, key: &str) -> Option<TunedRecord> {
        let shard = &self.inner.shards[shard_of(key)];
        shard.entries.lock().unwrap().get(key).cloned()
    }

    /// Store (or overwrite) a winner, appending it to its shard file.
    pub fn store(&self, rec: &TunedRecord) {
        self.store_with(rec, None);
    }

    /// [`TunedDb::store`] under a chaos plan: the plan may truncate the
    /// appended record mid-write (simulating a crash), which marks the
    /// shard dirty so the *next* store repairs it. The in-memory entry
    /// always lands, so lookups never depend on the fault.
    pub fn store_with(&self, rec: &TunedRecord, faults: Option<&FaultPlan>) {
        let idx = shard_of(&rec.key);
        let shard = &self.inner.shards[idx];
        // Memory first, so a repair rewrite includes this record.
        shard
            .entries
            .lock()
            .unwrap()
            .insert(rec.key.clone(), rec.clone());
        if shard.journal.take_dirty() {
            self.inner.compact_shard(idx);
        } else {
            shard.journal.append(&rec.key, record_json(rec), faults);
            self.maybe_compact_in_background(idx);
        }
        metrics::global().counter(metrics::DB_STORES).inc();
    }

    /// Spawn a background compaction of shard `idx` when its dead-line
    /// count has crossed the threshold, unless one is already running.
    fn maybe_compact_in_background(&self, idx: usize) {
        let shard = &self.inner.shards[idx];
        let live = shard.entries.lock().unwrap().len() as u64;
        let dead = shard.journal.lines().saturating_sub(live);
        if dead < AUTO_COMPACT_MIN_DEAD || dead < live {
            return;
        }
        if shard
            .compacting
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::spawn(move || {
            inner.compact_shard(idx);
            inner.shards[idx].compacting.store(false, Ordering::SeqCst);
        });
        let mut handles = self.compactions.lock().unwrap();
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }

    /// Compact every shard now (atomic rewrite, one record per key),
    /// returning post-compaction statistics. `ifko db compact` and the
    /// pack path call this; routine operation relies on the automatic
    /// background trigger instead.
    pub fn compact(&self) -> DbStats {
        self.join_compactions();
        for i in 0..N_SHARDS {
            self.inner.compact_shard(i);
        }
        self.stats()
    }

    /// Drop every record stored under a repo revision other than this
    /// process's ([`TunedDb::rev`]) — the library behind
    /// `ifko db prune --rev-missing`. Stale-revision records can never
    /// answer an exact warm-start lookup (the revision is part of the
    /// db key), so once the code moves on they only feed transfer
    /// probes and cost space. Every shard is compacted afterwards so
    /// the files shrink with the index. Returns the number of records
    /// removed.
    pub fn prune_missing_rev(&self) -> usize {
        self.join_compactions();
        let mut removed = 0usize;
        for i in 0..N_SHARDS {
            let shard = &self.inner.shards[i];
            {
                let mut entries = shard.entries.lock().unwrap();
                let before = entries.len();
                entries.retain(|_, rec| rec.rev == self.rev);
                removed += before - entries.len();
            }
            self.inner.compact_shard(i);
        }
        removed
    }

    /// Statistics snapshot: live records, file lines, and bytes, per
    /// shard and in total.
    pub fn stats(&self) -> DbStats {
        let mut shards = Vec::with_capacity(N_SHARDS);
        for (i, s) in self.inner.shards.iter().enumerate() {
            let live = s.entries.lock().unwrap().len();
            let bytes = std::fs::metadata(s.journal.path())
                .map(|m| m.len())
                .unwrap_or(0);
            shards.push(ShardStats {
                shard: i,
                live,
                file_lines: s.journal.lines(),
                bytes,
            });
        }
        DbStats {
            live: shards.iter().map(|s| s.live).sum(),
            file_lines: shards.iter().map(|s| s.file_lines).sum(),
            bytes: shards.iter().map(|s| s.bytes).sum(),
            shards,
        }
    }

    /// Block until every outstanding background compaction finishes.
    pub fn join_compactions(&self) {
        let handles: Vec<_> = self.compactions.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// All stored winners, sorted by key — a deterministic iteration
    /// order for offline consumers (`ifko explain` cross-checks trace
    /// winners against the database with it; `ifko pack` serializes it).
    pub fn records(&self) -> Vec<TunedRecord> {
        let mut v: Vec<TunedRecord> = Vec::new();
        for s in &self.inner.shards {
            v.extend(s.entries.lock().unwrap().values().cloned());
        }
        v.sort_by(|a, b| a.key.cmp(&b.key));
        v
    }

    /// The stored winner nearest to `features` by Euclidean distance
    /// over the static feature vectors — the transfer warm-start lookup
    /// for a kernel with no exact key hit. Only records that carry a
    /// same-length feature vector participate; `exclude_key` (the exact
    /// key that just missed) never matches itself. Ties break toward the
    /// smaller key ([`TunedDb::records`] iterates key-sorted), so the
    /// choice is deterministic.
    pub fn nearest_by_features(&self, features: &[f64], exclude_key: &str) -> Option<TunedRecord> {
        let mut best: Option<(f64, TunedRecord)> = None;
        for rec in self.records() {
            if rec.key == exclude_key {
                continue;
            }
            let Some(f) = &rec.features else { continue };
            if f.len() != features.len() {
                continue;
            }
            let d = f
                .iter()
                .zip(features)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                best = Some((d, rec));
            }
        }
        best.map(|(_, r)| r)
    }

    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.entries.lock().unwrap().len())
            .sum()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for TunedDb {
    fn drop(&mut self) {
        self.join_compactions();
    }
}

impl DbInner {
    /// Rewrite one shard from its index: every live record, sorted by
    /// key (so the file is deterministic). Doubles as the dirty-shard
    /// journal repair; a failed rewrite leaves the shard dirty, to be
    /// retried on the next store into it.
    fn compact_shard(&self, idx: usize) {
        let shard = &self.shards[idx];
        let rewritten = shard.journal.rewrite(|| {
            let mut entries: Vec<(String, String)> = shard
                .entries
                .lock()
                .unwrap()
                .iter()
                .map(|(k, rec)| (k.clone(), record_json(rec)))
                .collect();
            entries.sort();
            entries.into_iter().map(|(_, line)| line).collect()
        });
        if rewritten {
            metrics::global().counter(metrics::DB_COMPACTIONS).inc();
        }
    }
}

/// Shard file path: `dir/shard-<i>.jsonl`.
pub fn shard_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("shard-{idx}.jsonl"))
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
    let pf: Vec<String> = p
        .prefetch
        .iter()
        .map(|s| {
            format!(
                "{{\"ptr\":{},\"kind\":{},\"dist\":{}}}",
                s.ptr.0,
                s.kind
                    .map_or("null".to_string(), |k| format!("\"{}\"", k.abbrev())),
                s.dist
            )
        })
        .collect();
    format!(
        "{{\"simd\":{},\"unroll\":{},\"ae\":{},\"wnt\":{},\"lc\":{},\"cisc\":{},\
         \"copy_prop\":{},\"dce\":{},\"branch_cleanup\":{},\"pf\":[{}]}}",
        p.simd,
        p.unroll,
        p.accum_expand,
        p.wnt,
        p.loop_control,
        p.cisc_memops,
        p.copy_prop,
        p.dead_code_elim,
        p.branch_cleanup,
        pf.join(",")
    )
}

fn kind_from_abbrev(s: &str) -> Option<PrefKind> {
    match s {
        "t0" => Some(PrefKind::T0),
        "t1" => Some(PrefKind::T1),
        "t2" => Some(PrefKind::T2),
        "nta" => Some(PrefKind::Nta),
        "w" => Some(PrefKind::W),
        _ => None,
    }
}

fn as_i64(v: &Json) -> Option<i64> {
    match v {
        Json::Num(n) => Some(*n as i64),
        _ => None,
    }
}

/// Parse a [`params_json`] object back into a point.
pub fn params_from_json(v: &Json) -> Option<TransformParams> {
    let mut prefetch = Vec::new();
    if let Json::Arr(items) = v.get("pf")? {
        for item in items {
            let kind = match item.get("kind")? {
                Json::Null => None,
                k => Some(kind_from_abbrev(k.as_str()?)?),
            };
            prefetch.push(PrefSpec {
                ptr: PtrId(item.get("ptr")?.as_u64()? as u32),
                kind,
                dist: as_i64(item.get("dist")?)?,
            });
        }
    } else {
        return None;
    }
    Some(TransformParams {
        simd: v.get("simd")?.as_bool()?,
        unroll: v.get("unroll")?.as_u64()? as u32,
        accum_expand: v.get("ae")?.as_u64()? as u32,
        wnt: v.get("wnt")?.as_bool()?,
        prefetch,
        loop_control: v.get("lc")?.as_bool()?,
        cisc_memops: v.get("cisc")?.as_bool()?,
        copy_prop: v.get("copy_prop")?.as_bool()?,
        dead_code_elim: v.get("dce")?.as_bool()?,
        branch_cleanup: v.get("branch_cleanup")?.as_bool()?,
    })
}

/// Serialize a record as one stable JSONL line — the on-disk and
/// artifact wire format.
pub fn record_json(rec: &TunedRecord) -> String {
    let mut s = format!(
        "{{\"key\":\"{}\",\"kernel\":\"{}\",\"prec\":\"{}\",\"machine\":\"{}\",\
         \"context\":\"{}\",\"rev\":\"{}\",\"n\":{},\"seed\":{},\"strategy\":\"{}\",\
         \"cycles\":{},\"params\":{}",
        esc(&rec.key),
        esc(&rec.kernel),
        esc(&rec.prec),
        esc(&rec.machine),
        esc(&rec.context),
        esc(&rec.rev),
        rec.n,
        rec.seed,
        esc(&rec.strategy),
        rec.cycles,
        params_json(&rec.params)
    );
    // Static feature vector rides at the end, only when present, so
    // records without one stay byte-identical to the older format.
    if let Some(f) = &rec.features {
        let vals: Vec<String> = f.iter().map(|v| format!("{v:.6}")).collect();
        s.push_str(&format!(",\"sfv\":[{}]", vals.join(",")));
    }
    s.push('}');
    s
}

/// Parse one [`record_json`] line back into a record.
pub fn parse_record(line: &str) -> Option<TunedRecord> {
    let v = parse_json(line.trim())?;
    // Tolerant: records from older revisions carry no `sfv` field, and a
    // malformed one degrades to None rather than dropping the record.
    let features = v.get("sfv").and_then(|j| match j {
        Json::Arr(items) => items
            .iter()
            .map(|x| match x {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .collect::<Option<Vec<f64>>>(),
        _ => None,
    });
    Some(TunedRecord {
        key: v.get("key")?.as_str()?.to_string(),
        kernel: v.get("kernel")?.as_str()?.to_string(),
        prec: v.get("prec")?.as_str()?.to_string(),
        machine: v.get("machine")?.as_str()?.to_string(),
        context: v.get("context")?.as_str()?.to_string(),
        rev: v.get("rev")?.as_str()?.to_string(),
        n: v.get("n")?.as_u64()? as usize,
        seed: v.get("seed")?.as_u64()?,
        strategy: v.get("strategy")?.as_str()?.to_string(),
        cycles: v.get("cycles")?.as_u64()?,
        params: params_from_json(v.get("params")?)?,
        features,
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

    /// Concatenated record lines across every shard file.
    fn all_lines(dir: &Path) -> Vec<String> {
        let mut v = Vec::new();
        for i in 0..N_SHARDS {
            if let Ok(text) = std::fs::read_to_string(shard_path(dir, i)) {
                v.extend(text.lines().map(str::to_string));
            }
        }
        v
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
        // The prune compacts every shard: a reopen sees only the
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
            shard_path(&dir, shard_of("k")),
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
        let shard = shard_of("k2");
        std::fs::write(shard_path(&dir, shard), format!("{good}\n{torn}")).unwrap();
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1, "torn record is skipped");
        // The next store into the dirty shard rewrites it whole.
        db.store(&sample_record("k2", 200));
        let text = std::fs::read_to_string(shard_path(&dir, shard)).unwrap();
        for line in text.lines() {
            assert!(parse_record(line).is_some(), "unparseable: {line}");
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
        // A truncated append is repaired by the next store into its
        // shard; at most one trailing append per shard can stay torn.
        let db = TunedDb::open(&dir).unwrap();
        assert!(
            db.len() >= 24 - N_SHARDS,
            "only {}/24 records survived",
            db.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_single_file_db_migrates_to_shards() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let keys: Vec<String> = (0..20)
            .map(|i| db_key(&format!("kern{i}"), "D", "M#0", "oc", "r1"))
            .collect();
        let mut text = String::new();
        for (i, k) in keys.iter().enumerate() {
            text.push_str(&record_json(&sample_record(k, 100 + i as u64)));
            text.push('\n');
        }
        // A stale duplicate early in the file: last wins through migration.
        let dup = record_json(&sample_record(&keys[3], 9999));
        std::fs::write(dir.join("tuned.jsonl"), format!("{dup}\n{text}")).unwrap();
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 20);
        assert_eq!(db.lookup(&keys[3]).unwrap().cycles, 103);
        assert!(!dir.join("tuned.jsonl").exists(), "legacy file removed");
        drop(db);
        // Reopen from shards alone.
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 20);
        assert_eq!(db.lookup(&keys[19]).unwrap().cycles, 119);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misplaced_records_are_rehomed_on_open() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-rehome-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = db_key("kern", "D", "M#0", "oc", "r1");
        let home = shard_of(&key);
        let wrong = (home + 1) % N_SHARDS;
        std::fs::write(
            shard_path(&dir, wrong),
            format!("{}\n", record_json(&sample_record(&key, 77))),
        )
        .unwrap();
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.lookup(&key).unwrap().cycles, 77);
        // The open rewrote every shard from the routed index: the record
        // now lives in its home shard file, and the wrong file is empty.
        let home_text = std::fs::read_to_string(shard_path(&dir, home)).unwrap();
        assert!(home_text.contains("kern|D|M#0"));
        let wrong_text = std::fs::read_to_string(shard_path(&dir, wrong)).unwrap();
        assert!(wrong_text.is_empty());
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
        let lines = all_lines(&dir);
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
    fn background_compaction_bounds_file_growth() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-auto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = db_key("kern", "D", "M#0", "oc", "r1");
        {
            let db = TunedDb::open(&dir).unwrap();
            for i in 0..2_000u64 {
                db.store(&sample_record(&key, i));
            }
            // Drop joins any in-flight background compaction.
        }
        let db = TunedDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.lookup(&key).unwrap().cycles, 1999);
        let lines = all_lines(&dir).len() as u64;
        assert!(
            lines < 2_000,
            "auto compaction never ran: {lines} lines on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_live_dead_and_shards() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = TunedDb::open(&dir).unwrap();
        let key = db_key("kern", "D", "M#0", "oc", "r1");
        for i in 0..10u64 {
            db.store(&sample_record(&key, i));
        }
        let stats = db.stats();
        assert_eq!(stats.live, 1);
        assert_eq!(stats.file_lines, 10);
        assert_eq!(stats.dead(), 9);
        assert!((stats.dead_ratio() - 0.9).abs() < 1e-9);
        assert_eq!(stats.shards.len(), N_SHARDS);
        assert!(stats.bytes > 0);
        let after = db.compact();
        assert_eq!(after.live, 1);
        assert_eq!(after.dead(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn features_round_trip_and_old_records_parse() {
        // A record with a feature vector survives the JSONL round trip.
        let mut rec = sample_record("fk", 500);
        rec.features = Some(vec![1.5, 0.25, 3.0]);
        let parsed = parse_record(&record_json(&rec)).unwrap();
        assert_eq!(parsed.features, Some(vec![1.5, 0.25, 3.0]));
        // A record without one serializes with no `sfv` field at all and
        // parses back to None (old-format compatibility).
        let bare = sample_record("fk2", 600);
        let line = record_json(&bare);
        assert!(!line.contains("sfv"));
        assert_eq!(parse_record(&line).unwrap().features, None);
    }

    #[test]
    fn nearest_by_features_picks_closest_and_skips_self() {
        let dir = std::env::temp_dir().join(format!("ifko-tuneddb-near-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = TunedDb::open(&dir).unwrap();
        let mut near = sample_record("a-near", 100);
        near.features = Some(vec![1.0, 1.0]);
        let mut far = sample_record("b-far", 200);
        far.features = Some(vec![10.0, 10.0]);
        let mut bad_len = sample_record("c-badlen", 300);
        bad_len.features = Some(vec![1.0]);
        let no_feat = sample_record("d-none", 400);
        for r in [&near, &far, &bad_len, &no_feat] {
            db.store(r);
        }
        let hit = db.nearest_by_features(&[1.1, 0.9], "").unwrap();
        assert_eq!(hit.key, "a-near");
        // Excluding the nearest key falls through to the next one.
        let hit = db.nearest_by_features(&[1.1, 0.9], "a-near").unwrap();
        assert_eq!(hit.key, "b-far");
        // Ties break toward the smaller key.
        let mut tie = sample_record("a-tie", 500);
        tie.features = Some(vec![10.0, 10.0]);
        db.store(&tie);
        let hit = db.nearest_by_features(&[10.0, 10.0], "").unwrap();
        assert_eq!(hit.key, "a-tie");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repo_rev_is_stable_and_short() {
        let a = repo_rev();
        let b = repo_rev();
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 12, "{a}");
    }
}
