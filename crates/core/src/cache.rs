//! The evaluation cache: one in-memory map from evaluation keys to
//! outcomes, shared across search phases, across the multi-pass
//! refinement loop, and — with [`EvalCache::persistent`] — across
//! processes (the figure/table binaries reuse each other's points via
//! `results/cache/evals.jsonl`). Persistence is the crate's one
//! crash-safe journal; this module owns the line format and the map.

use crate::fault::FaultPlan;
use crate::journal::{self, Journal};
use crate::json::{obj, parse_json};
use crate::metrics::{self, Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// A map from evaluation keys to outcomes (`None` = the point was
/// rejected by compilation or the tester). Optionally mirrored to an
/// append-only JSONL file so separate processes share points.
///
/// Occupancy and persistence-write latency are reported to the global
/// metrics registry (`ifko_cache_points`, `ifko_cache_inserts_total`,
/// `ifko_cache_persist_write_us`).
pub struct EvalCache {
    entries: Mutex<HashMap<String, Option<u64>>>,
    /// The on-disk mirror (`None` for an in-memory cache).
    journal: Option<Journal>,
    m_points: Arc<Gauge>,
    m_inserts: Arc<Counter>,
    m_persist_us: Arc<Histogram>,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

impl EvalCache {
    /// Fresh in-memory cache.
    pub fn new() -> EvalCache {
        let reg = metrics::global();
        EvalCache {
            entries: Mutex::new(HashMap::new()),
            journal: None,
            m_points: reg.gauge(metrics::CACHE_POINTS),
            m_inserts: reg.counter(metrics::CACHE_INSERTS),
            m_persist_us: reg.histogram(metrics::CACHE_PERSIST_WRITE_US, metrics::US_BUCKETS),
        }
    }

    /// A cache mirrored to `dir/evals.jsonl`: existing entries are loaded
    /// (warm start), and every new evaluation is appended immediately, so
    /// even interrupted runs leave their points behind for the next one.
    ///
    /// Malformed records — typically one truncated trailing line from a
    /// crash mid-append — are skipped with a diagnostic; the journal is
    /// then repaired (atomic tmp + rename rewrite of the surviving
    /// entries) on the next store.
    pub fn persistent(dir: impl AsRef<Path>) -> std::io::Result<EvalCache> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join("evals.jsonl");
        let mut cache = EvalCache::new();
        let loaded = journal::read_lines(&path, |line| {
            parse_entry(line)
                .map(|(key, val)| cache.insert_mem(key, val))
                .is_some()
        });
        let warm = loaded.lines - loaded.malformed;
        if warm > 0 {
            metrics::global()
                .counter(metrics::CACHE_WARM_LOADED)
                .add(warm);
        }
        journal::report_skipped(
            "eval cache",
            &path,
            loaded.malformed,
            metrics::CACHE_RECOVERED,
        );
        cache.journal = Some(Journal::open(path, &loaded)?);
        Ok(cache)
    }

    /// The map, locked (poisoned only by a panic mid-update: a bug here).
    fn entries(&self) -> MutexGuard<'_, HashMap<String, Option<u64>>> {
        self.entries.lock().expect("eval-cache lock poisoned")
    }

    pub fn get(&self, key: &str) -> Option<Option<u64>> {
        self.entries().get(key).copied()
    }

    fn insert_mem(&self, key: String, val: Option<u64>) {
        let newly = self.entries().insert(key, val).is_none();
        if newly {
            self.m_points.add(1);
        }
    }

    /// Insert an outcome, mirroring it to disk when persistent.
    pub fn insert(&self, key: String, val: Option<u64>) {
        self.insert_with(key, val, None);
    }

    /// [`EvalCache::insert`] under a chaos plan: the plan may truncate
    /// the appended record mid-write (simulating a crash), which marks
    /// the journal dirty so the *next* store repairs it. The in-memory
    /// entry always lands, so results never depend on the fault.
    pub fn insert_with(&self, key: String, val: Option<u64>, faults: Option<&FaultPlan>) {
        self.m_inserts.inc();
        // Memory first, so a repair rewrite includes this record.
        self.insert_mem(key.clone(), val);
        if let Some(journal) = &self.journal {
            let t0 = std::time::Instant::now();
            journal.store(&key, cache_line(&key, val), faults, || self.sorted_lines());
            self.m_persist_us.observe(t0.elapsed().as_micros() as u64);
        }
    }

    /// Every entry as a journal line, sorted by key so a repaired
    /// journal is deterministic.
    fn sorted_lines(&self) -> Vec<String> {
        let entries = self.entries();
        let mut sorted: Vec<(&String, &Option<u64>)> = entries.iter().collect();
        sorted.sort();
        sorted.iter().map(|(k, v)| cache_line(k, **v)).collect()
    }

    /// Total number of cached points.
    pub fn len(&self) -> usize {
        self.entries().len()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serialize one cache entry as a journal line (no trailing newline).
fn cache_line(key: &str, val: Option<u64>) -> String {
    obj().field("key", key).field("cycles", val).finish()
}

/// Parse one `{"key":"...","cycles":N|null}` line (the shape
/// [`cache_line`] writes). Returns `None` on any malformed line.
fn parse_entry(line: &str) -> Option<(String, Option<u64>)> {
    let v = parse_json(line)?;
    Some((v.req("key").ok()?, v.req("cycles").ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("ifko-evalcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = EvalCache::persistent(&dir).unwrap();
            cache.insert("scope|point-a".into(), Some(123));
            cache.insert("scope|point-b".into(), None);
        }
        let warm = EvalCache::persistent(&dir).unwrap();
        assert_eq!(warm.get("scope|point-a"), Some(Some(123)));
        assert_eq!(warm.get("scope|point-b"), Some(None));
        assert_eq!(warm.get("scope|point-c"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_line_parser_handles_escapes() {
        let (k, v) = parse_entry(r#"{"key":"a\"b\\c","cycles":7}"#).unwrap();
        assert_eq!(k, "a\"b\\c");
        assert_eq!(v, Some(7));
        assert!(parse_entry("garbage").is_none());
        assert_eq!(parse_entry(r#"{"key":"x","cycles":null}"#).unwrap().1, None);
    }

    #[test]
    fn persistent_cache_recovers_truncated_journal() {
        let dir = std::env::temp_dir().join(format!("ifko-evalcache-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evals.jsonl");
        // A good record followed by a crash-truncated trailing record.
        std::fs::write(
            &path,
            "{\"key\":\"scope|good\",\"cycles\":11}\n{\"key\":\"scope|torn\",\"cyc",
        )
        .unwrap();
        let cache = EvalCache::persistent(&dir).unwrap();
        assert_eq!(cache.get("scope|good"), Some(Some(11)));
        assert_eq!(cache.get("scope|torn"), None, "torn record is skipped");
        // The next store repairs the journal atomically.
        cache.insert("scope|fresh".into(), Some(22));
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            assert!(parse_entry(line).is_some(), "unparseable: {line}");
        }
        assert!(text.contains("scope|good") && text.contains("scope|fresh"));
        assert!(!text.contains("torn"));
        // And the reopened append handle keeps working.
        cache.insert("scope|later".into(), None);
        let warm = EvalCache::persistent(&dir).unwrap();
        assert_eq!(warm.get("scope|good"), Some(Some(11)));
        assert_eq!(warm.get("scope|fresh"), Some(Some(22)));
        assert_eq!(warm.get("scope|later"), Some(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_persist_faults_self_heal() {
        let dir = std::env::temp_dir().join(format!("ifko-evalcache-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::uniform(3, crate::fault::MAX_RATE);
        {
            let cache = EvalCache::persistent(&dir).unwrap();
            for i in 0..32 {
                cache.insert_with(format!("scope|p{i}"), Some(i), Some(&plan));
            }
        }
        // Every record survives: a truncated append is repaired by the
        // next store; at most the final append can be torn on disk.
        let warm = EvalCache::persistent(&dir).unwrap();
        let present = (0..32)
            .filter(|i| warm.get(&format!("scope|p{i}")) == Some(Some(*i)))
            .count();
        assert!(present >= 31, "only {present}/32 records survived");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
