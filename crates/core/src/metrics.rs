//! Zero-dependency observability metrics: process-wide registry of
//! counters, gauges, and fixed-bucket histograms.
//!
//! The paper's thesis is that search decisions must be driven by measured
//! evidence; this module is the same discipline applied to the framework
//! itself. Every layer that does work on the hot path — the
//! [`EvalEngine`](crate::eval::EvalEngine) (batch sizes, queue wait,
//! worker utilization, evaluations/rejections/cache hits), the
//! [`EvalCache`](crate::eval::EvalCache) (occupancy, persistence write
//! latency), and the search driver (per-phase candidate counts, winner
//! deltas) — registers its instruments here, so any run can be asked
//! "where did the time go?" without ad-hoc printf.
//!
//! Design constraints, in order:
//!
//! 1. **No dependencies** — the workspace builds offline; everything is
//!    `std::sync::atomic` plus one locked name table.
//! 2. **`Send + Sync`, hot-path cheap** — instrument handles are
//!    `Arc`-shared atomics resolved once; recording is a single
//!    `fetch_add`. The registry lock is only taken at resolve/snapshot
//!    time, a few times per engine, batch or tune.
//! 3. **Determinism-neutral** — metrics observe, they never steer. The
//!    engine's jobs-invariance contract is unaffected by recording.
//!
//! Exposition comes in two shapes: [`MetricsRegistry::to_json`] (one
//! stable-ordered JSON object, what `--metrics PATH` writes) and
//! [`MetricsRegistry::prometheus_text`] (the Prometheus text exposition
//! format, written instead when the path ends in `.prom` or `.txt`).
//!
//! Labeled series are encoded in the metric name itself
//! (`ifko_search_candidates_total{phase="UR"}`, see [`labeled`]) — a
//! deliberate simplification that keeps the registry a flat string map
//! while still rendering as proper Prometheus labels.

use crate::json::{obj, Array};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }
    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed upper-bound buckets (plus an implicit `+Inf`).
/// Observations are `u64` (we measure microseconds, counts, and percents —
/// all integral).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound, plus the overflow (`+Inf`) slot at the end.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }
    /// Per-bucket counts (non-cumulative), `+Inf` last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Default bucket bounds for microsecond latencies (10us .. 10s).
pub const US_BUCKETS: &[u64] = &[
    10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000,
];

/// Default bucket bounds for small cardinalities (batch sizes, counts).
pub const COUNT_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 1024];

/// Default bucket bounds for percentages.
pub const PCT_BUCKETS: &[u64] = &[1, 2, 5, 10, 20, 50, 100, 200];

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram {
        /// Upper bounds, `+Inf` excluded.
        bounds: Vec<u64>,
        /// Non-cumulative per-bucket counts, `+Inf` last.
        counts: Vec<u64>,
        count: u64,
        sum: u64,
    },
}

/// One named metric reading.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub value: MetricValue,
}

/// A name → instrument table behind one lock. Resolution is get-or-register:
/// the first caller's type wins, and asking for the same name with a
/// different instrument type panics (it is a programming error, not a
/// runtime condition).
pub struct MetricsRegistry {
    table: Mutex<HashMap<String, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            table: Mutex::new(HashMap::new()),
        }
    }

    /// The name table, locked (poisoned only by a panic mid-update: a bug here).
    fn table(&self) -> MutexGuard<'_, HashMap<String, Metric>> {
        self.table.lock().expect("metrics table lock poisoned")
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut table = self.table();
        match table
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut table = self.table();
        match table
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    /// Get or register a histogram; `bounds` applies only on first
    /// registration.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut table = self.table();
        match table
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    /// Read the current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.table().get(name)? {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Point-in-time readings of every registered metric, sorted by name
    /// (stable output for files and tests).
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out = Vec::new();
        for (name, m) in self.table().iter() {
            let value = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram {
                    bounds: h.bounds.clone(),
                    counts: h.bucket_counts(),
                    count: h.count(),
                    sum: h.sum(),
                },
            };
            out.push(MetricSnapshot {
                name: name.clone(),
                value,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// One JSON object mapping metric name → reading. Counters/gauges
    /// render as `{"type":...,"value":N}`; histograms include bucket
    /// bounds, per-bucket counts, total count, and sum.
    pub fn to_json(&self) -> String {
        let reading = |value: &MetricValue| match value {
            MetricValue::Counter(v) => obj().field("type", "counter").field("value", v),
            MetricValue::Gauge(v) => obj().field("type", "gauge").field("value", v),
            MetricValue::Histogram {
                bounds,
                counts,
                count,
                sum,
            } => obj()
                .field("type", "histogram")
                .field("bounds", Array(bounds))
                .field("counts", Array(counts))
                .field("count", count)
                .field("sum", sum),
        };
        let snapshot = self.snapshot().into_iter();
        let o = snapshot.fold(obj(), |o, m| o.field(&m.name, reading(&m.value)));
        o.finish()
    }

    /// Prometheus text exposition format (one `# TYPE` line per family;
    /// histogram buckets rendered cumulatively with `le` labels).
    pub fn prometheus_text(&self) -> String {
        let mut s = String::new();
        let mut last_family = String::new();
        for m in self.snapshot() {
            let family = base_name(&m.name);
            let kind = match &m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            if family != last_family {
                s.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.to_string();
            }
            match &m.value {
                MetricValue::Counter(v) => s.push_str(&format!("{} {v}\n", m.name)),
                MetricValue::Gauge(v) => s.push_str(&format!("{} {v}\n", m.name)),
                MetricValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    let mut cum = 0u64;
                    for (b, c) in bounds.iter().zip(counts) {
                        cum += c;
                        s.push_str(&format!(
                            "{} {cum}\n",
                            with_label(&format!("{family}_bucket"), "le", &b.to_string())
                        ));
                    }
                    cum += counts.last().copied().unwrap_or(0);
                    s.push_str(&format!(
                        "{} {cum}\n",
                        with_label(&format!("{family}_bucket"), "le", "+Inf")
                    ));
                    s.push_str(&format!("{family}_sum {sum}\n"));
                    s.push_str(&format!("{family}_count {count}\n"));
                }
            }
        }
        s
    }

    /// Write a snapshot to `path`: Prometheus text when the extension is
    /// `.prom` or `.txt`, JSON otherwise.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let text = match path.extension().and_then(|e| e.to_str()) {
            Some("prom") | Some("txt") => self.prometheus_text(),
            _ => self.to_json(),
        };
        std::fs::write(path, text)
    }
}

/// The family name of a metric: everything before the `{labels}` suffix.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Encode one label pair into a metric name:
/// `labeled("x_total", "phase", "UR")` → `x_total{phase="UR"}`.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

/// Merge another label into a possibly-already-labeled name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(head) => format!("{head},{key}=\"{value}\"}}"),
        None => labeled(name, key, value),
    }
}

/// The process-wide registry: what every instrument defaults to, and what
/// `--metrics PATH` snapshots.
pub fn global() -> Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Arc::new(MetricsRegistry::new()))
        .clone()
}

// ---------------------------------------------------------------------------
// Canonical instrument names
// ---------------------------------------------------------------------------

/// Batches submitted to an evaluation engine.
pub const ENGINE_BATCHES: &str = "ifko_engine_batches_total";
/// Fresh candidate evaluations (compile + verify + time).
pub const ENGINE_EVALS: &str = "ifko_engine_evals_total";
/// Simulator runs made by a tune in this process: one per program (a
/// normalized point) its subject runs for the first time, a candidate's
/// or the winner's, plus a generic subject's baseline runs. Candidates
/// evaluated in worker processes are simulated there and not counted.
pub const ENGINE_SIMULATIONS: &str = "ifko_engine_simulations_total";
/// Fresh evaluations rejected by compilation or the tester.
pub const ENGINE_REJECTED: &str = "ifko_engine_rejected_total";
/// Candidates pruned by the legality precheck before compilation.
pub const ENGINE_PRUNED: &str = "ifko_engine_pruned_total";
/// Candidates submitted across all batches (pruned + cached + fresh).
pub const ENGINE_PROBES: &str = "ifko_engine_probes_total";
/// Batch probes answered by the evaluation cache (incl. in-batch dups).
pub const ENGINE_CACHE_HITS: &str = "ifko_engine_cache_hits_total";
/// Candidates per submitted batch.
pub const ENGINE_BATCH_SIZE: &str = "ifko_engine_batch_size";
/// Wall-clock of one fresh evaluation, microseconds.
pub const ENGINE_EVAL_WALL_US: &str = "ifko_engine_eval_wall_us";
/// Wall-clock of one batch's parallel section, microseconds.
pub const ENGINE_BATCH_WALL_US: &str = "ifko_engine_batch_wall_us";
/// Wait between batch submission and a worker picking a candidate up.
pub const ENGINE_QUEUE_WAIT_US: &str = "ifko_engine_queue_wait_us";
/// Total microseconds workers spent evaluating (utilization numerator;
/// the denominator is jobs × `ifko_engine_batch_wall_us` sum).
pub const ENGINE_BUSY_US: &str = "ifko_engine_busy_us_total";
/// Worker threads configured on the most recent engine.
pub const ENGINE_JOBS: &str = "ifko_engine_jobs";
/// Transient-failure retries burned (compile/tester re-runs + re-times).
pub const ENGINE_RETRIES: &str = "ifko_engine_retries_total";
/// Faults injected by the chaos plan (`--chaos`).
pub const ENGINE_FAULTS: &str = "ifko_engine_faults_injected_total";
/// Timing reps rejected as outliers by the robust timer.
pub const ENGINE_OUTLIERS: &str = "ifko_engine_timer_outliers_rejected_total";
/// Candidates that exhausted the retry budget and were skipped.
pub const ENGINE_FAILED: &str = "ifko_engine_failed_total";
/// Worker processes alive in the pool attached to the most recent engine
/// (0 = in-process evaluation only).
pub const ENGINE_WORKERS: &str = "ifko_engine_workers";
/// Fresh evaluations answered by a pool worker process.
pub const ENGINE_WORKER_EVALS: &str = "ifko_engine_worker_evals_total";
/// Candidates re-dispatched after their worker died or misbehaved.
pub const ENGINE_WORKER_REDISPATCHES: &str = "ifko_engine_worker_redispatches_total";
/// Workers retired from the pool (died, hung, or protocol violation).
pub const ENGINE_WORKER_DEATHS: &str = "ifko_engine_worker_deaths_total";
/// Candidates evaluated in-process because the pool was exhausted (or
/// never started) — the graceful-degradation path.
pub const ENGINE_WORKER_FALLBACKS: &str = "ifko_engine_worker_fallbacks_total";
/// Worker replies rejected as protocol violations (garbage JSON, wrong
/// candidate id, typed remote error) — a subset of worker deaths.
pub const ENGINE_WORKER_PROTO_ERRORS: &str = "ifko_engine_worker_proto_errors_total";

/// Points resident in evaluation caches (insertions, process-wide).
pub const CACHE_POINTS: &str = "ifko_cache_points";
/// Cache insertions performed.
pub const CACHE_INSERTS: &str = "ifko_cache_inserts_total";
/// Points warm-loaded from a persistent cache file.
pub const CACHE_WARM_LOADED: &str = "ifko_cache_warm_loaded_total";
/// Latency of one persistent-cache append (write + flush), microseconds.
pub const CACHE_PERSIST_WRITE_US: &str = "ifko_cache_persist_write_us";
/// Malformed cache-journal records skipped (and repaired) on load.
pub const CACHE_RECOVERED: &str = "ifko_cache_recovered_total";

/// Candidates swept, by search phase (labeled `phase`).
pub const SEARCH_CANDIDATES: &str = "ifko_search_candidates_total";
/// Times a phase produced a new best point (labeled `phase`).
pub const SEARCH_PHASE_WINS: &str = "ifko_search_phase_wins_total";
/// Improvement of each new winner over the previous best, percent.
pub const SEARCH_WINNER_DELTA_PCT: &str = "ifko_search_winner_delta_pct";

/// Candidates submitted, by search strategy (labeled `strategy`).
pub const STRATEGY_PROBES: &str = "ifko_strategy_probes_total";
/// Searches won, by the strategy that found the winner (labeled
/// `strategy`; `warm` counts database warm-start hits).
pub const STRATEGY_WINS: &str = "ifko_strategy_wins_total";
/// Warm starts where the stored winner verified and ended the search.
pub const DB_WARM_HITS: &str = "ifko_db_warm_hits_total";
/// Winners appended to the tuned-results database.
pub const DB_STORES: &str = "ifko_db_stores_total";
/// Malformed tuned-db records skipped (and repaired) on load.
pub const DB_RECOVERED: &str = "ifko_db_recovered_total";
/// Tuned-db journal compactions (dedup rewrites), in line or on demand.
pub const DB_COMPACTIONS: &str = "ifko_db_compactions_total";

/// Daemon requests served, labeled `kind` (ping/tune/query/...).
pub const DAEMON_REQUESTS: &str = "ifkod_requests_total";
/// Tune sessions run by the daemon.
pub const DAEMON_SESSIONS: &str = "ifkod_sessions_total";
/// Daemon tune sessions that short-circuited on a verified warm start.
pub const DAEMON_WARM_HITS: &str = "ifkod_warm_hits_total";
/// Client connections accepted by the daemon.
pub const DAEMON_CONNECTIONS: &str = "ifkod_connections_total";
/// Daemon requests that failed to parse or errored mid-handling.
pub const DAEMON_ERRORS: &str = "ifkod_errors_total";
/// Tune subjects the daemon keeps open, one per resolved request key.
pub const DAEMON_SUBJECTS: &str = "ifkod_subjects";

/// Tuning runs driven end to end.
pub const TUNE_RUNS: &str = "ifko_tune_runs_total";
/// Wall-clock of one full tuning run, microseconds.
pub const TUNE_WALL_US: &str = "ifko_tune_wall_us";

/// Candidate compiles through a `CompileSession`.
pub const PIPE_COMPILES: &str = "ifko_pipeline_compiles_total";
/// Compiles served (fully or partially) by the sub-candidate cache.
pub const PIPE_SUBCACHE_HITS: &str = "ifko_pipeline_subcache_hits_total";
/// Compiles that ran the full back end.
pub const PIPE_SUBCACHE_MISSES: &str = "ifko_pipeline_subcache_misses_total";
/// Cost-model predictions that ran `xform` (prediction-cache misses).
pub const PIPE_PREDICTIONS: &str = "ifko_pipeline_predictions_total";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter_value("t_total"), Some(5));
        let g = r.gauge("t_gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        // Handles are shared: resolving again sees the same instrument.
        assert_eq!(r.counter("t_total").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_us", &[10, 100, 1000]);
        for v in [5, 10, 11, 99, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5125);
        assert_eq!(h.bucket_counts(), vec![2, 2, 0, 1]); // ≤10, ≤100, ≤1000, +Inf
        assert!((h.mean() - 1025.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_sorted_and_json_stable() {
        let r = MetricsRegistry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").inc();
        r.gauge("c_gauge").set(-1);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b_total", "c_gauge"]);
        assert_eq!(
            r.to_json(),
            "{\"a_total\":{\"type\":\"counter\",\"value\":1},\
             \"b_total\":{\"type\":\"counter\",\"value\":2},\
             \"c_gauge\":{\"type\":\"gauge\",\"value\":-1}}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = MetricsRegistry::new();
        r.counter(&labeled("x_total", "phase", "UR")).add(3);
        r.counter(&labeled("x_total", "phase", "AE")).add(1);
        let h = r.histogram("lat_us", &[10, 100]);
        h.observe(7);
        h.observe(500);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE x_total counter"));
        // One TYPE line for the whole family.
        assert_eq!(text.matches("# TYPE x_total").count(), 1);
        assert!(text.contains("x_total{phase=\"UR\"} 3"));
        assert!(text.contains("x_total{phase=\"AE\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum 507"));
        assert!(text.contains("lat_us_count 2"));
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let r = Arc::new(MetricsRegistry::new());
        let c = r.counter("conc_total");
        let h = r.histogram("conc_us", US_BUCKETS);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
        assert_eq!(h.sum(), 8 * 999 * 1000 / 2);
    }

    #[test]
    fn write_snapshot_picks_format_by_extension() {
        let dir = std::env::temp_dir().join(format!("ifko-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = MetricsRegistry::new();
        r.counter("w_total").inc();
        let j = dir.join("m.json");
        let p = dir.join("m.prom");
        r.write_snapshot(&j).unwrap();
        r.write_snapshot(&p).unwrap();
        assert!(std::fs::read_to_string(&j).unwrap().starts_with('{'));
        assert!(std::fs::read_to_string(&p)
            .unwrap()
            .starts_with("# TYPE w_total counter"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn labeled_names_merge() {
        assert_eq!(labeled("a", "k", "v"), "a{k=\"v\"}");
        assert_eq!(with_label("a{k=\"v\"}", "le", "5"), "a{k=\"v\",le=\"5\"}");
        assert_eq!(base_name("a{k=\"v\"}"), "a");
    }
}
