//! The evaluation engine: parallel batched candidate evaluation over an
//! optionally persistent, cross-phase evaluation cache
//! ([`crate::cache`]), observed through the search-trace layer
//! ([`crate::trace`]) and the metrics registry.
//!
//! The paper's search evaluates each candidate point serially — compile,
//! verify, time. Because `xsim` is a deterministic simulator, a candidate
//! evaluation is a *pure function* of
//! `(kernel, machine, context, n, seed, timer, TransformParams)`, so the
//! engine may fan a phase's whole candidate sweep out across threads and
//! memoize every result without changing any reported number. The
//! **determinism invariant** is the headline contract:
//!
//! > A search run with `jobs = N` returns a bit-identical `SearchResult`
//! > (best parameters, cycles, per-phase gains, evaluation counts) to the
//! > same search run with `jobs = 1`.
//!
//! It holds because (a) each candidate runs on a private `Cpu` against
//! the shared read-only workload, (b) results are collected by batch
//! index and the winner is selected by a serial in-order scan (ties break
//! toward the earliest candidate, exactly like the serial loop), and
//! (c) cache lookups, bookkeeping, and trace emission happen serially
//! before and after the parallel section. Observability (metrics, spans)
//! only *observes*: nothing recorded here feeds back into selection.
//!
//! The [`EvalCache`] is keyed by the full evaluation scope plus the
//! parameter point ([`EvalScope::point_key`]). Every evaluation
//! (including cache hits) emits a [`SearchEvent::Eval`] to the attached
//! [`TraceSink`].

use ifko_fko::{Reject, TransformParams};
use ifko_xsim::RunStats;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::fault::FaultPlan;
use crate::key;
use crate::metrics::{self, Counter, Histogram, MetricsRegistry};

// The engine's public surface includes the cache it fills and the trace
// events it emits: `ifko::eval::{EvalCache, MemSink, …}` resolve here.
pub use crate::cache::EvalCache;
pub use crate::key::{fnv64, machine_fingerprint, EvalScope};
pub use crate::trace::{
    stats_json, EvalEvent, JsonlSink, MemSink, SearchEvent, Span, SpanEvent, TraceSink,
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Everything one fresh evaluation produces: the timed cycles (or `None`
/// for a rejection) plus the simulator counters of the verification run.
#[derive(Clone, Debug, Default)]
pub struct EvalRecord {
    pub cycles: Option<u64>,
    pub stats: Option<RunStats>,
    /// Transient-failure retries burned producing this record.
    pub retries: u32,
    /// Faults the chaos plan injected into this evaluation.
    pub faults: u32,
    /// Timing reps rejected as outliers by the robust timer.
    pub outliers: u32,
    /// Exhausted the retry budget: skipped, never cached, never a winner.
    pub failed: bool,
}

impl EvalRecord {
    pub fn rejected() -> EvalRecord {
        EvalRecord::default()
    }

    /// A candidate that kept failing transiently past the retry budget.
    /// Distinct from [`EvalRecord::rejected`]: the point was never judged
    /// on its merits, so the record is not cached.
    pub fn failed(retries: u32, faults: u32) -> EvalRecord {
        EvalRecord {
            retries,
            faults,
            failed: true,
            ..EvalRecord::default()
        }
    }
}

impl From<Option<u64>> for EvalRecord {
    fn from(cycles: Option<u64>) -> EvalRecord {
        EvalRecord {
            cycles,
            ..EvalRecord::default()
        }
    }
}

/// A static cost model: a candidate's predicted cycles (`None` when it
/// has no prediction).
pub type Predict<'a> = &'a (dyn Fn(&TransformParams) -> Option<u64> + Sync);

/// What a batch of candidates is submitted under: the evaluation scope,
/// the search strategy and phase its trace events are tagged with (the
/// empty strategy means "untagged" and is omitted from the JSONL
/// encoding), the legality precheck, and an optional static cost model.
/// The model is called only when a trace sink records the prediction as
/// `predicted`; it never decides what is evaluated.
pub struct Batch<'a> {
    pub scope: &'a EvalScope,
    pub strategy: &'static str,
    pub phase: &'static str,
    pub precheck: &'a dyn Fn(&TransformParams) -> Result<(), Reject>,
    pub model: Option<Predict<'a>>,
}

impl<'a> Batch<'a> {
    /// An untagged batch with no precheck and no cost model.
    pub fn new(scope: &'a EvalScope, phase: &'static str) -> Batch<'a> {
        Batch {
            scope,
            strategy: "",
            phase,
            precheck: &|_| Ok(()),
            model: None,
        }
    }
}

/// A search's accounting: what became of the probes it submitted. One
/// batch produces one, a search sums its batches', the engine's registry
/// counters and `ifko report` count the same eight things.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Fresh evaluations performed (compile + verify + time).
    pub evaluated: u32,
    /// Fresh evaluations rejected by compile failure or the tester.
    pub rejected: u32,
    /// Results served from the cache (batch-internal duplicates included).
    pub cache_hits: u32,
    /// Candidates pruned before compilation by the legality precheck.
    pub pruned: u32,
    /// Transient-failure retries burned.
    pub retries: u32,
    /// Faults injected by the chaos plan.
    pub faults: u32,
    /// Timing reps rejected as outliers by the robust timer.
    pub outliers: u32,
    /// Candidates that exhausted the retry budget (skipped, not cached,
    /// not counted in `rejected`).
    pub failed: u32,
}

/// The facts about one probe that decide which [`Tally`] counters it
/// bumps. The engine reads them off a candidate's fate and `ifko report`
/// off a trace event ([`EvalEvent::facts`]) — the same fields either way,
/// so the two cannot classify a probe differently.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeFacts<'a> {
    /// Prune reason, when the probe never reached the compiler.
    pub pruned: Option<&'a str>,
    pub cache_hit: bool,
    pub verified: bool,
    pub failed: bool,
    pub retries: u32,
    pub faults: u32,
    pub outliers: u32,
}

/// Accessor for one named [`Tally`] counter (see [`Tally::FIELDS`]).
pub type TallyField = fn(&mut Tally) -> &mut u32;

impl Tally {
    /// The single source of truth for the counters: field name, the
    /// engine's registry counter of the same quantity, and the accessor.
    /// Summing, the engine's instruments and [`EvalEngine::stats`] all
    /// iterate this table, so a counter added to the struct but not
    /// listed here fails `tally_table_covers_every_counter` instead of
    /// going uncounted somewhere. Order matches the struct.
    pub const FIELDS: [(&'static str, &'static str, TallyField); 8] = [
        ("evaluated", metrics::ENGINE_EVALS, |t| &mut t.evaluated),
        ("rejected", metrics::ENGINE_REJECTED, |t| &mut t.rejected),
        ("cache_hits", metrics::ENGINE_CACHE_HITS, |t| {
            &mut t.cache_hits
        }),
        ("pruned", metrics::ENGINE_PRUNED, |t| &mut t.pruned),
        ("retries", metrics::ENGINE_RETRIES, |t| &mut t.retries),
        ("faults", metrics::ENGINE_FAULTS, |t| &mut t.faults),
        ("outliers", metrics::ENGINE_OUTLIERS, |t| &mut t.outliers),
        ("failed", metrics::ENGINE_FAILED, |t| &mut t.failed),
    ];

    /// The one classifier: count one probe. Order matters — a pruned
    /// probe is neither a fresh evaluation nor a cache hit (it never
    /// reached the compiler), and a failed probe never got a verdict on
    /// its merits, so it is counted on its own, not as a rejection.
    /// Counts read from a trace can be anything, so every sum saturates.
    pub fn count(&mut self, probe: &ProbeFacts<'_>) {
        let bump = |n: &mut u32, by: u32| *n = n.saturating_add(by);
        if probe.pruned.is_some() {
            bump(&mut self.pruned, 1);
        } else if probe.cache_hit {
            bump(&mut self.cache_hits, 1);
        } else {
            bump(&mut self.evaluated, 1);
            if probe.failed {
                bump(&mut self.failed, 1);
            } else if !probe.verified {
                bump(&mut self.rejected, 1);
            }
        }
        bump(&mut self.retries, probe.retries);
        bump(&mut self.faults, probe.faults);
        bump(&mut self.outliers, probe.outliers);
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, mut rhs: Tally) {
        for (_, _, field) in Tally::FIELDS {
            let sum = field(self).saturating_add(*field(&mut rhs));
            *field(self) = sum;
        }
    }
}

/// Outcome of one batch submission.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-candidate cycles (index-aligned with the submitted batch).
    pub results: Vec<Option<u64>>,
    /// What became of the batch's candidates.
    pub tally: Tally,
}

/// What became of one submitted candidate.
// Fresh dwarfs the rest (its record carries RunStats inline), but a batch
// is a dozen candidates that live for one call, and most of a cold
// search's are fresh; boxing would cost an allocation per evaluation.
#[allow(clippy::large_enum_variant)]
enum Fate {
    /// Dropped before compilation; never compiled, simulated or cached.
    Pruned(Reject),
    /// Answered by the evaluation cache.
    Hit(Option<u64>),
    /// The same point as the earlier candidate at this batch index: it
    /// shares that candidate's result and counts (and traces) as a hit.
    DupOf(usize),
    /// Unique, uncached and legal: evaluated. `rec` is blank until the
    /// parallel pass delivers it; `key` is the cache key it is published
    /// under.
    Fresh {
        key: String,
        rec: EvalRecord,
        wall_us: u64,
        worker: Option<u32>,
    },
}

/// One candidate of a batch: its cost-model prediction and its fate.
struct Probe {
    predicted: Option<u64>,
    fate: Fate,
}

/// The evaluation engine: a scoped thread pool plus the shared cache and
/// trace sink. Cheap to construct; share the [`EvalCache`] (and sink) to
/// share work across searches, phases, and binaries.
pub struct EvalEngine {
    jobs: usize,
    cache: Arc<EvalCache>,
    trace: Option<Arc<dyn TraceSink>>,
    /// Chaos plan for persistence faults (cache-journal truncation). The
    /// compile/tester/timer fault sites live in the evaluator closures,
    /// which own those stages.
    faults: Option<FaultPlan>,
    /// Worker-process pool: fresh evaluations dispatch to `ifko worker`
    /// children instead of running on this process's threads. Merging is
    /// by candidate index, so results stay bit-identical either way.
    pool: Option<Arc<crate::worker::WorkerPool>>,
    metrics: Arc<MetricsRegistry>,
    /// One registry counter per [`Tally`] field, in `Tally::FIELDS` order.
    m_tally: [Arc<Counter>; Tally::FIELDS.len()],
    m_simulations: Arc<Counter>,
    m_probes: Arc<Counter>,
    m_batches: Arc<Counter>,
    m_busy_us: Arc<Counter>,
    m_batch_size: Arc<Histogram>,
    m_eval_wall: Arc<Histogram>,
    m_batch_wall: Arc<Histogram>,
    m_queue_wait: Arc<Histogram>,
    m_worker_evals: Arc<Counter>,
    m_worker_redispatches: Arc<Counter>,
    m_worker_deaths: Arc<Counter>,
    m_worker_fallbacks: Arc<Counter>,
    m_worker_proto: Arc<Counter>,
}

impl EvalEngine {
    /// An engine with `jobs` worker threads (1 = serial), a fresh
    /// in-memory cache, and instruments on the global metrics registry.
    pub fn new(jobs: usize) -> EvalEngine {
        EvalEngine::build(jobs, Arc::new(EvalCache::new()), None, metrics::global())
    }

    fn build(
        jobs: usize,
        cache: Arc<EvalCache>,
        trace: Option<Arc<dyn TraceSink>>,
        registry: Arc<MetricsRegistry>,
    ) -> EvalEngine {
        let jobs = jobs.max(1);
        registry.gauge(metrics::ENGINE_JOBS).set(jobs as i64);
        EvalEngine {
            jobs,
            cache,
            trace,
            faults: None,
            pool: None,
            m_tally: Tally::FIELDS.map(|(_, metric, _)| registry.counter(metric)),
            m_simulations: registry.counter(metrics::ENGINE_SIMULATIONS),
            m_probes: registry.counter(metrics::ENGINE_PROBES),
            m_batches: registry.counter(metrics::ENGINE_BATCHES),
            m_busy_us: registry.counter(metrics::ENGINE_BUSY_US),
            m_batch_size: registry.histogram(metrics::ENGINE_BATCH_SIZE, metrics::COUNT_BUCKETS),
            m_eval_wall: registry.histogram(metrics::ENGINE_EVAL_WALL_US, metrics::US_BUCKETS),
            m_batch_wall: registry.histogram(metrics::ENGINE_BATCH_WALL_US, metrics::US_BUCKETS),
            m_queue_wait: registry.histogram(metrics::ENGINE_QUEUE_WAIT_US, metrics::US_BUCKETS),
            m_worker_evals: registry.counter(metrics::ENGINE_WORKER_EVALS),
            m_worker_redispatches: registry.counter(metrics::ENGINE_WORKER_REDISPATCHES),
            m_worker_deaths: registry.counter(metrics::ENGINE_WORKER_DEATHS),
            m_worker_fallbacks: registry.counter(metrics::ENGINE_WORKER_FALLBACKS),
            m_worker_proto: registry.counter(metrics::ENGINE_WORKER_PROTO_ERRORS),
            metrics: registry,
        }
    }

    /// Share an existing cache (cross-search / cross-process reuse).
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> EvalEngine {
        self.cache = cache;
        self
    }

    /// Attach a trace sink; every evaluation emits a [`SearchEvent`].
    pub fn with_trace(mut self, trace: Arc<dyn TraceSink>) -> EvalEngine {
        self.trace = Some(trace);
        self
    }

    /// Attach a chaos plan: cache-journal writes may be truncated
    /// mid-record (and repaired on the next store). Off by default.
    pub fn with_faults(mut self, faults: FaultPlan) -> EvalEngine {
        self.faults = Some(faults);
        self
    }

    /// Record this engine's instruments on `registry` instead of the
    /// global one (tests use this for exact per-engine counts).
    pub fn with_metrics(self, registry: Arc<MetricsRegistry>) -> EvalEngine {
        let mut eng = EvalEngine::build(self.jobs, self.cache, self.trace, registry);
        eng.faults = self.faults;
        if let Some(pool) = self.pool {
            eng = eng.with_worker_pool(pool);
        }
        eng
    }

    /// Dispatch fresh evaluations to a pool of worker processes (see
    /// [`crate::worker`]). The in-process evaluator closure is still
    /// required — it is the graceful-degradation path when every worker
    /// has died — and results are merged by candidate index, so a pooled
    /// batch stays bit-identical to `--jobs` threads and to serial.
    pub fn with_worker_pool(mut self, pool: Arc<crate::worker::WorkerPool>) -> EvalEngine {
        self.metrics
            .gauge(metrics::ENGINE_WORKERS)
            .set(pool.alive() as i64);
        self.pool = Some(pool);
        self
    }

    pub fn jobs(&self) -> usize {
        self.jobs
    }
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }
    pub fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.as_ref()
    }
    /// The registry this engine's instruments live on.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }
    /// Cumulative tally, read from the engine's metrics registry (one
    /// source of truth — the counters the engine increments are the
    /// counters this reads). With the default global registry the numbers
    /// are process-wide; attach a private registry via
    /// [`EvalEngine::with_metrics`] for per-engine isolation.
    pub fn stats(&self) -> Tally {
        let mut t = Tally::default();
        for ((_, _, field), counter) in Tally::FIELDS.iter().zip(&self.m_tally) {
            *field(&mut t) = counter.get() as u32;
        }
        t
    }

    /// Count one simulator run against this engine's registry
    /// (`ifko_engine_simulations_total`). Called where the run is made.
    pub fn count_simulation(&self) {
        self.m_simulations.inc();
    }

    /// Evaluate a batch of candidate points with a cycles-only evaluator
    /// (`None` = rejected): the convenience form of
    /// [`EvalEngine::evaluate`] for evaluators that produce no simulator
    /// counters — untagged, no precheck, no cost model.
    pub fn eval_batch<F>(
        &self,
        scope: &EvalScope,
        phase: &'static str,
        cands: &[TransformParams],
        eval: F,
    ) -> BatchOutcome
    where
        F: Fn(&TransformParams) -> Option<u64> + Sync,
    {
        self.evaluate(&Batch::new(scope, phase), cands, |p| {
            EvalRecord::from(eval(p))
        })
    }

    /// Evaluate a batch of candidate points, in parallel, memoized.
    ///
    /// `eval` is the pure evaluation function (compile + verify + time →
    /// [`EvalRecord`], `cycles: None` = rejected); it is called once per
    /// *unique uncached* candidate. Results come back index-aligned with
    /// `cands`, and all bookkeeping is order-deterministic regardless of
    /// `jobs`.
    ///
    /// `batch.precheck` runs serially over the batch *before* cache
    /// lookup; a candidate it rejects is **pruned** — never compiled,
    /// simulated, or cached — and comes back as `None` with the rejection
    /// reason in its trace event. Because pruning happens before the
    /// cache, a pruned point costs O(1) regardless of phase or pass.
    ///
    /// When `batch.model` is attached and a trace sink will record its
    /// price, every legal candidate's trace event carries its predicted
    /// cycles. Without a sink the model is never called.
    pub fn evaluate<F>(&self, batch: &Batch<'_>, cands: &[TransformParams], eval: F) -> BatchOutcome
    where
        F: Fn(&TransformParams) -> EvalRecord + Sync,
    {
        let Batch {
            scope,
            strategy,
            phase,
            precheck,
            model,
        } = batch;
        // Serial pass: prune illegal points, then resolve cache hits and
        // batch-internal duplicates. `work` lists the fresh candidates.
        let mut primary: HashMap<String, usize> = HashMap::new();
        let mut work: Vec<usize> = Vec::new();
        let mut probes: Vec<Probe> = Vec::with_capacity(cands.len());
        for (i, cand) in cands.iter().enumerate() {
            let fate = if let Err(why) = precheck(cand) {
                Fate::Pruned(why)
            } else {
                let key = scope.point_key(cand);
                if let Some(v) = self.cache.get(&key) {
                    Fate::Hit(v)
                } else if let Some(&j) = primary.get(&key) {
                    Fate::DupOf(j)
                } else {
                    primary.insert(key.clone(), i);
                    work.push(i);
                    Fate::Fresh {
                        key,
                        rec: EvalRecord::default(),
                        wall_us: 0,
                        worker: None,
                    }
                }
            };
            probes.push(Probe {
                predicted: None,
                fate,
            });
        }

        // Serial model pass, run only when a trace sink records the
        // prediction: predict every legal candidate (hits and duplicates
        // included — predictions are session-cached).
        if let Some(predict) = model.filter(|_| self.trace.is_some()) {
            for (cand, probe) in cands.iter().zip(&mut probes) {
                if !matches!(probe.fate, Fate::Pruned(_)) {
                    probe.predicted = predict(cand);
                }
            }
        }

        // Parallel pass over the unique uncached points.
        if !work.is_empty() {
            let batch_start = std::time::Instant::now();
            // (candidate index, record, eval wall-µs, worker id)
            type Done = (usize, EvalRecord, u64, Option<u32>);
            let done: Mutex<Vec<Done>> = Mutex::new(Vec::with_capacity(work.len()));
            // One dispatch queue of (candidate index, attempt), drained
            // by `lanes` threads. Under a worker pool a lane drives one
            // worker process; otherwise it runs `eval` in-process.
            // Evaluation is a pure function of the candidate, so whichever
            // lane takes a point produces the identical record and the
            // merge (by index, below) is bit-identical either way.
            let queue: Mutex<VecDeque<(usize, u32)>> =
                Mutex::new(work.iter().map(|&i| (i, 0)).collect());
            let next = || {
                let job = queue.lock().unwrap().pop_front();
                if job.is_some() {
                    self.m_queue_wait
                        .observe(batch_start.elapsed().as_micros() as u64);
                }
                job
            };
            let run_local = || {
                while let Some((i, _)) = next() {
                    let t0 = std::time::Instant::now();
                    let r = eval(&cands[i]);
                    let us = t0.elapsed().as_micros() as u64;
                    self.m_eval_wall.observe(us);
                    self.m_busy_us.add(us);
                    done.lock().unwrap().push((i, r, us, None));
                }
            };
            // A lane whose worker dies, hangs, or answers garbage retires
            // it, requeues the candidate (after the fault layer's
            // backoff), and exits — the survivors drain the queue.
            let run_remote = |pool: &crate::worker::WorkerPool| {
                let Some(mut h) = pool.checkout() else { return };
                while let Some((i, attempt)) = next() {
                    let t0 = std::time::Instant::now();
                    match h.eval(pool.next_eval_id(), &cands[i]) {
                        Ok(r) => {
                            let us = t0.elapsed().as_micros() as u64;
                            self.m_eval_wall.observe(us);
                            self.m_busy_us.add(us);
                            self.m_worker_evals.inc();
                            done.lock().unwrap().push((i, r, us, Some(h.id)));
                        }
                        Err(e) => {
                            if e.is_protocol() {
                                self.m_worker_proto.inc();
                            }
                            self.m_worker_deaths.inc();
                            self.m_worker_redispatches.inc();
                            self.metrics
                                .gauge(metrics::ENGINE_WORKERS)
                                .set(pool.alive().saturating_sub(1) as i64);
                            queue.lock().unwrap().push_back((i, attempt + 1));
                            pool.discard(h);
                            std::thread::sleep(crate::fault::backoff(attempt));
                            return;
                        }
                    }
                }
                pool.checkin(h);
            };
            let pool = self.pool.as_deref().filter(|p| p.alive() > 0);
            let lanes = pool.map_or(self.jobs, |p| p.alive()).min(work.len());
            let run_lane = || match pool {
                Some(pool) => run_remote(pool),
                None => run_local(),
            };
            if lanes <= 1 {
                run_lane();
            } else {
                std::thread::scope(|s| {
                    for _ in 0..lanes {
                        s.spawn(run_lane);
                    }
                });
            }
            if pool.is_some() {
                // Graceful degradation: whatever the (now possibly empty)
                // pool left behind is evaluated in-process — a batch
                // always completes, with identical numbers.
                self.m_worker_fallbacks
                    .add(queue.lock().unwrap().len() as u64);
                run_local();
            }
            self.m_batch_wall
                .observe(batch_start.elapsed().as_micros() as u64);
            for (i, r, us, wtag) in done.into_inner().unwrap() {
                if let Fate::Fresh {
                    rec,
                    wall_us,
                    worker,
                    ..
                } = &mut probes[i].fate
                {
                    (*rec, *wall_us, *worker) = (r, us, wtag);
                }
            }
            // Serial: publish to the cache in candidate order. A *failed*
            // record is a transient artifact of the fault plan, not a
            // verdict on the point — caching it would poison later runs.
            for &i in &work {
                if let Fate::Fresh { key, rec, .. } = &mut probes[i].fate {
                    if !rec.failed {
                        self.cache.insert_with(
                            std::mem::take(key),
                            rec.cycles,
                            self.faults.as_ref(),
                        );
                    }
                }
            }
        }

        // One pass over the fates: the index-aligned results, the tally
        // and (when a sink is attached) the trace events.
        let blank = EvalRecord::default();
        let mut results: Vec<Option<u64>> = Vec::with_capacity(cands.len());
        let mut tally = Tally::default();
        for (cand, probe) in cands.iter().zip(&probes) {
            let (pruned, cache_hit, cycles, rec, wall_us, worker) = match &probe.fate {
                Fate::Pruned(why) => (Some(why.as_str()), false, None, &blank, 0, None),
                Fate::Hit(v) => (None, true, *v, &blank, 0, None),
                // A duplicate's primary sits earlier in the batch.
                Fate::DupOf(j) => (None, true, results[*j], &blank, 0, None),
                Fate::Fresh {
                    rec,
                    wall_us,
                    worker,
                    ..
                } => (None, false, rec.cycles, rec, *wall_us, *worker),
            };
            let facts = ProbeFacts {
                pruned,
                cache_hit,
                verified: cycles.is_some(),
                failed: rec.failed,
                retries: rec.retries,
                faults: rec.faults,
                outliers: rec.outliers,
            };
            results.push(cycles);
            tally.count(&facts);
            if let Some(sink) = &self.trace {
                sink.record(&SearchEvent::Eval(EvalEvent {
                    scope: scope.key().to_string(),
                    phase: phase.to_string(),
                    params: key::params_label(cand),
                    cycles,
                    verified: facts.verified,
                    cache_hit,
                    wall_us,
                    stats: rec.stats,
                    predicted: probe.predicted,
                    pruned: pruned.map(str::to_string),
                    strategy: strategy.to_string(),
                    retries: rec.retries,
                    faults: rec.faults,
                    outliers: rec.outliers,
                    failed: rec.failed,
                    worker,
                }));
            }
        }
        self.m_batches.inc();
        self.m_batch_size.observe(cands.len() as u64);
        self.m_probes.add(cands.len() as u64);
        let mut counted = tally;
        for ((_, _, field), counter) in Tally::FIELDS.iter().zip(&self.m_tally) {
            counter.add(*field(&mut counted) as u64);
        }

        BatchOutcome { results, tally }
    }
}

impl EvalEvent {
    /// The classifier's view of a trace event (see [`ProbeFacts`]).
    pub fn facts(&self) -> ProbeFacts<'_> {
        ProbeFacts {
            pruned: self.pruned.as_deref(),
            cache_hit: self.cache_hit,
            verified: self.verified,
            failed: self.failed,
            retries: self.retries,
            faults: self.faults,
            outliers: self.outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Context;
    use crate::timer::Timer;
    use ifko_fko::{Reject, TransformParams};
    use ifko_xsim::p4e;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scope() -> EvalScope {
        EvalScope::new("test", &p4e(), Context::OutOfCache, 100, 1, &Timer::exact())
    }

    /// A `line`-tagged `UR` batch with an optional cost model.
    fn modeled_batch<'a>(scope: &'a EvalScope, model: Option<Predict<'a>>) -> Batch<'a> {
        Batch {
            strategy: "line",
            model,
            ..Batch::new(scope, "UR")
        }
    }

    fn point(ur: u32) -> TransformParams {
        let mut p = TransformParams::off();
        p.unroll = ur;
        p
    }

    #[test]
    fn batch_results_are_index_aligned_and_cached() {
        let eng = EvalEngine::new(4);
        let cands: Vec<_> = (1..=8).map(point).collect();
        let out = eng.eval_batch(&scope(), "UR", &cands, |p| Some(p.unroll as u64 * 10));
        assert_eq!(
            out.results,
            (1..=8).map(|u| Some(u * 10)).collect::<Vec<_>>()
        );
        assert_eq!(out.tally.evaluated, 8);
        assert_eq!(out.tally.cache_hits, 0);
        // Second submission: all hits, evaluator must not run.
        let out2 = eng.eval_batch(&scope(), "UR", &cands, |_| panic!("must be cached"));
        assert_eq!(out2.results, out.results);
        assert_eq!(out2.tally.cache_hits, 8);
        assert_eq!(out2.tally.evaluated, 0);
    }

    #[test]
    fn precheck_prunes_before_compile_and_cache() {
        let eng = EvalEngine::new(2);
        let cands: Vec<_> = (1..=4).map(point).collect();
        // Prune odd unrolls; the evaluator must never see them.
        let out = eng.evaluate(
            &Batch {
                precheck: &|p| {
                    if p.unroll % 2 == 1 {
                        Err(Reject::UnrollTooLarge)
                    } else {
                        Ok(())
                    }
                },
                ..Batch::new(&scope(), "UR")
            },
            &cands,
            |p| {
                assert_eq!(p.unroll % 2, 0, "pruned candidate reached the evaluator");
                EvalRecord::from(Some(p.unroll as u64))
            },
        );
        assert_eq!(out.results, vec![None, Some(2), None, Some(4)]);
        assert_eq!(out.tally.pruned, 2);
        assert_eq!(out.tally.evaluated, 2);
        assert_eq!(out.tally.cache_hits, 0);
        // Pruned points are never cached: resubmitting without the
        // precheck evaluates them fresh.
        let out2 = eng.evaluate(&Batch::new(&scope(), "UR"), &cands, |p| {
            EvalRecord::from(Some(p.unroll as u64))
        });
        assert_eq!(out2.results, (1..=4).map(Some).collect::<Vec<_>>());
        assert_eq!(out2.tally.evaluated, 2);
        assert_eq!(out2.tally.cache_hits, 2);
        assert_eq!(out2.tally.pruned, 0);
    }

    #[test]
    fn duplicates_within_a_batch_evaluate_once() {
        let eng = EvalEngine::new(2);
        let calls = AtomicU64::new(0);
        let cands = vec![point(4), point(4), point(4)];
        let out = eng.eval_batch(&scope(), "UR", &cands, |p| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some(p.unroll as u64)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(out.tally.evaluated, 1);
        assert_eq!(out.tally.cache_hits, 2);
        assert_eq!(out.results, vec![Some(4), Some(4), Some(4)]);
    }

    #[test]
    fn rejections_are_cached_too() {
        let eng = EvalEngine::new(1);
        let cands = vec![point(3)];
        let out = eng.eval_batch(&scope(), "UR", &cands, |_| None);
        assert_eq!(out.tally.rejected, 1);
        let out2 = eng.eval_batch(&scope(), "UR", &cands, |_| panic!("cached rejection"));
        assert_eq!(out2.results, vec![None]);
        assert_eq!(out2.tally.cache_hits, 1);
    }

    #[test]
    fn jobs_do_not_change_results() {
        let cands: Vec<_> = (1..=13).map(point).collect();
        let f = |p: &TransformParams| {
            if p.unroll.is_multiple_of(5) {
                None
            } else {
                Some(1000 / p.unroll as u64)
            }
        };
        let serial = EvalEngine::new(1).eval_batch(&scope(), "UR", &cands, f);
        let wide = EvalEngine::new(8).eval_batch(&scope(), "UR", &cands, f);
        assert_eq!(serial.results, wide.results);
        assert_eq!(serial.tally.evaluated, wide.tally.evaluated);
        assert_eq!(serial.tally.rejected, wide.tally.rejected);
    }

    #[test]
    fn trace_records_every_candidate_in_order() {
        let sink = MemSink::new();
        let eng = EvalEngine::new(4).with_trace(sink.clone());
        let cands: Vec<_> = (1..=6).map(point).collect();
        eng.eval_batch(&scope(), "UR", &cands, |p| Some(p.unroll as u64));
        let evs = sink.evals();
        assert_eq!(evs.len(), 6);
        for (ev, c) in evs.iter().zip(&cands) {
            assert_eq!(ev.params, format!("{c:?}"));
            assert_eq!(ev.phase, "UR");
            assert!(ev.verified && !ev.cache_hit);
        }
    }

    #[test]
    fn trace_carries_run_stats_for_fresh_evals_only() {
        let sink = MemSink::new();
        let eng = EvalEngine::new(2).with_trace(sink.clone());
        let cands = vec![point(2), point(4)];
        let mk = |p: &TransformParams| EvalRecord {
            cycles: Some(p.unroll as u64 * 100),
            stats: Some(RunStats {
                cycles: p.unroll as u64 * 100,
                l1_misses: 7,
                ..Default::default()
            }),
            ..EvalRecord::default()
        };
        eng.evaluate(&Batch::new(&scope(), "UR"), &cands, mk);
        // Warm re-submission: hits carry no stats.
        eng.evaluate(&Batch::new(&scope(), "UR"), &cands, |_| panic!("cached"));
        let evs = sink.evals();
        assert_eq!(evs.len(), 4);
        assert!(evs[0].stats.is_some() && evs[1].stats.is_some());
        assert_eq!(evs[0].stats.unwrap().l1_misses, 7);
        assert!(evs[2].stats.is_none() && evs[3].stats.is_none());
        assert!(evs[2].cache_hit && evs[3].cache_hit);
    }

    #[test]
    fn engine_counters_are_exact_under_parallel_batches() {
        let reg = Arc::new(MetricsRegistry::new());
        let eng = EvalEngine::new(8).with_metrics(reg.clone());
        let cands: Vec<_> = (1..=64).map(point).collect();
        let out = eng.eval_batch(&scope(), "UR", &cands, |p| {
            if p.unroll % 7 == 0 {
                None
            } else {
                Some(p.unroll as u64)
            }
        });
        let again = eng.eval_batch(&scope(), "UR", &cands, |_| panic!("cached"));
        let s = eng.stats();
        assert_eq!(s.evaluated, out.tally.evaluated);
        assert_eq!(s.rejected, out.tally.rejected);
        assert_eq!(s.cache_hits, again.tally.cache_hits);
        assert_eq!(reg.counter_value(metrics::ENGINE_EVALS), Some(64));
        assert_eq!(reg.counter_value(metrics::ENGINE_CACHE_HITS), Some(64));
        assert_eq!(reg.counter_value(metrics::ENGINE_BATCHES), Some(2));
    }

    #[test]
    fn scope_distinguishes_machines_and_contexts() {
        let mut m2 = p4e();
        m2.l2.latency += 1;
        let a = EvalScope::new("k", &p4e(), Context::OutOfCache, 10, 1, &Timer::exact());
        let b = EvalScope::new("k", &m2, Context::OutOfCache, 10, 1, &Timer::exact());
        let c = EvalScope::new("k", &p4e(), Context::InL2, 10, 1, &Timer::exact());
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn failed_records_are_skipped_not_cached_not_rejected() {
        let sink = MemSink::new();
        let reg = Arc::new(MetricsRegistry::new());
        let eng = EvalEngine::new(2)
            .with_trace(sink.clone())
            .with_metrics(reg.clone());
        let cands = vec![point(2), point(4)];
        // unroll=2 keeps failing transiently; unroll=4 evaluates clean.
        let out = eng.evaluate(&Batch::new(&scope(), "UR"), &cands, |p| {
            if p.unroll == 2 {
                EvalRecord::failed(3, 4)
            } else {
                EvalRecord::from(Some(p.unroll as u64))
            }
        });
        assert_eq!(out.results, vec![None, Some(4)]);
        assert_eq!(out.tally.failed, 1);
        assert_eq!(out.tally.rejected, 0, "failed is not a merits rejection");
        assert_eq!(out.tally.retries, 3);
        assert_eq!(out.tally.faults, 4);
        assert_eq!(reg.counter_value(metrics::ENGINE_FAILED), Some(1));
        assert_eq!(reg.counter_value(metrics::ENGINE_RETRIES), Some(3));
        let evs = sink.evals();
        assert!(evs[0].failed && !evs[0].verified);
        assert!(evs[0].to_json().contains("\"failed\":true"));
        assert!(!evs[1].failed);
        // The failed point was NOT cached: a clean resubmission re-runs
        // it fresh, while the clean point hits.
        let out2 = eng.evaluate(&Batch::new(&scope(), "UR"), &cands, |p| {
            EvalRecord::from(Some(p.unroll as u64))
        });
        assert_eq!(out2.results, vec![Some(2), Some(4)]);
        assert_eq!(out2.tally.evaluated, 1);
        assert_eq!(out2.tally.cache_hits, 1);
    }

    /// The struct and its table cannot drift apart: Debug enumerates the
    /// real fields, and every accessor must reach its own field.
    #[test]
    fn tally_table_covers_every_counter() {
        let mut t = Tally::default();
        for (i, (_, _, field)) in Tally::FIELDS.iter().enumerate() {
            *field(&mut t) = i as u32 + 1;
        }
        let want: Vec<String> = Tally::FIELDS
            .iter()
            .enumerate()
            .map(|(i, (name, _, _))| format!("{name}: {}", i + 1))
            .collect();
        assert_eq!(format!("{t:?}"), format!("Tally {{ {} }}", want.join(", ")));
        let mut sum = t;
        sum += t;
        for (i, (name, _, field)) in Tally::FIELDS.iter().enumerate() {
            assert_eq!(*field(&mut sum), 2 * (i as u32 + 1), "field {name}");
        }
    }

    /// One batch holding every fate at once: the tally the engine returns,
    /// its registry counters, and the tally `ifko report` derives from the
    /// batch's own trace events are the same eight numbers.
    #[test]
    fn every_fate_counts_the_same_in_outcome_registry_and_report() {
        let cache = Arc::new(EvalCache::new());
        // Warm unroll=2 on a throwaway engine so this one sees a hit.
        EvalEngine::new(1)
            .with_cache(cache.clone())
            .with_metrics(Arc::new(MetricsRegistry::new()))
            .eval_batch(&scope(), "UR", &[point(2)], |_| Some(20));
        let sink = MemSink::new();
        let reg = Arc::new(MetricsRegistry::new());
        let eng = EvalEngine::new(2)
            .with_cache(cache)
            .with_trace(sink.clone())
            .with_metrics(reg.clone());
        // legality-pruned, cache hit, verified, its duplicate, rejected
        // (after a ridden-out compile fault), failed.
        let cands: Vec<_> = [1, 2, 3, 3, 4, 5].map(point).into();
        let hook = |p: &TransformParams| Some(p.unroll as u64);
        let scope = scope();
        let batch = Batch {
            precheck: &|p| match p.unroll {
                1 => Err(Reject::UnrollTooLarge),
                _ => Ok(()),
            },
            ..modeled_batch(&scope, Some(&hook))
        };
        let out = eng.evaluate(&batch, &cands, |p| match p.unroll {
            3 => EvalRecord {
                cycles: Some(30),
                outliers: 2,
                ..EvalRecord::default()
            },
            4 => EvalRecord {
                retries: 1,
                faults: 1,
                ..EvalRecord::rejected()
            },
            5 => EvalRecord::failed(3, 4),
            u => panic!("unroll={u} must not reach the evaluator"),
        });
        assert_eq!(
            out.results,
            vec![None, Some(20), Some(30), Some(30), None, None]
        );
        let want = Tally {
            evaluated: 3,
            rejected: 1,
            cache_hits: 2,
            pruned: 1,
            retries: 4,
            faults: 5,
            outliers: 2,
            failed: 1,
        };
        assert_eq!(out.tally, want);
        assert_eq!(eng.stats(), want, "registry counters");
        let rep = crate::report::analyze(&sink.events(), 0);
        assert_eq!(rep.scopes[0].tally, want, "ifko report's tally");
        assert_eq!(rep.scopes[0].probes, 6);
    }

    #[test]
    fn model_frac_zero_is_bit_identical_and_traces_predictions() {
        let cands: Vec<_> = (1..=9).map(point).collect();
        let f = |p: &TransformParams| {
            if p.unroll == 5 {
                EvalRecord::rejected()
            } else {
                EvalRecord::from(Some(2000 / p.unroll as u64))
            }
        };
        let plain = EvalEngine::new(2).evaluate(&modeled_batch(&scope(), None), &cands, f);
        // No sink: the price has no reader, so the model is never called.
        let never = |_: &TransformParams| -> Option<u64> { panic!("unread prediction computed") };
        let unread = EvalEngine::new(2).evaluate(&modeled_batch(&scope(), Some(&never)), &cands, f);
        assert_eq!(plain.results, unread.results);
        assert_eq!(plain.tally, unread.tally);
        let sink = MemSink::new();
        let eng = EvalEngine::new(2).with_trace(sink.clone());
        let hook = |p: &TransformParams| Some(p.unroll as u64 * 7);
        let modeled = eng.evaluate(&modeled_batch(&scope(), Some(&hook)), &cands, f);
        // Identical outcome, predictions trace-only.
        assert_eq!(plain.results, modeled.results);
        assert_eq!(plain.tally, modeled.tally);
        let evs = sink.evals();
        assert_eq!(evs.len(), 9);
        for (ev, c) in evs.iter().zip(&cands) {
            assert_eq!(ev.predicted, Some(c.unroll as u64 * 7));
            assert!(ev.pruned.is_none());
        }
    }
}
