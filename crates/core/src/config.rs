//! [`TuneConfig`]: the one configuration object for a tuning run.
//!
//! Replaces the old `TuneOptions` + positional `(machine, context)`
//! sprawl with a builder: pick a preset (`paper()` for the paper's full
//! search, `quick(n)` for tests and demos), then chain what differs.
//!
//! ```
//! use ifko::prelude::*;
//!
//! let cfg = TuneConfig::quick(2048).machine(opteron()).context(Context::InL2).jobs(4);
//! let out = cfg.tune(Kernel { op: BlasOp::Dot, prec: Prec::D }).unwrap();
//! assert!(out.result.best_cycles <= out.result.default_cycles);
//! ```
//!
//! One `TuneConfig` owns one [`EvalCache`] (shared by every search run
//! through it, across kernels and contexts) and optionally a
//! [`TraceSink`] every evaluation reports to.

use crate::driver::{tune_subject, TuneError, TuneOutcome};
use crate::eval::{EvalCache, EvalEngine, JsonlSink, TraceSink};
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::runner::Context;
use crate::search::SearchOptions;
use crate::strategy::{Budget, StrategySpec, TunedDb};
use crate::subject::{Oracle, Subject};
use crate::timer::Timer;
use crate::worker::{WorkerLauncher, WorkerPool, WorkerSpec};
use ifko_blas::Kernel;
use ifko_fko::{CompileError, CompileOpts, TransformParams};
use ifko_xsim::{p4e, MachineConfig};
use std::path::Path;
use std::sync::Arc;

/// Largest problem size accepted from outside the process (a daemon
/// `tune` request, a worker handshake, `ifko tune --n`): 50× the paper's
/// out-of-cache N of 80 000. Operand vectors are allocated up front, so an
/// unchecked wire value can panic or abort the process that parsed it.
pub const MAX_N: usize = 4_000_000;

/// A requested problem size outside `1..=MAX_N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeOutOfRange(pub u64);

impl std::fmt::Display for SizeOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n = {} is out of range (1 ..= {MAX_N})", self.0)
    }
}
impl std::error::Error for SizeOutOfRange {}

/// Check a problem size that arrived from outside the process.
pub fn checked_n(n: u64) -> Result<usize, SizeOutOfRange> {
    match usize::try_from(n) {
        Ok(n) if (1..=MAX_N).contains(&n) => Ok(n),
        _ => Err(SizeOutOfRange(n)),
    }
}

/// Builder-style configuration for tuning runs (see the module docs).
#[derive(Clone)]
pub struct TuneConfig {
    pub(crate) machine: MachineConfig,
    pub(crate) context: Context,
    pub(crate) n: Option<usize>,
    pub(crate) seed: u64,
    pub(crate) search: SearchOptions,
    pub(crate) final_timer: Timer,
    pub(crate) jobs: usize,
    pub(crate) trace: Option<Arc<dyn TraceSink>>,
    pub(crate) cache: Arc<EvalCache>,
    pub(crate) metrics: Option<Arc<MetricsRegistry>>,
    pub(crate) strategy: StrategySpec,
    pub(crate) budget: Budget,
    pub(crate) db: Option<Arc<TunedDb>>,
    pub(crate) workers: usize,
    pub(crate) worker_launcher: Option<WorkerLauncher>,
}

impl TuneConfig {
    /// The paper's protocol: full candidate sets, min-of-6 timer, and the
    /// paper problem size for the chosen context. Default machine is the
    /// Pentium 4E; default context out-of-cache.
    pub fn paper() -> TuneConfig {
        TuneConfig {
            machine: p4e(),
            context: Context::OutOfCache,
            n: None,
            seed: 0xb1a5,
            search: SearchOptions::default(),
            final_timer: Timer::default(),
            jobs: 1,
            trace: None,
            cache: Arc::new(EvalCache::new()),
            metrics: None,
            strategy: StrategySpec::Line,
            budget: Budget::unlimited(),
            db: None,
            workers: 0,
            worker_launcher: None,
        }
    }

    /// Reduced candidate sets and an exact single-rep timer at size `n` —
    /// for tests and demos.
    pub fn quick(n: usize) -> TuneConfig {
        TuneConfig {
            n: Some(n),
            search: SearchOptions::quick(),
            final_timer: Timer::exact(),
            ..TuneConfig::paper()
        }
    }

    // ---- builder setters -------------------------------------------------

    /// Tune for this machine model.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }
    /// Tune in this timing context (out-of-cache / in-L2).
    pub fn context(mut self, context: Context) -> Self {
        self.context = context;
        self
    }
    /// Override the problem size (default: the paper size for the context).
    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }
    /// Workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    /// Evaluate candidate batches on `jobs` worker threads. The search
    /// result is bit-identical for every value (see `ifko::eval`).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
    /// Send every evaluation's [`SearchEvent`](crate::eval::SearchEvent)
    /// to this sink, in place of any set before.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }
    /// Trace to a JSONL file at `path` (convenience over [`Self::trace`]).
    pub fn trace_file(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let sink = JsonlSink::create(path)?;
        Ok(self.trace(sink))
    }
    /// Share an evaluation cache with other configs/processes.
    pub fn cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = cache;
        self
    }
    /// Mirror the evaluation cache to `dir/evals.jsonl` (warm-started from
    /// whatever previous runs left there).
    pub fn persistent_cache(self, dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let cache = Arc::new(EvalCache::persistent(dir)?);
        Ok(self.cache(cache))
    }
    /// Record engine/search instruments on this registry instead of the
    /// process-wide [`metrics::global`](crate::metrics::global) one
    /// (tests use a private registry for exact counts).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }
    /// Replace the search-phase candidate sets / timer wholesale.
    pub fn search(mut self, search: SearchOptions) -> Self {
        self.search = search;
        self
    }
    /// Run the IR verifier between every pipeline stage for every
    /// candidate, even in release builds (`--verify-ir`). Debug builds
    /// always verify.
    pub fn verify_ir(mut self, on: bool) -> Self {
        self.search.verify_ir = on;
        self
    }
    /// Enable/disable the analysis-driven legality precheck that prunes
    /// provably-futile candidates before compilation (on by default;
    /// winner-neutral).
    pub fn prune(mut self, on: bool) -> Self {
        self.search.prune = on;
        self
    }
    /// Prune this fraction of each batch's fresh candidates from the
    /// predicted-worst end of the static cost model's ranking
    /// (`--model-prune FRAC`, clamped to [0, 1]). 0 (the default) keeps
    /// every candidate; predictions still land in the trace.
    pub fn model_prune(mut self, frac: f64) -> Self {
        self.search.model_prune = frac.clamp(0.0, 1.0);
        self
    }
    /// Inject deterministic, seeded faults into the evaluation pipeline
    /// (`--chaos SEED[:RATE]`): transient compile failures, tester
    /// flakes, timing-rep spikes, and truncated journal writes. Off by
    /// default. See [`ifko::fault`](crate::fault).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.search.faults = Some(plan);
        self
    }
    /// Retry budget per fault site per candidate before the candidate is
    /// recorded as failed and skipped (`--max-retries`, default 2).
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.search.max_retries = retries;
        self
    }
    /// Timer used for the final reported measurement.
    pub fn final_timer(mut self, timer: Timer) -> Self {
        self.final_timer = timer;
        self
    }
    /// Search strategy driving candidate selection (default: the paper's
    /// modified line search).
    pub fn strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }
    /// Probe-and-time budget for the search (default: unlimited — the
    /// line search runs to its fixed point).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
    /// Attach a tuned-results database: searches warm-start from stored
    /// winners (re-verified before acceptance) and store new ones.
    pub fn db(mut self, db: Arc<TunedDb>) -> Self {
        self.db = Some(db);
        self
    }
    /// Attach the tuned-results database in `dir` (convenience over
    /// [`Self::db`]; `results/db` is the conventional location).
    pub fn tuned_db(self, dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let db = Arc::new(TunedDb::open(dir)?);
        Ok(self.db(db))
    }
    /// Evaluate candidate batches on `workers` worker *processes*
    /// (`--workers N`; 0, the default, keeps evaluation in-process on
    /// [`Self::jobs`] threads). Results merge by candidate index, so the
    /// winner is bit-identical either way; a worker that dies mid-batch
    /// has its candidates re-dispatched, and an exhausted pool degrades
    /// to in-process evaluation.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
    /// How to launch worker processes (default: the `ifko-worker` binary
    /// found next to the current executable).
    pub fn worker_launcher(mut self, launcher: WorkerLauncher) -> Self {
        self.worker_launcher = Some(launcher);
        self
    }

    // ---- accessors -------------------------------------------------------

    pub fn machine_ref(&self) -> &MachineConfig {
        &self.machine
    }
    pub fn context_of(&self) -> Context {
        self.context
    }
    /// The problem size a run will use.
    pub fn size(&self) -> usize {
        self.n.unwrap_or_else(|| self.context.paper_n())
    }
    pub fn jobs_of(&self) -> usize {
        self.jobs
    }
    /// The workload seed a run will use.
    pub fn seed_of(&self) -> u64 {
        self.seed
    }
    pub fn strategy_of(&self) -> StrategySpec {
        self.strategy
    }
    pub fn db_of(&self) -> Option<&TunedDb> {
        self.db.as_deref()
    }

    /// Build the evaluation engine this config describes. All runs share
    /// the config's cache and sink, so points evaluated while tuning one
    /// kernel are free for the next.
    pub fn engine(&self) -> EvalEngine {
        let mut e = EvalEngine::new(self.jobs).with_cache(self.cache.clone());
        if let Some(t) = &self.trace {
            e = e.with_trace(t.clone());
        }
        if let Some(m) = &self.metrics {
            e = e.with_metrics(m.clone());
        }
        if let Some(plan) = &self.search.faults {
            e = e.with_faults(plan.clone());
        }
        e
    }

    /// Spawn the worker-process pool this config asks for (`None` when
    /// `--workers 0`, when no worker binary can be found, or when every
    /// spawn fails — callers then evaluate in-process, which is the
    /// documented degradation path, not an error).
    pub(crate) fn spawn_worker_pool(&self, spec: &WorkerSpec) -> Option<Arc<WorkerPool>> {
        if self.workers == 0 {
            return None;
        }
        let launcher = match &self.worker_launcher {
            Some(l) => l.clone(),
            None => match WorkerLauncher::sibling() {
                Some(l) => l,
                None => {
                    eprintln!(
                        "ifko: --workers {} requested but no ifko-worker binary found; \
                         evaluating in-process",
                        self.workers
                    );
                    return None;
                }
            },
        };
        let pool = WorkerPool::spawn(&launcher, &spec.to_json(), self.workers);
        if pool.alive() == 0 {
            eprintln!("ifko: worker pool failed to start; evaluating in-process");
            return None;
        }
        Some(Arc::new(pool))
    }

    // ---- runners ---------------------------------------------------------

    /// Tune one BLAS kernel (the paper's "ifko" data point).
    pub fn tune(&self, kernel: Kernel) -> Result<TuneOutcome, TuneError> {
        self.tune_opened(&self.open(kernel)?)
    }

    /// Open one BLAS kernel for tuning: its compile session, workload and
    /// reference results at this config's machine, context, size and seed.
    pub fn open(&self, kernel: Kernel) -> Result<Opened, TuneError> {
        let opened = self.open_subject(Oracle::Reference { kernel });
        opened.map_err(|e| TuneError(format!("{}: {e}", kernel.name())))
    }

    /// Open an arbitrary user HIL kernel for tuning, as [`Self::open`]
    /// does, with the outputs of one run of it untransformed as its oracle.
    pub fn open_source(&self, src: &str) -> Result<Opened, CompileError> {
        self.open_subject(Oracle::Baseline { src: src.into() })
    }

    fn open_subject(&self, oracle: Oracle) -> Result<Opened, CompileError> {
        let (machine, context, n) = (&self.machine, self.context, self.size());
        Subject::open(oracle, machine, context, n, self.seed, &self.search).map(Opened)
    }

    /// Tune what [`Self::open`] or [`Self::open_source`] opened, under a
    /// config that agrees with the opener's on machine, context, size,
    /// seed and search options. Each tune leaves the subject holding only
    /// what a warm tune of it reads.
    pub fn tune_opened(&self, opened: &Opened) -> Result<TuneOutcome, TuneError> {
        tune_subject(&opened.0, self)
    }

    /// Time a kernel at FKO's static defaults (the paper's "FKO" point):
    /// one run, verified, then timed by the final timer.
    pub fn time_defaults(&self, kernel: Kernel) -> Result<u64, TuneError> {
        let name = kernel.name();
        let subject = self.open(kernel)?.0;
        let params = TransformParams::defaults(subject.sess.report(), &self.machine);
        let compiled = subject
            .sess
            .compile(&params, CompileOpts::default())
            .map_err(|e| TuneError(format!("{name}: {e}")))?;
        let ran = subject
            .run(&params, &compiled, None, None)
            .map_err(TuneError)?;
        ran.verdict
            .map_err(|e| TuneError(format!("{name} defaults failed verify: {e}")))?;
        Ok(self.final_timer.time_from(ran.stats.cycles, &compiled.name))
    }

    /// Tune an arbitrary user HIL kernel with differential verification.
    /// Candidates run through the config's evaluation engine: batched
    /// across its worker threads, memoized in its cache under a
    /// source-fingerprinted scope, and traced to its sink.
    pub fn tune_source(&self, src: &str) -> Result<TuneOutcome, CompileError> {
        let opened = self.open_source(src)?;
        self.tune_opened(&opened)
            .map_err(|e| CompileError::codegen(e.0))
    }
}

/// A kernel or source opened for tuning ([`TuneConfig::open`],
/// [`TuneConfig::open_source`]): its compile session, operands and
/// oracle, kept between tunes by [`TuneConfig::tune_opened`].
pub struct Opened(pub(crate) Subject);

impl std::fmt::Debug for TuneConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuneConfig")
            .field("machine", &self.machine.name)
            .field("context", &self.context)
            .field("n", &self.size())
            .field("seed", &self.seed)
            .field("jobs", &self.jobs)
            .field("strategy", &self.strategy.name())
            .field("budget", &format_args!("{}", self.budget))
            .field("db", &self.db.is_some())
            .field("trace", &self.trace.is_some())
            .field("chaos", &self.search.faults.as_ref().map(|p| p.seed))
            .field("cached_points", &self.cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MemSink;
    use ifko_blas::ops::BlasOp;
    use ifko_xsim::isa::Prec;
    use ifko_xsim::opteron;

    #[test]
    fn builder_chains() {
        let sink = MemSink::new();
        let cfg = TuneConfig::quick(512)
            .machine(opteron())
            .context(Context::InL2)
            .seed(7)
            .jobs(3)
            .trace(sink);
        assert_eq!(cfg.size(), 512);
        assert_eq!(cfg.jobs_of(), 3);
        assert_eq!(cfg.machine_ref().name, "Opteron");
        assert_eq!(cfg.context_of(), Context::InL2);
        assert_eq!(cfg.engine().jobs(), 3);
        assert!(cfg.engine().trace().is_some());
    }

    #[test]
    fn paper_preset_uses_paper_sizes() {
        let cfg = TuneConfig::paper();
        assert_eq!(cfg.size(), Context::OutOfCache.paper_n());
        let cfg = cfg.context(Context::InL2);
        assert_eq!(cfg.size(), Context::InL2.paper_n());
    }

    #[test]
    fn cache_is_shared_across_runs_of_one_config() {
        let cfg = TuneConfig::quick(1024);
        let k = Kernel {
            op: BlasOp::Scal,
            prec: Prec::D,
        };
        let a = cfg.tune(k).unwrap();
        assert!(a.result.evaluations > 0, "cold cache must evaluate");
        let b = cfg.tune(k).unwrap();
        assert_eq!(b.result.evaluations, 0, "warm cache: no re-evaluation");
        assert!(b.result.cache_hits > 0);
        assert_eq!(a.result.best, b.result.best);
        assert_eq!(a.cycles, b.cycles);
    }
}
