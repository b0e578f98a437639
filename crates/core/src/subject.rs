//! The one evaluation path: a [`Subject`] is what is being tuned, and
//! [`Subject::evaluate`] is the only code that turns a parameter point
//! into an [`EvalRecord`].
//!
//! The paper's Figure 1 has one inner loop — the search hands a point to
//! the compiler, the tester and the timer — and its long-range goal is
//! that an arbitrary HIL kernel goes through that same loop with only the
//! tester swapped. Here that is literal: a subject carries its compile
//! session, its evaluation scope, its operands and an [`Oracle`] that is
//! a verdict and nothing else. The staged function below
//! (chaos-compile retry → compile → one run → time) consults the oracle
//! at exactly three points — the run (image size, return check and test),
//! the tester-flake retry, and the `time` stage — and the tune driver at
//! one more, its final report. The in-process
//! engine (through [`crate::strategy::run_search`]), `ifko worker`
//! (through [`crate::worker::serve`]) and, by way of
//! [`TuneConfig`](crate::TuneConfig), `ifkod` all call it, so a candidate
//! is judged in one place wherever it runs.
//!
//! A subject outlives a tune: [`Subject::run`] simulates each normalized
//! point once per subject, and [`Subject::trim`] leaves it holding what a
//! warm tune reads, so `ifkod` keeps one open per resolved request.

use crate::eval::{fnv64, EvalEngine, EvalRecord, EvalScope, Span};
use crate::fault::FaultPlan;
use crate::generic::{outputs_agree, run_generic, GenericWorkload};
use crate::runner::{check_ret, image_bytes, simulate, Context, Operands, Outputs};
use crate::search::SearchOptions;
use crate::tester::Expected;
use ifko_blas::hil_src::hil_source;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{
    normalized, CompileError, CompileOpts, CompileSession, CompiledKernel, Locality,
    TransformParams,
};
use ifko_xsim::{MachineConfig, RunStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How a candidate's outputs are judged and its time is taken — the only
/// thing that differs between a suite kernel and a `.hil` source.
pub(crate) enum Oracle {
    /// A BLAS-suite kernel: outputs are checked against what the Rust
    /// reference makes of the workload ([`Expected`]), the kernel must
    /// return in the slot its op returns in, and the run's cycle count
    /// goes through the search timer's statistics.
    Reference { kernel: Kernel },
    /// An arbitrary HIL source: outputs are compared against those of the
    /// same kernel compiled with every transformation off, and the run's
    /// exact cycle count is the candidate's time.
    Baseline { src: String },
}

/// What every candidate runs on, and what the oracle holds its outputs
/// against: a suite kernel's reference results or a source's baseline.
struct Bench {
    workload: GenericWorkload,
    truth: Truth,
}

enum Truth {
    Expected(Expected<'static>),
    Baseline(Outputs),
}

/// A suite kernel's bench. The reference runs on the workload first;
/// then its vectors move (not copy) into the operand set `run_once`
/// binds: `[x, y][..n_vectors]` and `[alpha, beta]`.
fn suite(kernel: Kernel, w: Workload) -> Bench {
    let truth = Truth::Expected(Expected::of(kernel, &w).into_owned());
    let mut vectors = vec![w.x, w.y];
    vectors.truncate(kernel.op.n_vectors());
    let workload = GenericWorkload {
        n: w.n,
        vectors,
        scalars: vec![w.alpha, w.beta],
    };
    Bench { workload, truth }
}

/// One simulation of a compiled point and the oracle's verdict on it.
#[derive(Clone)]
pub(crate) struct Ran {
    pub(crate) stats: RunStats,
    pub(crate) verdict: Result<(), String>,
}

type RunCell = Arc<OnceLock<Result<Ran, String>>>;

/// Lock `m` even if a thread panicked holding it: the values a subject
/// guards only ever receive whole entries.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A subject's compile session: opened by the subject, or lent by a
/// caller who keeps it ([`crate::search::line_search`]).
pub(crate) enum Session<'s> {
    Own(Box<CompileSession>),
    Lent(&'s CompileSession),
}

impl std::ops::Deref for Session<'_> {
    type Target = CompileSession;
    fn deref(&self) -> &CompileSession {
        match self {
            Session::Own(sess) => sess,
            Session::Lent(sess) => sess,
        }
    }
}

/// What is being tuned: a compile session, the evaluation scope (label,
/// machine, context, size, seed, timer), the search options the
/// evaluation reads (timer, IR verification, chaos plan, retry budget),
/// the [`Oracle`] that judges and times candidates, and its runs.
pub(crate) struct Subject<'s> {
    pub(crate) sess: Session<'s>,
    pub(crate) scope: EvalScope,
    pub(crate) machine: MachineConfig,
    pub(crate) context: Context,
    pub(crate) opts: SearchOptions,
    pub(crate) oracle: Oracle,
    /// Derived at open; `None` from a trim until a run needs it again.
    bench: Mutex<Option<Arc<Bench>>>,
    /// Each point's run (or why it did not run), filled by the first call.
    runs: Mutex<HashMap<TransformParams, RunCell>>,
    /// When the subject opened and how long its front end took, until its
    /// first tune starts its root span there and hangs the `parse` span
    /// off it (a source's scope key is known only after the parse).
    opened: Mutex<Option<(Instant, Duration)>>,
    /// Baseline runs made outside any engine — deriving a source's bench
    /// at open or after a trim — that no tune has counted yet.
    pub(crate) baseline_runs: AtomicU64,
}

impl Subject<'static> {
    /// Open what `oracle` names at size `n` on operands seeded with `seed`:
    /// the front end, then the bench (for a source, its kernel compiled
    /// with every transformation off and run once).
    pub(crate) fn open(
        oracle: Oracle,
        machine: &MachineConfig,
        context: Context,
        n: usize,
        seed: u64,
        opts: &SearchOptions,
    ) -> Result<Subject<'static>, CompileError> {
        let opened = Instant::now();
        let (sess, label) = match &oracle {
            Oracle::Reference { kernel } => {
                let src = hil_source(kernel.op, kernel.prec);
                (CompileSession::from_source(&src, machine)?, kernel.name())
            }
            // Arbitrary sources have no registry name: scope the cache by
            // routine name plus a content hash, so two different bodies
            // never collide.
            Oracle::Baseline { src } => {
                let sess = CompileSession::from_source(src, machine)?;
                let label = format!("hil:{}#{:016x}", sess.ir().name, fnv64(src.as_bytes()));
                (sess, label)
            }
        };
        let subject = Subject {
            opened: Mutex::new(Some((opened, opened.elapsed()))),
            sess: Session::Own(Box::new(sess)),
            scope: EvalScope::new(label, machine, context, n, seed, &opts.timer),
            machine: machine.clone(),
            context,
            opts: opts.clone(),
            oracle,
            bench: Mutex::new(None),
            runs: Mutex::default(),
            baseline_runs: AtomicU64::new(0),
        };
        subject.bench()?;
        Ok(subject)
    }
}

impl<'s> Subject<'s> {
    /// A BLAS-suite kernel on a session and workload the caller already
    /// has (scope seed 0: the caller generated the workload). It is
    /// searched, never tuned through the driver, so never trimmed.
    pub(crate) fn on_session(
        sess: &'s CompileSession,
        kernel: Kernel,
        workload: &Workload,
        context: Context,
        machine: &MachineConfig,
        opts: &SearchOptions,
    ) -> Subject<'s> {
        Subject {
            sess: Session::Lent(sess),
            scope: EvalScope::new(kernel.name(), machine, context, workload.n, 0, &opts.timer),
            machine: machine.clone(),
            context,
            opts: opts.clone(),
            oracle: Oracle::Reference { kernel },
            bench: Mutex::new(Some(Arc::new(suite(kernel, workload.clone())))),
            runs: Mutex::default(),
            opened: Mutex::new(None),
            baseline_runs: AtomicU64::new(0),
        }
    }

    /// The static cost model's cycles for `p`. Locality follows the
    /// timing context: out-of-cache streams from memory, the in-L2
    /// context is bounded by the L2 side of the model.
    pub(crate) fn predict(&self, p: &TransformParams) -> Option<u64> {
        let locality = match self.context {
            Context::OutOfCache => Locality::Mem,
            Context::InL2 => Locality::L2,
        };
        self.sess
            .predict(p, &self.machine)
            .ok()
            .map(|pred| pred.predicted_cycles(self.scope.n as u64, locality))
    }

    /// The open no tune has reported yet: `Some` for the first tune only.
    pub(crate) fn take_open(&self) -> Option<(Instant, Duration)> {
        lock(&self.opened).take()
    }

    /// The bench, derived from (kernel or source, n, seed) if the subject
    /// holds none: a source's by compiling it with every transformation
    /// off and running that once.
    fn bench(&self) -> Result<Arc<Bench>, CompileError> {
        let mut held = lock(&self.bench);
        if let Some(bench) = &*held {
            return Ok(Arc::clone(bench));
        }
        let (n, seed) = (self.scope.n, self.scope.seed);
        let bench = match &self.oracle {
            Oracle::Reference { kernel } => suite(*kernel, Workload::generate(n, seed)),
            Oracle::Baseline { .. } => {
                let off = TransformParams::off();
                let base = self.sess.compile(&off, CompileOpts::default())?;
                let workload = GenericWorkload::for_kernel(&base, n, seed);
                let outputs = run_generic(&base, &workload, self.context, &self.machine)
                    .map_err(CompileError::codegen)?;
                self.baseline_runs.fetch_add(1, Ordering::Relaxed);
                let truth = Truth::Baseline(outputs);
                Bench { workload, truth }
            }
        };
        Ok(Arc::clone(held.insert(Arc::new(bench))))
    }

    /// Simulate `compiled`, the program of point `p`, on the bench and
    /// judge its outputs — once per normalized point. A run is a pure
    /// function of (program, operands, context, machine), and equal
    /// normalized points compile to one program, so every later call for
    /// the point returns what the first one found, waiting while it runs.
    /// Only the call that runs emits `simulate` and `test` spans under
    /// `span` and counts the simulation on `engine`.
    pub(crate) fn run(
        &self,
        p: &TransformParams,
        compiled: &CompiledKernel,
        span: Option<&Span>,
        engine: Option<&EvalEngine>,
    ) -> Result<Ran, String> {
        let cell = Arc::clone(lock(&self.runs).entry(normalized(p)).or_default());
        let ran = cell.get_or_init(|| {
            let bench = self.bench().map_err(|e| e.to_string())?;
            let w = &bench.workload;
            // Each oracle keeps the memory image its entry point has always
            // sized (`run_once` / `run_generic`): the pooled image grows
            // whenever a run asks for more than it holds, so one size for
            // both would move peak RSS.
            let (slots, ret) = match &self.oracle {
                Oracle::Reference { kernel } => (2, check_ret(*kernel, compiled)),
                Oracle::Baseline { .. } => (w.vectors.len() + 1, Ok(())),
            };
            let ops = Operands {
                n: w.n,
                vectors: &w.vectors,
                scalars: &w.scalars,
                capacity: image_bytes(w.n, compiled.prec, slots),
            };
            let sim_span = span.map(|s| s.child("simulate"));
            let out = simulate(compiled, &ops, self.context, &self.machine);
            drop(sim_span);
            if let Some(engine) = engine {
                engine.count_simulation();
            }
            let out = out.and_then(|out| ret.map(|()| out)).map_err(|e| e.0)?;
            let _test_span = span.map(|s| s.child("test"));
            let verdict = match &bench.truth {
                Truth::Expected(expected) => expected.check(&out).map_err(|e| e.0),
                Truth::Baseline(base) if outputs_agree(&out, base, compiled.prec, w.n) => Ok(()),
                Truth::Baseline(_) => Err("outputs differ from the untransformed baseline".into()),
            };
            let stats = out.stats;
            Ok(Ran { stats, verdict })
        });
        ran.clone()
    }

    /// Shrink the subject to what a warm tune of it reads: the winner's
    /// compiled program and its run. Every other program and run, the
    /// session's scratch buffers and the bench go, so what stays resident
    /// does not grow with `n`; the next run that needs the bench derives
    /// it again.
    pub(crate) fn trim(&self, winner: &TransformParams) {
        self.sess.retain(winner);
        let winner = normalized(winner);
        let mut runs = lock(&self.runs);
        runs.retain(|p, _| *p == winner);
        runs.shrink_to_fit();
        *lock(&self.bench) = None;
    }

    /// Chaos: a stage may fail transiently. Draw the plan's decision for
    /// each attempt, sleeping its backoff before the next one; `false`
    /// once the retry budget is spent without a clean attempt. Faults and
    /// retries are tallied on `rec`.
    fn ride_out(
        &self,
        chaos: Option<(&FaultPlan, &str)>,
        fails: fn(&FaultPlan, &str, u32) -> bool,
        rec: &mut EvalRecord,
    ) -> bool {
        let Some((plan, key)) = chaos else {
            return true;
        };
        let mut attempt = 0u32;
        while fails(plan, key, attempt) {
            rec.faults += 1;
            if attempt >= self.opts.max_retries {
                return false;
            }
            rec.retries += 1;
            std::thread::sleep(plan.backoff(attempt));
            attempt += 1;
        }
        true
    }

    /// Evaluate one parameter point: compile (stage-attributed spans) →
    /// run → time, in that order, each stage once.
    ///
    /// The candidate's program is simulated **once per subject**
    /// ([`Subject::run`]): that run's verdict is the tester's, its
    /// counters travel with the record, and its cycle count is what the
    /// timing stage reads. Spans go to `engine`'s trace sink under the
    /// `search_id` span and a simulation bumps its
    /// `ifko_engine_simulations_total`; a worker process has no engine
    /// and passes `None`. A candidate that never gets a clean attempt
    /// under the chaos plan is *failed* (skipped, not cached), never a
    /// panic.
    pub(crate) fn evaluate(
        &self,
        p: &TransformParams,
        engine: Option<&EvalEngine>,
        search_id: u64,
    ) -> EvalRecord {
        let sink = engine.and_then(|e| e.trace().cloned());
        let key = self.scope.key();
        let eval_span = Span::with_parent(sink.clone(), key, "eval", Some(search_id));
        // Fault decisions key on the full point key, so every candidate
        // draws its own independent fault stream (computed only under a
        // chaos plan — the clean path never pays for it).
        let fkey = self.opts.faults.as_ref().map(|_| self.scope.point_key(p));
        let chaos = self.opts.faults.as_ref().zip(fkey.as_deref());
        let mut rec = EvalRecord::default();

        if !self.ride_out(chaos, FaultPlan::compile_fails, &mut rec) {
            return EvalRecord::failed(rec.retries, rec.faults);
        }

        // Compile, attributing time to the FKO pipeline stages.
        let compile_span = eval_span.child("compile");
        let compile_id = compile_span.id();
        let mut stages: Vec<(&'static str, Duration)> = Vec::new();
        let mut observe = |stage: &'static str, wall: Duration| stages.push((stage, wall));
        let compiled = self.sess.compile(
            p,
            CompileOpts::observed(cfg!(debug_assertions) || self.opts.verify_ir, &mut observe),
        );
        drop(compile_span);
        for (stage, wall) in stages {
            Span::emit(&sink, key, stage, Some(compile_id), wall);
        }
        let Ok(compiled) = compiled else {
            return rec;
        };

        // The candidate's run and the tester's verdict on it (the paper's
        // tester step). The harness may flake under chaos — a spurious
        // failure on a kernel that just verified — and the verdict is then
        // read again until a clean attempt or the budget is out.
        let Ok(ran) = self.run(p, &compiled, Some(&eval_span), engine) else {
            return rec;
        };
        let stats = ran.stats;
        rec.stats = Some(stats);
        if ran.verdict.is_err() {
            return rec;
        }
        if !self.ride_out(chaos, FaultPlan::tester_flakes, &mut rec) {
            return EvalRecord::failed(rec.retries, rec.faults);
        }

        // Time. The span covers statistics only: the timer's repetitions
        // are draws over `stats.cycles`, not re-runs.
        let _time_span = eval_span.child("time");
        match &self.oracle {
            Oracle::Reference { .. } => {
                let t = self
                    .opts
                    .timer
                    .robust_from(stats.cycles, &compiled.name, chaos);
                rec.cycles = Some(t.cycles);
                rec.retries += t.retimed;
                rec.faults += t.injected;
                rec.outliers = t.outliers_rejected;
            }
            // A `.hil` candidate's time is its run's exact cycle count: no
            // timer interference, no timer faults, no outliers. That the
            // two oracles time differently is drift, but it is pinned —
            // the system benchmark replays `.hil` tunes untimed
            // (`benchmark/src/staged.rs::replay_hil`) and fails the run
            // if the winner or the probe counts differ, and every stored
            // `TunedRecord.cycles` of a `.hil` tune is such a count.
            Oracle::Baseline { .. } => rec.cycles = Some(stats.cycles),
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TuneConfig;

    const WAXPBY: &str = include_str!("../../../kernels/waxpby.hil");

    /// A suite kernel and a `.hil` source, each opened under `cfg`.
    fn opened(cfg: &TuneConfig) -> Vec<crate::config::Opened> {
        let ddot = Kernel::by_name("ddot").expect("ddot is a suite kernel");
        vec![cfg.open(ddot).unwrap(), cfg.open_source(WAXPBY).unwrap()]
    }

    /// After a tune, a subject holds the winner's compiled program and
    /// its run, and no operands: what stays resident does not grow with n.
    #[test]
    fn a_tuned_subject_keeps_one_program_one_run_and_no_operands() {
        let cfg = TuneConfig::quick(512);
        for subject in opened(&cfg) {
            let best = cfg.tune_opened(&subject).unwrap().result.best;
            let s = &subject.0;
            assert_eq!(s.sess.cached_points(), 1, "{}", s.scope.key());
            let runs = lock(&s.runs);
            assert_eq!(runs.len(), 1, "{}", s.scope.key());
            assert!(runs.contains_key(&normalized(&best)));
            assert!(lock(&s.bench).is_none(), "{}", s.scope.key());
        }
    }

    /// A trimmed subject made to evaluate a point it no longer holds
    /// derives its operands again and judges the point exactly as a
    /// freshly opened subject does.
    #[test]
    fn a_trimmed_subject_evaluates_like_a_fresh_one() {
        let cfg = TuneConfig::quick(512);
        let point = TransformParams::off();
        for (trimmed, fresh) in opened(&cfg).into_iter().zip(opened(&cfg)) {
            cfg.tune_opened(&trimmed).unwrap();
            let (t, f) = (&trimmed.0, &fresh.0);
            let baselines = t.baseline_runs.load(Ordering::Relaxed);
            let got = t.evaluate(&point, None, 0);
            assert!(lock(&t.bench).is_some(), "{}", t.scope.key());
            let rerun = matches!(t.oracle, Oracle::Baseline { .. }) as u64;
            assert_eq!(t.baseline_runs.load(Ordering::Relaxed), baselines + rerun);
            let want = f.evaluate(&point, None, 0);
            assert!(want.cycles.is_some(), "{}", t.scope.key());
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", t.scope.key());
        }
    }
}
