//! The one evaluation path: a [`Subject`] is what is being tuned, and
//! [`Subject::evaluate`] is the only code that turns a parameter point
//! into an [`EvalRecord`].
//!
//! The paper's Figure 1 has one inner loop — the search hands a point to
//! the compiler, the tester and the timer — and its long-range goal is
//! that an arbitrary HIL kernel goes through that same loop with only the
//! tester swapped. Here that is literal: a subject carries its compile
//! session, its evaluation scope, one operand set and an [`Oracle`] that
//! is a verdict and nothing else. The staged function below
//! (chaos-compile retry → compile → one simulation → test → time)
//! consults the oracle at exactly three points — `simulate` (image size
//! and return check), `test`, and the `time` stage — and the tune driver
//! at one more, its final report. The in-process
//! engine (through [`crate::strategy::run_search`]), `ifko worker`
//! (through [`crate::worker::serve`]) and, by way of
//! [`TuneConfig`](crate::TuneConfig), `ifkod` all call it, so a candidate
//! is judged in one place wherever it runs.

use crate::eval::{fnv64, EvalEngine, EvalRecord, EvalScope, Span};
use crate::fault::FaultPlan;
use crate::generic::{outputs_agree, run_generic, GenericWorkload};
use crate::runner::{check_ret, image_bytes, simulate, Context, Operands, Outputs};
use crate::search::SearchOptions;
use crate::tester::Expected;
use ifko_blas::hil_src::hil_source;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{
    CompileError, CompileOpts, CompileSession, CompiledKernel, Locality, TransformParams,
};
use ifko_xsim::isa::Prec;
use ifko_xsim::MachineConfig;
use std::time::{Duration, Instant};

/// How a candidate's outputs are judged and its time is taken — the only
/// thing that differs between a suite kernel and a `.hil` source.
pub(crate) enum Oracle {
    /// A BLAS-suite kernel: outputs are checked against what the Rust
    /// reference makes of the workload ([`Expected`], computed when the
    /// subject is opened), the kernel must return in the slot its op
    /// returns in, and the run's cycle count goes through the search
    /// timer's statistics.
    Reference {
        kernel: Kernel,
        expected: Expected<'static>,
    },
    /// An arbitrary HIL source: outputs are compared against those of the
    /// same kernel compiled with every transformation off, and the run's
    /// exact cycle count is the candidate's time.
    Baseline {
        src: String,
        prec: Prec,
        baseline: Outputs,
    },
}

/// A suite kernel's operands and oracle. The reference runs on the
/// workload first; then its vectors move (not copy) into the operand set
/// `run_once` binds: `[x, y][..n_vectors]` and `[alpha, beta]`.
fn suite(kernel: Kernel, w: Workload) -> (GenericWorkload, Oracle) {
    let expected = Expected::of(kernel, &w).into_owned();
    let mut vectors = vec![w.x, w.y];
    vectors.truncate(kernel.op.n_vectors());
    let workload = GenericWorkload {
        n: w.n,
        vectors,
        scalars: vec![w.alpha, w.beta],
    };
    (workload, Oracle::Reference { kernel, expected })
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
/// the operands every candidate runs on, and the [`Oracle`] that judges
/// and times candidates.
pub(crate) struct Subject<'s> {
    pub(crate) sess: Session<'s>,
    pub(crate) scope: EvalScope,
    pub(crate) machine: MachineConfig,
    pub(crate) context: Context,
    pub(crate) opts: SearchOptions,
    pub(crate) workload: GenericWorkload,
    pub(crate) oracle: Oracle,
    /// When the session was opened and how long the front end (parse,
    /// lowering, analysis) took. The tune driver starts its root `tune`
    /// span there and hangs the `parse` span off it: every span carries
    /// the scope key, and a `.hil` subject's key is only known once its
    /// source has been parsed.
    pub(crate) opened: Instant,
    pub(crate) parse_wall: Duration,
}

impl Subject<'static> {
    /// A BLAS-suite kernel at size `n` on a workload seeded with `seed`.
    pub(crate) fn blas(
        kernel: Kernel,
        machine: &MachineConfig,
        context: Context,
        n: usize,
        seed: u64,
        opts: &SearchOptions,
    ) -> Result<Subject<'static>, CompileError> {
        let opened = Instant::now();
        let sess = CompileSession::from_source(&hil_source(kernel.op, kernel.prec), machine)?;
        let (workload, oracle) = suite(kernel, Workload::generate(n, seed));
        Ok(Subject {
            parse_wall: opened.elapsed(),
            sess: Session::Own(Box::new(sess)),
            scope: EvalScope::new(kernel.name(), machine, context, n, seed, &opts.timer),
            machine: machine.clone(),
            context,
            opts: opts.clone(),
            workload,
            oracle,
            opened,
        })
    }

    /// An arbitrary HIL source, verified differentially: opening it
    /// compiles the source with every transformation off and runs that
    /// once to establish the baseline outputs.
    pub(crate) fn source(
        src: &str,
        machine: &MachineConfig,
        context: Context,
        n: usize,
        seed: u64,
        opts: &SearchOptions,
    ) -> Result<Subject<'static>, CompileError> {
        let opened = Instant::now();
        let sess = CompileSession::from_source(src, machine)?;
        let parse_wall = opened.elapsed();
        let base = sess.compile(&TransformParams::off(), CompileOpts::default())?;
        let workload = GenericWorkload::for_kernel(&base, n, seed);
        let baseline =
            run_generic(&base, &workload, context, machine).map_err(CompileError::codegen)?;
        // Arbitrary sources have no registry name: scope the cache by
        // routine name plus a content hash, so two different bodies
        // never collide.
        let label = format!("hil:{}#{:016x}", sess.ir().name, fnv64(src.as_bytes()));
        Ok(Subject {
            scope: EvalScope::new(label, machine, context, n, seed, &opts.timer),
            sess: Session::Own(Box::new(sess)),
            machine: machine.clone(),
            context,
            opts: opts.clone(),
            workload,
            oracle: Oracle::Baseline {
                src: src.to_string(),
                prec: base.prec,
                baseline,
            },
            opened,
            parse_wall,
        })
    }
}

impl<'s> Subject<'s> {
    /// A BLAS-suite kernel on a session and workload the caller already
    /// has (scope seed 0: the caller generated the workload).
    pub(crate) fn on_session(
        sess: &'s CompileSession,
        kernel: Kernel,
        workload: &Workload,
        context: Context,
        machine: &MachineConfig,
        opts: &SearchOptions,
    ) -> Subject<'s> {
        let scope = EvalScope::new(kernel.name(), machine, context, workload.n, 0, &opts.timer);
        let (workload, oracle) = suite(kernel, workload.clone());
        Subject {
            sess: Session::Lent(sess),
            scope,
            machine: machine.clone(),
            context,
            opts: opts.clone(),
            workload,
            oracle,
            opened: Instant::now(),
            parse_wall: Duration::ZERO,
        }
    }

    /// Element precision of the kernel (part of the tuned-db key).
    pub(crate) fn prec(&self) -> Prec {
        match &self.oracle {
            Oracle::Reference { kernel, .. } => kernel.prec,
            Oracle::Baseline { prec, .. } => *prec,
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

    /// One simulation of `compiled` on the subject's operands.
    pub(crate) fn simulate(&self, compiled: &CompiledKernel) -> Result<Outputs, String> {
        let w = &self.workload;
        // Each oracle keeps the memory image its entry point has always
        // sized (`run_once` / `run_generic`): the pooled image grows
        // whenever a run asks for more than it holds, so one size for
        // both would move peak RSS.
        let slots = match &self.oracle {
            Oracle::Reference { .. } => 2,
            Oracle::Baseline { .. } => w.vectors.len() + 1,
        };
        let ops = Operands {
            n: w.n,
            vectors: &w.vectors,
            scalars: &w.scalars,
            capacity: image_bytes(w.n, compiled.prec, slots),
        };
        let out = simulate(compiled, &ops, self.context, &self.machine).map_err(|e| e.0)?;
        if let Oracle::Reference { kernel, .. } = &self.oracle {
            check_ret(*kernel, compiled).map_err(|e| e.0)?;
        }
        Ok(out)
    }

    /// The oracle's verdict on one run's outputs.
    pub(crate) fn test(&self, out: &Outputs) -> Result<(), String> {
        match &self.oracle {
            Oracle::Reference { expected, .. } => expected.check(out).map_err(|e| e.0),
            Oracle::Baseline { prec, baseline, .. } => {
                if outputs_agree(out, baseline, *prec, self.workload.n) {
                    Ok(())
                } else {
                    Err("outputs differ from the untransformed baseline".to_string())
                }
            }
        }
    }

    /// Chaos: a stage may fail transiently. Draw the plan's decision for
    /// each attempt, sleeping its backoff and calling `redo` before the
    /// next one; `false` once the retry budget is spent without a clean
    /// attempt. Faults and retries are tallied on `rec`.
    fn ride_out(
        &self,
        chaos: Option<(&FaultPlan, &str)>,
        fails: fn(&FaultPlan, &str, u32) -> bool,
        rec: &mut EvalRecord,
        redo: impl Fn(),
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
            redo();
            attempt += 1;
        }
        true
    }

    /// Evaluate one parameter point: compile (stage-attributed spans) →
    /// simulate → test → time, in that order, each stage once.
    ///
    /// The candidate is simulated **once**: that run's outputs feed the
    /// tester, its counters travel with the record, and its cycle count
    /// is what the timing stage reads. Spans go to `engine`'s trace sink
    /// under the `search_id` span and the simulation bumps its
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

        if !self.ride_out(chaos, FaultPlan::compile_fails, &mut rec, || ()) {
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

        // The candidate's one simulation.
        let sim_span = eval_span.child("simulate");
        let out = self.simulate(&compiled);
        drop(sim_span);
        if let Some(engine) = engine {
            engine.count_simulation();
        }
        let Ok(out) = out else {
            return rec;
        };
        let stats = out.stats;
        rec.stats = Some(stats);

        // Test (the paper's tester step). The harness may flake under
        // chaos — a spurious failure on a kernel that just verified —
        // and is then re-run until a clean verdict or the budget is out.
        {
            let _test_span = eval_span.child("test");
            if self.test(&out).is_err() {
                return rec;
            }
            let retest = || {
                let _ = self.test(&out);
            };
            if !self.ride_out(chaos, FaultPlan::tester_flakes, &mut rec, retest) {
                return EvalRecord::failed(rec.retries, rec.faults);
            }
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
