//! The traced run's instruments: an in-memory span recorder, and a
//! *staged replay* of one tune built only from public layer calls
//! (`predict` -> `compile` -> `run_once` -> `verify` -> `time_robust`), so
//! every layer's time is measured from outside the program.
//!
//! The replay drives `line_search_batched` with the same legality
//! precheck and the same point memo the evaluation engine applies, so it
//! submits the same probes and must find the same winner as the real
//! `TuneConfig` tune; the caller checks that it does.

use crate::sets::{Subject, TuneSpec};
use ifko::generic::{run_generic, GenericOutputs, GenericWorkload};
use ifko::runner::{run_once, KernelArgs};
use ifko::search::{line_search_batched, SearchOptions};
use ifko::timer::Timer;
use ifko_blas::hil_src::hil_source;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{precheck, CompileOpts, CompileSession, TransformParams};
use ifko_xsim::isa::Prec;
use std::collections::HashMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `tune` is 0 for spans outside any tune.
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub tune: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans held in memory and written out when the run ends.
pub struct Spans {
    t0: Instant,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.recs
            .lock()
            .expect("no span is recorded while panicking")
    }

    /// Start a span; the returned id is its handle and its children's
    /// `parent`.
    pub fn open(&self, name: &'static str, parent: Option<u32>, tune: u32) -> u32 {
        let start_ns = self.now_ns();
        let mut recs = self.lock();
        let id = recs.len() as u32;
        recs.push(SpanRec {
            id,
            parent,
            tune,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        self.lock()[id as usize].end_ns = end_ns;
    }

    /// Record a span around one call.
    pub fn call<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        tune: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, tune);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name, in seconds: a span's duration minus the
    /// part its child spans cover.
    pub fn self_times(&self) -> HashMap<&'static str, f64> {
        let recs = self.lock();
        let mut covered = vec![0u64; recs.len()];
        for r in recs.iter() {
            if let Some(p) = r.parent {
                covered[p as usize] += r.end_ns - r.start_ns;
            }
        }
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        for r in recs.iter() {
            let own = (r.end_ns - r.start_ns).saturating_sub(covered[r.id as usize]);
            *out.entry(r.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in self.lock().iter() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{parent},\"tune\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.id, r.tune, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

/// The stages the replay records, and the metric reporting each one's
/// self time.
pub const STAGES: [(&str, &str); 6] = [
    ("open", "trace.open_s"),
    ("predict", "trace.predict_s"),
    ("compile", "trace.compile_s"),
    ("simulate", "trace.simulate_s"),
    ("test", "trace.test_s"),
    ("time", "trace.time_s"),
];

/// What a replayed tune found.
pub struct Replayed {
    pub winner: (String, u64),
    pub fresh: u32,
    /// 1-based position of the probe that first produced the winner.
    pub probes_to_winner: u64,
}

/// Replay `spec`'s tune, recording spans under tune id `tune`.
pub fn replay(spans: &Spans, tune: u32, spec: &TuneSpec, seed: u64) -> Result<Replayed, String> {
    let root = spans.open("tune", None, tune);
    let out = match spec.subject {
        Subject::Blas(kernel) => replay_blas(spans, root, tune, spec, kernel, seed),
        Subject::Hil(_, src) => replay_hil(spans, root, tune, spec, src, seed),
    };
    spans.close(root);
    out
}

/// Every probe the search submits goes through here, exactly as through
/// the engine: pruned if the precheck rejects it, answered from the memo
/// if seen before, otherwise evaluated fresh by `eval`.
struct Probes<'a> {
    spans: &'a Spans,
    tune: u32,
    search: u32,
    sess: &'a CompileSession,
    spec: &'a TuneSpec,
    memo: HashMap<String, Option<u64>>,
    log: Vec<(String, Option<u64>)>,
    fresh: u32,
}

impl Probes<'_> {
    fn submit(
        &mut self,
        cands: &[TransformParams],
        eval: &dyn Fn(&Spans, u32, &TransformParams) -> Option<u64>,
    ) -> Vec<Option<u64>> {
        cands
            .iter()
            .map(|p| {
                let key = format!("{p:?}");
                let cycles = if precheck(p, self.sess.report()).is_err() {
                    None
                } else {
                    // The engine's cost-model hook predicts every legal
                    // candidate, cached or not.
                    self.spans
                        .call("predict", Some(self.search), self.tune, || {
                            let _ = self.sess.predict(p, &self.spec.machine);
                        });
                    match self.memo.get(&key) {
                        Some(hit) => *hit,
                        None => {
                            let id = self.spans.open("eval", Some(self.search), self.tune);
                            let c = eval(self.spans, id, p);
                            self.spans.close(id);
                            self.fresh += 1;
                            self.memo.insert(key.clone(), c);
                            c
                        }
                    }
                };
                self.log.push((key, cycles));
                cycles
            })
            .collect()
    }
}

/// Run the line search under a `search` span of `root`, every probe
/// through [`Probes::submit`].
fn line_search(
    spans: &Spans,
    root: u32,
    tune: u32,
    sess: &CompileSession,
    spec: &TuneSpec,
    eval: &dyn Fn(&Spans, u32, &TransformParams) -> Option<u64>,
) -> (TransformParams, Replayed) {
    let search = spans.open("search", Some(root), tune);
    let mut probes = Probes {
        spans,
        tune,
        search,
        sess,
        spec,
        memo: HashMap::new(),
        log: Vec::new(),
        fresh: 0,
    };
    let opts = SearchOptions::default();
    let r = line_search_batched(sess.report(), &spec.machine, &opts, |_phase, cands| {
        probes.submit(cands, eval)
    });
    spans.close(search);
    let winner = (format!("{:?}", r.best), r.best_cycles);
    let first = probes
        .log
        .iter()
        .position(|(k, c)| *k == winner.0 && *c == Some(winner.1));
    let replayed = Replayed {
        winner,
        fresh: probes.fresh,
        probes_to_winner: first.map_or(0, |i| i as u64 + 1),
    };
    (r.best, replayed)
}

fn replay_blas(
    spans: &Spans,
    root: u32,
    tune: u32,
    spec: &TuneSpec,
    kernel: Kernel,
    seed: u64,
) -> Result<Replayed, String> {
    let machine = &spec.machine;
    let (sess, workload) = spans.call("open", Some(root), tune, || {
        let src = hil_source(kernel.op, kernel.prec);
        let sess = CompileSession::from_source(&src, machine);
        (sess, Workload::generate(spec.n, seed))
    });
    let sess = sess.map_err(|e| e.to_string())?;
    let args = KernelArgs {
        kernel,
        workload: &workload,
        context: spec.context,
    };
    let timer = SearchOptions::default().timer;
    let verify_ir = cfg!(debug_assertions);

    let eval = |spans: &Spans, parent: u32, p: &TransformParams| -> Option<u64> {
        let at = Some(parent);
        let compiled = spans
            .call("compile", at, tune, || {
                sess.compile(p, CompileOpts::verify(verify_ir))
            })
            .ok()?;
        let out = spans
            .call("simulate", at, tune, || run_once(&compiled, &args, machine))
            .ok()?;
        spans
            .call("test", at, tune, || {
                ifko::tester::verify(kernel, &workload, &out)
            })
            .ok()?;
        let timed = spans.call("time", at, tune, || {
            timer.time_robust(&compiled, &args, machine, None)
        });
        timed.ok().map(|t| t.cycles)
    };

    let (best, replayed) = line_search(spans, root, tune, &sess, spec, &eval);

    // What the driver does with the winner: recompile, report it under
    // the paper's min-of-6 timer, and run it once more for its counters.
    let at = Some(root);
    let compiled = spans
        .call("compile", at, tune, || {
            sess.compile(&best, CompileOpts::default())
        })
        .map_err(|e| e.to_string())?;
    spans
        .call("time", at, tune, || {
            Timer::default().time(&compiled, &args, machine)
        })
        .map_err(|e| e.to_string())?;
    spans
        .call("simulate", at, tune, || run_once(&compiled, &args, machine))
        .map_err(|e| e.to_string())?;
    Ok(replayed)
}

/// The generic path's differential tester (private to the program, so
/// restated here): outputs must match the untransformed baseline within
/// a size-scaled tolerance.
fn outputs_agree(a: &GenericOutputs, b: &GenericOutputs, prec: Prec, n: usize) -> bool {
    let eps = match prec {
        Prec::S => f32::EPSILON as f64,
        Prec::D => f64::EPSILON,
    };
    let tol = eps * (n.max(4) as f64).sqrt() * 16.0;
    let close = |x: f64, y: f64| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0);
    a.ret_i == b.ret_i
        && close(a.ret_f, b.ret_f)
        && a.vectors.len() == b.vectors.len()
        && a.vectors
            .iter()
            .zip(&b.vectors)
            .all(|(va, vb)| va.iter().zip(vb).all(|(x, y)| close(*x, *y)))
}

fn replay_hil(
    spans: &Spans,
    root: u32,
    tune: u32,
    spec: &TuneSpec,
    src: &str,
    seed: u64,
) -> Result<Replayed, String> {
    let machine = &spec.machine;
    let opened = spans.call("open", Some(root), tune, || -> Result<_, String> {
        let sess = CompileSession::from_source(src, machine).map_err(|e| e.to_string())?;
        let base = sess
            .compile(&TransformParams::off(), CompileOpts::default())
            .map_err(|e| e.to_string())?;
        let w = GenericWorkload::for_kernel(&base, spec.n, seed);
        let baseline = run_generic(&base, &w, spec.context, machine)?;
        Ok((sess, w, baseline, base.prec))
    });
    let (sess, w, baseline, prec) = opened?;
    let verify_ir = cfg!(debug_assertions);

    let eval = |spans: &Spans, parent: u32, p: &TransformParams| -> Option<u64> {
        let at = Some(parent);
        let compiled = spans
            .call("compile", at, tune, || {
                sess.compile(p, CompileOpts::verify(verify_ir))
            })
            .ok()?;
        let got = spans
            .call("simulate", at, tune, || {
                run_generic(&compiled, &w, spec.context, machine)
            })
            .ok()?;
        let agree = spans.call("test", at, tune, || {
            outputs_agree(&got, &baseline, prec, w.n)
        });
        agree.then_some(got.cycles)
    };

    let (best, replayed) = line_search(spans, root, tune, &sess, spec, &eval);

    let at = Some(root);
    let compiled = spans
        .call("compile", at, tune, || {
            sess.compile(&best, CompileOpts::default())
        })
        .map_err(|e| e.to_string())?;
    spans.call("simulate", at, tune, || {
        run_generic(&compiled, &w, spec.context, machine)
    })?;
    Ok(replayed)
}

/// Replay what the daemon does for one *warm* suite-kernel tune (the
/// stored winner re-verified from the shared cache): open the session,
/// predict the two warm probes, recompile the winner, report it under
/// the paper timer, and run it once for its counters.
pub fn replay_warm(
    spans: &Spans,
    tune: u32,
    spec: &TuneSpec,
    kernel: Kernel,
    best: &TransformParams,
    seed: u64,
) -> Result<(), String> {
    let machine = &spec.machine;
    let root = spans.open("tune", None, tune);
    let at = Some(root);
    let (sess, workload) = spans.call("open", at, tune, || {
        let src = hil_source(kernel.op, kernel.prec);
        let sess = CompileSession::from_source(&src, machine);
        (sess, Workload::generate(spec.n, seed))
    });
    let sess = sess.map_err(|e| e.to_string())?;
    spans.call("predict", at, tune, || {
        let _ = sess.predict(&TransformParams::defaults(sess.report(), machine), machine);
        let _ = sess.predict(best, machine);
    });
    let args = KernelArgs {
        kernel,
        workload: &workload,
        context: spec.context,
    };
    let compiled = spans
        .call("compile", at, tune, || {
            sess.compile(best, CompileOpts::default())
        })
        .map_err(|e| e.to_string())?;
    spans
        .call("time", at, tune, || {
            Timer::default().time(&compiled, &args, machine)
        })
        .map_err(|e| e.to_string())?;
    spans
        .call("simulate", at, tune, || run_once(&compiled, &args, machine))
        .map_err(|e| e.to_string())?;
    spans.close(root);
    Ok(())
}
