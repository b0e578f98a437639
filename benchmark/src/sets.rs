//! The tune sets (`OC`, `IC`), one real tune through `TuneConfig`, and
//! the output checks on its winner.

use crate::spec::Scale;
use ifko::eval::MemSink;
use ifko::generic::{run_generic, GenericWorkload};
use ifko::runner::{run_once, Context, KernelArgs};
use ifko::worker::WorkerLauncher;
use ifko::TuneConfig;
use ifko_blas::{reference, Kernel, Workload, ALL_KERNELS};
use ifko_fko::{CompiledKernel, TransformParams};
use ifko_xsim::{opteron, p4e, MachineConfig};
use std::sync::Arc;
use std::time::Instant;

/// The three user kernels of `kernels/*.hil`, tuned through the generic
/// (differentially verified) path.
pub const HIL_KERNELS: [(&str, &str); 3] = [
    ("ddot.hil", include_str!("../../kernels/ddot.hil")),
    ("snrm2.hil", include_str!("../../kernels/snrm2.hil")),
    ("waxpby.hil", include_str!("../../kernels/waxpby.hil")),
];

#[derive(Clone, Copy)]
pub enum Subject {
    Blas(Kernel),
    Hil(&'static str, &'static str),
}

impl Subject {
    pub fn name(&self) -> String {
        match self {
            Subject::Blas(k) => k.name(),
            Subject::Hil(name, _) => name.to_string(),
        }
    }
}

/// One tune of the set.
#[derive(Clone)]
pub struct TuneSpec {
    pub subject: Subject,
    pub machine: MachineConfig,
    pub context: Context,
    pub n: usize,
}

impl TuneSpec {
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}",
            self.machine.name,
            self.context.label(),
            self.subject.name()
        )
    }
}

fn set_on(machine: MachineConfig, context: Context, n: usize) -> Vec<TuneSpec> {
    let blas = ALL_KERNELS.iter().map(|k| Subject::Blas(*k));
    let hil = HIL_KERNELS
        .iter()
        .map(|(name, src)| Subject::Hil(name, src));
    blas.chain(hil)
        .map(|subject| TuneSpec {
            subject,
            machine: machine.clone(),
            context,
            n,
        })
        .collect()
}

/// `OC`: the 14 suite kernels and the 3 `.hil` kernels on the P4E, out
/// of cache.
pub fn oc_set(scale: &Scale) -> Vec<TuneSpec> {
    set_on(p4e(), Context::OutOfCache, scale.oc_n)
}

/// `IC`: the same 17 kernels on both machines, in L2.
pub fn ic_set(scale: &Scale) -> Vec<TuneSpec> {
    let mut set = set_on(p4e(), Context::InL2, scale.ic_n);
    set.extend(set_on(opteron(), Context::InL2, scale.ic_n));
    set
}

/// How a tune's candidate batches are evaluated.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Pool {
    Serial,
    Jobs(usize),
    Workers(usize),
}

impl Pool {
    /// Threads or processes evaluating at once.
    pub fn width(self) -> usize {
        match self {
            Pool::Serial => 1,
            Pool::Jobs(n) | Pool::Workers(n) => n,
        }
    }
}

/// What one tune produced, reduced to what the benchmark compares.
#[derive(Clone, Debug)]
pub struct TuneOut {
    pub id: String,
    pub best: TransformParams,
    pub best_cycles: u64,
    pub default_cycles: u64,
    pub fresh: u32,
    pub cache_hits: u32,
    pub pruned: u32,
    /// Static instructions of the recompiled winner.
    pub insts: usize,
    pub wall_s: f64,
}

impl TuneOut {
    pub fn probes(&self) -> u64 {
        self.fresh as u64 + self.cache_hits as u64 + self.pruned as u64
    }
    pub fn speedup(&self) -> f64 {
        self.default_cycles as f64 / self.best_cycles.max(1) as f64
    }
    pub fn winner(&self) -> (String, u64) {
        (format!("{:?}", self.best), self.best_cycles)
    }
}

/// The paper's protocol for one spec: line search, full candidate sets,
/// a fresh evaluation cache (one `TuneConfig::paper()` per tune), no db.
fn config(spec: &TuneSpec, seed: u64, pool: Pool, sink: Option<&Arc<MemSink>>) -> TuneConfig {
    let mut cfg = TuneConfig::paper()
        .machine(spec.machine.clone())
        .context(spec.context)
        .n(spec.n)
        .seed(seed);
    match pool {
        Pool::Serial => {}
        Pool::Jobs(n) => cfg = cfg.jobs(n),
        Pool::Workers(n) => cfg = cfg.workers(n).worker_launcher(worker_launcher()),
    }
    if let Some(sink) = sink {
        cfg = cfg.trace(sink.clone());
    }
    cfg
}

/// This binary, re-run as `... worker`, speaks the worker protocol.
pub fn worker_launcher() -> WorkerLauncher {
    let exe = std::env::current_exe().expect("the running binary has a path");
    WorkerLauncher::new(exe).arg("worker")
}

/// Run one real tune. The wall time covers exactly the `TuneConfig` call.
pub fn run_tune(
    spec: &TuneSpec,
    seed: u64,
    pool: Pool,
    sink: Option<&Arc<MemSink>>,
) -> Result<(TuneOut, CompiledKernel), String> {
    let cfg = config(spec, seed, pool, sink);
    let t0 = Instant::now();
    let (result, compiled) = match spec.subject {
        Subject::Blas(k) => {
            let out = cfg.tune(k).map_err(|e| e.to_string())?;
            (out.result, out.compiled)
        }
        Subject::Hil(_, src) => {
            let out = cfg.tune_source(src).map_err(|e| e.to_string())?;
            (out.result, out.compiled)
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let out = TuneOut {
        id: spec.id(),
        best: result.best,
        best_cycles: result.best_cycles,
        default_cycles: result.default_cycles,
        fresh: result.evaluations,
        cache_hits: result.cache_hits,
        pruned: result.pruned,
        insts: compiled.program.len(),
        wall_s,
    };
    Ok((out, compiled))
}

/// Inputs for the winner checks, generated once per run from `--seed`
/// (the same data the tunes themselves generate from it).
pub struct CheckInputs {
    seed: u64,
    blas: Vec<(usize, Workload)>,
}

impl CheckInputs {
    pub fn new(set: &[TuneSpec], seed: u64) -> CheckInputs {
        let mut blas: Vec<(usize, Workload)> = Vec::new();
        for spec in set {
            if matches!(spec.subject, Subject::Blas(_)) && !blas.iter().any(|(n, _)| *n == spec.n) {
                blas.push((spec.n, Workload::generate(spec.n, seed)));
            }
        }
        CheckInputs { seed, blas }
    }

    fn workload(&self, n: usize) -> &Workload {
        let found = self.blas.iter().find(|(m, _)| *m == n);
        &found
            .expect("a workload was generated for every set size")
            .1
    }

    /// Check a tune's winner: the recompiled kernel must reproduce the
    /// reference outputs, and must not be slower than FKO's defaults.
    pub fn check(
        &self,
        spec: &TuneSpec,
        out: &TuneOut,
        compiled: &CompiledKernel,
    ) -> Result<(), String> {
        if out.best_cycles > out.default_cycles {
            return Err(format!(
                "{}: winner ({} cycles) slower than defaults ({})",
                out.id, out.best_cycles, out.default_cycles
            ));
        }
        match spec.subject {
            Subject::Blas(kernel) => {
                let w = self.workload(spec.n);
                let args = KernelArgs {
                    kernel,
                    workload: w,
                    context: spec.context,
                };
                let got = run_once(compiled, &args, &spec.machine).map_err(|e| e.to_string())?;
                ifko::tester::verify(kernel, w, &got).map_err(|e| format!("{}: {e}", out.id))
            }
            Subject::Hil(name, _) => {
                let w = GenericWorkload::for_kernel(compiled, spec.n, self.seed);
                let got = run_generic(compiled, &w, spec.context, &spec.machine)?;
                check_hil(name, &w, got.ret_f, &got.vectors).map_err(|e| format!("{}: {e}", out.id))
            }
        }
    }
}

/// Rust references for the three `.hil` kernels, written here so the
/// check never rests on the compiler under test.
fn check_hil(
    name: &str,
    w: &GenericWorkload,
    ret_f: f64,
    vectors: &[Vec<f64>],
) -> Result<(), String> {
    let n = w.n.max(4) as f64;
    let close = |got: f64, want: f64, eps: f64| {
        (got - want).abs() <= eps * n.sqrt() * 16.0 * want.abs().max(1.0)
    };
    match name {
        "ddot.hil" => {
            let want = reference::dot(&w.vectors[0], &w.vectors[1]);
            if close(ret_f, want, f64::EPSILON) {
                Ok(())
            } else {
                Err(format!("dot: got {ret_f}, want {want}"))
            }
        }
        "snrm2.hil" => {
            let x: Vec<f32> = w.vectors[0].iter().map(|&v| v as f32).collect();
            let want = reference::nrm2_f32(&x) as f64;
            if close(ret_f, want, f32::EPSILON as f64) {
                Ok(())
            } else {
                Err(format!("nrm2: got {ret_f}, want {want}"))
            }
        }
        "waxpby.hil" => {
            let (x, y, got) = (&w.vectors[0], &w.vectors[1], &vectors[2]);
            let alpha = w.scalars[0];
            match (0..w.n).find(|&i| (got[i] - (alpha * x[i] + y[i])).abs() > 1e-12) {
                None => Ok(()),
                Some(i) => Err(format!("waxpby: element {i} is {}", got[i])),
            }
        }
        other => Err(format!("no reference for {other}")),
    }
}
