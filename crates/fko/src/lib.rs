//! # ifko-fko — FKO, the Floating point Kernel Optimizer
//!
//! FKO is the compiler half of the paper's iFKO framework: a backend
//! specialized for empirical optimization of floating-point kernels. It
//! accepts kernels written in the HIL (see `ifko-hil`), reports an
//! analysis of the tuned loop back to the search ([`analysis`]), applies
//! the *fundamental* transformations under explicit empirically-tuned
//! parameters ([`params::TransformParams`], [`xform`]), runs the
//! *repeatable* scoped optimizations ([`opt`]), allocates the eight
//! architectural registers of each class ([`regalloc`]), and emits code
//! for the simulated x86-like machine ([`codegen`]).
//!
//! The search compiles the same kernel hundreds of times under varying
//! parameters, so the primary entry point is a [`CompileSession`]: created
//! once per (kernel, machine), it owns the lowered IR, the analysis
//! report, reusable per-stage scratch buffers, and one sub-candidate
//! cache — a map from the normalized parameter point to its prediction
//! and its program — that skips the whole pipeline when candidates differ
//! only in timer-irrelevant parameters. One-shot convenience wrappers
//! ([`compile`], [`compile_defaults`]) remain for tools that compile once.

pub mod analysis;
pub mod codegen;
pub mod costmodel;
pub mod dataflow;
pub mod diag;
pub mod ir;
pub mod lower;
pub mod opt;
pub mod params;
pub mod regalloc;
pub mod verify;
pub mod xform;

pub use analysis::{AnalysisReport, ScalarRole, VecBlocker};
pub use codegen::{ArgSlot, CompiledKernel, RetSlot};
pub use costmodel::{lint_costmodel, CostPrediction, Locality, StaticFeatureVector};
pub use diag::{Diagnostic, Loc, Severity};
pub use params::{PrefSpec, TransformParams};
pub use verify::{lint_analysis, precheck, Reject};

use ifko_xsim::MachineConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Any failure along the compilation pipeline. Every variant carries its
/// diagnostics pre-built (see [`CompileError::diagnostics`]), constructed
/// through the stage helpers ([`CompileError::frontend`] etc.).
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    Frontend(Vec<Diagnostic>),
    Lower(Vec<Diagnostic>),
    Xform(Vec<Diagnostic>),
    Alloc(Vec<Diagnostic>),
    Codegen(Vec<Diagnostic>),
    /// The IR verifier found invariant violations after a stage.
    Verify(&'static str, Vec<Diagnostic>),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = |d: &[Diagnostic]| d.first().map(|d| d.msg.clone()).unwrap_or_default();
        match self {
            CompileError::Frontend(d) => write!(f, "front end: {}", msg(d)),
            CompileError::Lower(d) => write!(f, "lowering: {}", msg(d)),
            CompileError::Xform(d) => write!(f, "transform: {}", msg(d)),
            CompileError::Alloc(d) => write!(f, "register allocation: {}", msg(d)),
            CompileError::Codegen(d) => write!(f, "code generation: {}", msg(d)),
            CompileError::Verify(stage, diags) => {
                write!(f, "IR verification failed after {stage}:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}
impl std::error::Error for CompileError {}

impl CompileError {
    pub fn frontend(m: impl Into<String>) -> CompileError {
        let m = m.into();
        // Parse errors carry "line N: ..." — recover the line.
        let mut d = Diagnostic::error("F001", "frontend", m.clone());
        if let Some(rest) = m.strip_prefix("parse error: line ") {
            if let Some((n, _)) = rest.split_once(':') {
                if let Ok(line) = n.trim().parse::<u32>() {
                    d = d.at_line(line);
                }
            }
        }
        CompileError::Frontend(vec![d])
    }
    pub fn lower(m: impl Into<String>) -> CompileError {
        CompileError::Lower(vec![Diagnostic::error("L001", "lower", m)])
    }
    pub fn xform(m: impl Into<String>) -> CompileError {
        CompileError::Xform(vec![Diagnostic::error("X001", "xform", m)])
    }
    pub fn alloc(m: impl Into<String>) -> CompileError {
        CompileError::Alloc(vec![Diagnostic::error("R001", "regalloc", m)])
    }
    pub fn codegen(m: impl Into<String>) -> CompileError {
        CompileError::Codegen(vec![Diagnostic::error("C001", "codegen", m)])
    }

    /// The pipeline error in the shared diagnostic shape used by the
    /// verifier and `ifko lint`, so JSON output is uniform.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        match self {
            CompileError::Frontend(d)
            | CompileError::Lower(d)
            | CompileError::Xform(d)
            | CompileError::Alloc(d)
            | CompileError::Codegen(d)
            | CompileError::Verify(_, d) => d,
        }
    }
}

/// Front end + lowering + analysis: what the search needs before tuning.
pub fn analyze_kernel(
    src: &str,
    mach: &MachineConfig,
) -> Result<(ir::KernelIr, AnalysisReport), CompileError> {
    let (routine, info) =
        ifko_hil::compile_frontend(src).map_err(|e| CompileError::frontend(e.to_string()))?;
    let k = lower::lower(&routine, &info).map_err(|e| CompileError::lower(e.to_string()))?;
    let rep = analysis::analyze(&k, mach);
    Ok((k, rep))
}

/// Per-compile options for [`CompileSession::compile`].
///
/// `verify_ir` runs [`verify::verify_stage`] after `xform`, `opt`, and
/// `regalloc`, plus [`verify::verify_compiled`] after `codegen`; the first
/// stage with violations aborts compilation with [`CompileError::Verify`].
/// It defaults on in debug builds (and therefore in all tests) and off in
/// release builds (`TuneConfig::verify_ir` / `--verify-ir` re-enable it).
///
/// `observe` is a per-stage observer: called after each pipeline stage
/// (`"xform"`, `"opt"`, `"regalloc"`, `"codegen"`, and `"subcache"` for
/// cache-served work) with its wall-clock cost, including the stage that
/// fails. The search uses this to attribute evaluation time to compiler
/// stages in its trace without the compiler knowing about trace sinks.
pub struct CompileOpts<'a> {
    pub verify_ir: bool,
    pub observe: Option<&'a mut dyn FnMut(&'static str, Duration)>,
}

impl Default for CompileOpts<'_> {
    fn default() -> Self {
        CompileOpts {
            verify_ir: cfg!(debug_assertions),
            observe: None,
        }
    }
}

impl<'a> CompileOpts<'a> {
    /// Explicit verification control, no observer.
    pub fn verify(verify_ir: bool) -> Self {
        CompileOpts {
            verify_ir,
            observe: None,
        }
    }
    /// Attach a per-stage observer.
    pub fn observed(verify_ir: bool, observe: &'a mut dyn FnMut(&'static str, Duration)) -> Self {
        CompileOpts {
            verify_ir,
            observe: Some(observe),
        }
    }
}

/// Wall-time distribution of one pipeline stage across every compile a
/// session ran. Collected only after [`CompileSession::enable_profiling`];
/// times are microseconds.
#[derive(Clone, Debug)]
pub struct StageProfile {
    pub stage: &'static str,
    pub count: u64,
    pub min_us: u64,
    pub median_us: u64,
    pub total_us: u64,
}

/// Counters accumulated by a [`CompileSession`] over its lifetime.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SessionStats {
    /// Total `compile` calls, failed ones included.
    pub compiles: u64,
    /// Calls answered from the sub-candidate cache: the normalized point
    /// had already compiled (with verification, if this caller asked for
    /// it), so no stage ran.
    pub subcache_hits: u64,
    /// Calls that got through `xform` and ran the back end
    /// (opt/regalloc/codegen): one per distinct normalized point, plus one
    /// per verify upgrade.
    pub subcache_misses: u64,
    /// `predict` calls that ran `xform` (prediction-half cache misses).
    pub predictions: u64,
}

/// Per-stage scratch buffers, bundled so one checkout covers a whole
/// pipeline run.
#[derive(Default)]
struct Scratch {
    xform: xform::XformScratch,
    opt: opt::OptScratch,
    alloc: regalloc::AllocScratch,
    code: codegen::CodegenScratch,
}

/// What the session holds for one normalized parameter point; each half
/// is filled by whichever of `predict` / `compile` asks for it first.
#[derive(Default)]
struct Candidate {
    pred: Option<CostPrediction>,
    /// The compiled program, and whether IR verification ran on it.
    out: Option<(CompiledKernel, bool)>,
}

/// Drop parameter content that cannot change the compiled program:
/// prefetch specs with `kind == None` are skipped entirely by
/// [`xform`]'s prefetch insertion (and never inspected by the verifier),
/// so candidates differing only there are one program (the tuner's key).
pub fn normalized(params: &TransformParams) -> TransformParams {
    let mut p = params.clone();
    p.prefetch.retain(|s| s.kind.is_some());
    p
}

/// Lock `m` even if a thread panicked while holding it. Every value a
/// session guards stays whole across such a panic: the scratch pool only
/// ever holds bundles returned by a finished pipeline run, and the profile
/// and candidate map only ever receive complete entries. So the next
/// compile proceeds on the data as it stands instead of panicking too.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reusable compilation session for one (kernel, machine) pair.
///
/// Owns the lowered [`ir::KernelIr`], its [`AnalysisReport`], a pool of
/// per-stage scratch buffers (xform working set, liveness bit-vectors,
/// register-allocation tables, codegen label maps), and one sub-candidate
/// cache: a map from the normalized [`TransformParams`] point (disabled
/// prefetch specs dropped) to its [`CostPrediction`] and its compiled
/// program. A `compile` hit skips the entire pipeline; a `predict` hit
/// skips `xform`. There is no cache below that, keyed on the post-xform
/// IR: distinct normalized points that transform to the same loop are
/// what the legality precheck removes before the compiler sees them, and
/// over the `IC` and `OC` suite tunes such a level answered 0 of 3 091
/// compiles while charging every miss a fingerprint and an IR snapshot
/// (DESIGN.md, "Compile sessions and sub-candidate caching").
///
/// Only successful compiles are cached; entries compiled without IR
/// verification are transparently recompiled (and upgraded) when a
/// verifying caller requests the same candidate. `compile` takes `&self`
/// and is safe to call from the search's scoped worker threads; scratch
/// buffers are checked out per call from an internal pool.
///
/// Cache growth is bounded by the number of distinct candidates a search
/// visits (hundreds), each entry a few KB.
pub struct CompileSession {
    ir: ir::KernelIr,
    rep: AnalysisReport,
    scratch: Mutex<Vec<Scratch>>,
    candidates: Mutex<HashMap<TransformParams, Candidate>>,
    compiles: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    predictions: AtomicU64,
    /// `Some` once profiling is enabled: per-stage wall-time samples (µs).
    profile: Mutex<Option<HashMap<&'static str, Vec<u64>>>>,
}

impl CompileSession {
    /// Build a session from an already-lowered kernel and its analysis.
    pub fn new(ir: ir::KernelIr, rep: AnalysisReport) -> CompileSession {
        CompileSession {
            ir,
            rep,
            scratch: Mutex::new(Vec::new()),
            candidates: Mutex::new(HashMap::new()),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            profile: Mutex::new(None),
        }
    }

    /// Front end + lowering + analysis, then a session over the result.
    pub fn from_source(src: &str, mach: &MachineConfig) -> Result<CompileSession, CompileError> {
        let (ir, rep) = analyze_kernel(src, mach)?;
        Ok(CompileSession::new(ir, rep))
    }

    /// The lowered kernel this session compiles.
    pub fn ir(&self) -> &ir::KernelIr {
        &self.ir
    }

    /// The loop analysis the search tunes against.
    pub fn report(&self) -> &AnalysisReport {
        &self.rep
    }

    /// Start collecting per-stage wall-time samples for [`profile`]
    /// (Self::profile). Off by default; sampling costs one mutex lock and
    /// one `Vec` push per stage per compile.
    pub fn enable_profiling(&self) {
        let mut p = lock(&self.profile);
        if p.is_none() {
            *p = Some(HashMap::new());
        }
    }

    /// Per-stage wall-time distribution (min/median/total) over every
    /// compile since [`enable_profiling`](Self::enable_profiling), sorted
    /// by total time descending. Empty when profiling is off.
    pub fn profile(&self) -> Vec<StageProfile> {
        let guard = lock(&self.profile);
        let Some(map) = guard.as_ref() else {
            return Vec::new();
        };
        let mut rows: Vec<StageProfile> = map
            .iter()
            .filter(|(_, samples)| !samples.is_empty())
            .map(|(stage, samples)| {
                let mut s = samples.clone();
                s.sort_unstable();
                StageProfile {
                    stage,
                    count: s.len() as u64,
                    min_us: s[0],
                    median_us: s[s.len() / 2],
                    total_us: s.iter().sum(),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stage.cmp(b.stage)));
        rows
    }

    /// Record one stage timing: into the profile (when enabled) and out
    /// through the caller's observer.
    fn emit(&self, opts: &mut CompileOpts<'_>, stage: &'static str, d: Duration) {
        if let Some(map) = lock(&self.profile).as_mut() {
            map.entry(stage).or_default().push(d.as_micros() as u64);
        }
        if let Some(f) = opts.observe.as_deref_mut() {
            f(stage, d);
        }
    }

    /// Lifetime counters (total compiles, sub-candidate cache hits and
    /// misses, predictions that ran `xform`).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            subcache_hits: self.hits.load(Ordering::Relaxed),
            subcache_misses: self.misses.load(Ordering::Relaxed),
            predictions: self.predictions.load(Ordering::Relaxed),
        }
    }

    /// Statically predict the cost of one candidate: run the transforms
    /// (xform only — no opt/regalloc/codegen, no simulation) and analyze
    /// the post-xform IR with [`costmodel::predict_lin`]. `mach` must be
    /// the machine this session was analyzed for. Results are cached by
    /// normalized parameters, so a search predicting every candidate in
    /// every batch pays the transform cost once per distinct point.
    pub fn predict(
        &self,
        params: &TransformParams,
        mach: &MachineConfig,
    ) -> Result<CostPrediction, CompileError> {
        let norm = normalized(params);
        if let Some(pred) = lock(&self.candidates)
            .get(&norm)
            .and_then(|c| c.pred.clone())
        {
            return Ok(pred);
        }
        self.predictions.fetch_add(1, Ordering::Relaxed);
        let mut sc = lock(&self.scratch).pop().unwrap_or_default();
        let lin = xform::apply_transforms_with(&self.ir, params, &self.rep, &mut sc.xform)
            .map_err(|e| CompileError::xform(e.to_string()));
        lock(&self.scratch).push(sc);
        let pred = costmodel::predict_lin(&lin?, mach);
        lock(&self.candidates).entry(norm).or_default().pred = Some(pred.clone());
        Ok(pred)
    }

    /// Normalized points the session holds a prediction or program for.
    pub fn cached_points(&self) -> usize {
        lock(&self.candidates).len()
    }

    /// Forget every cached point but `keep`'s and every pooled scratch
    /// bundle: what a session kept open between tunes holds.
    pub fn retain(&self, keep: &TransformParams) {
        let keep = normalized(keep);
        let mut candidates = lock(&self.candidates);
        candidates.retain(|p, _| *p == keep);
        candidates.shrink_to_fit();
        *lock(&self.scratch) = Vec::new();
    }

    /// Compile the session's kernel under the given parameters.
    pub fn compile(
        &self,
        params: &TransformParams,
        mut opts: CompileOpts<'_>,
    ) -> Result<CompiledKernel, CompileError> {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let t_total = Instant::now();
        let norm = normalized(params);
        // A verifying caller never receives a program compiled without
        // verification: it recompiles and upgrades the entry below.
        let cached = lock(&self.candidates)
            .get(&norm)
            .and_then(|c| match &c.out {
                Some((out, verified)) if *verified || !opts.verify_ir => Some(out.clone()),
                _ => None,
            });
        if let Some(out) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.emit(&mut opts, "subcache", t_total.elapsed());
            return Ok(out);
        }
        // Check a scratch bundle out of the pool for the slow path; push
        // it back whatever the outcome.
        let mut sc = lock(&self.scratch).pop().unwrap_or_default();
        let result = self.compile_slow(params, &mut opts, &mut sc);
        lock(&self.scratch).push(sc);
        if let Ok(out) = &result {
            lock(&self.candidates).entry(norm).or_default().out =
                Some((out.clone(), opts.verify_ir));
        }
        result
    }

    fn compile_slow(
        &self,
        params: &TransformParams,
        opts: &mut CompileOpts<'_>,
        sc: &mut Scratch,
    ) -> Result<CompiledKernel, CompileError> {
        let k = &self.ir;
        let rep = &self.rep;
        let verify_ir = opts.verify_ir;
        let check = |stage: &'static str,
                     lin: &xform::LinearKernel,
                     alloc: Option<&regalloc::Allocation>|
         -> Result<(), CompileError> {
            if !verify_ir {
                return Ok(());
            }
            let diags = verify::verify_stage(stage, lin, k, params, rep, alloc);
            if diags.is_empty() {
                Ok(())
            } else {
                Err(CompileError::Verify(stage, diags))
            }
        };

        let t0 = Instant::now();
        let lin = xform::apply_transforms_with(k, params, rep, &mut sc.xform)
            .map_err(|e| CompileError::xform(e.to_string()));
        self.emit(opts, "xform", t0.elapsed());
        let mut lin = lin?;
        check("xform", &lin, None)?;
        self.misses.fetch_add(1, Ordering::Relaxed);

        let t0 = Instant::now();
        opt::optimize_with(&mut lin, params, &mut sc.opt);
        self.emit(opts, "opt", t0.elapsed());
        check("opt", &lin, None)?;

        let t0 = Instant::now();
        let alloc = regalloc::allocate_with(&mut lin, &mut sc.alloc)
            .map_err(|e| CompileError::alloc(e.to_string()));
        self.emit(opts, "regalloc", t0.elapsed());
        let alloc = alloc?;
        check("regalloc", &lin, Some(&alloc))?;

        let t0 = Instant::now();
        let out = codegen::codegen_with(&lin, &alloc, &mut sc.code)
            .map_err(|e| CompileError::codegen(e.to_string()));
        self.emit(opts, "codegen", t0.elapsed());
        let out = out?;
        if verify_ir {
            let diags = verify::verify_compiled(&out, &alloc);
            if !diags.is_empty() {
                return Err(CompileError::Verify("codegen", diags));
            }
        }
        Ok(out)
    }
}

/// Full pipeline: HIL source → compiled kernel for `mach` under `params`.
/// One-shot; tuning loops should hold a [`CompileSession`] instead.
pub fn compile(
    src: &str,
    mach: &MachineConfig,
    params: &TransformParams,
) -> Result<CompiledKernel, CompileError> {
    let sess = CompileSession::from_source(src, mach)?;
    sess.compile(params, CompileOpts::default())
}

/// Compile with FKO's static defaults (the paper's "FKO" data point — no
/// empirical search).
pub fn compile_defaults(src: &str, mach: &MachineConfig) -> Result<CompiledKernel, CompileError> {
    let sess = CompileSession::from_source(src, mach)?;
    let params = TransformParams::defaults(sess.report(), mach);
    sess.compile(&params, CompileOpts::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOT: &str = r#"
ROUTINE dot(X, Y, N);
PARAMS :: X = DOUBLE_PTR, Y = DOUBLE_PTR, N = INT;
SCALARS :: dot = DOUBLE:OUT, x = DOUBLE, y = DOUBLE;
ROUT_BEGIN
  dot = 0.0;
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    dot += x * y;
    X += 1;
    Y += 1;
  LOOP_END
  RETURN dot;
ROUT_END
"#;

    /// Leave `m` poisoned: a thread panics while holding it.
    fn poison<T: Send>(m: &Mutex<T>) {
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _guard = m.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(held.join().is_err());
        });
        assert!(m.is_poisoned());
    }

    /// A panic on another thread that held any of the session's locks
    /// leaves the session usable: the next compile, on a cached point
    /// and on a fresh one, returns the same program a clean session does.
    #[test]
    fn poisoned_locks_do_not_panic_the_compiler() {
        let mach = ifko_xsim::p4e();
        let clean = CompileSession::from_source(DOT, &mach).unwrap();
        let cached = TransformParams::off();
        let fresh = TransformParams::defaults(clean.report(), &mach);
        let want_cached = clean.compile(&cached, CompileOpts::default()).unwrap();
        let want_fresh = clean.compile(&fresh, CompileOpts::default()).unwrap();
        for which in ["scratch pool", "profile", "candidate map"] {
            let sess = CompileSession::from_source(DOT, &mach).unwrap();
            sess.enable_profiling();
            sess.compile(&cached, CompileOpts::default()).unwrap();
            match which {
                "scratch pool" => poison(&sess.scratch),
                "profile" => poison(&sess.profile),
                _ => poison(&sess.candidates),
            }
            let got = sess.compile(&cached, CompileOpts::default()).unwrap();
            assert_eq!(got.program, want_cached.program, "cached, {which}");
            let got = sess.compile(&fresh, CompileOpts::default()).unwrap();
            assert_eq!(got.program, want_fresh.program, "fresh, {which}");
            sess.predict(&fresh, &mach).unwrap();
            assert!(!sess.profile().is_empty(), "{which}");
            assert_eq!(sess.stats().subcache_hits, 1, "{which}");
        }
    }
}
