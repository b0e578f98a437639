//! # ifko-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index). The [`Experiment`] builder is the shared entry point: name the
//! experiment, pick machines/contexts (or explicit sweeps), and `run()`
//! — flags (`--quick`, `--jobs N`, `--workers N`, `--trace PATH`,
//! `--trace-chrome PATH`, `--no-cache`) are
//! parsed from the command line, every sweep shares one evaluation cache
//! (persisted under `results/cache/` so separate binaries reuse each
//! other's points), and progress goes to stderr.
//!
//! The library also holds the lower-level machinery: running all six
//! tuning methodologies on a kernel ([`run_methods`]), formatting the
//! relative-performance rows of Figures 2–4 ([`format_relative_table`]),
//! Table 3 rows, and the Figure 7 per-phase decomposition.
//!
//! All binaries accept `--quick` (reduced N and search) so CI can exercise
//! them; without it they run at paper scale (N=80000 / N=1024).

use ifko::prelude::*;
use ifko::runner::KernelArgs;
use ifko_baselines::{atlas_best, compile_gcc, compile_icc, compile_icc_prof, LoopForm, Method};
use ifko_fko::CompiledKernel;
use std::collections::HashMap;
use std::sync::Arc;

/// Default location of the cross-process evaluation cache.
pub const CACHE_DIR: &str = "results/cache";

/// Configuration of one experiment sweep.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    pub n_out_of_cache: usize,
    pub n_in_l2: usize,
    pub quick: bool,
    pub seed: u64,
    /// Worker threads per candidate batch (`--jobs N`; results are
    /// bit-identical for every value).
    pub jobs: usize,
    /// Worker *processes* per candidate batch (`--workers N`; 0 = stay
    /// in-process). Dispatches evaluations to `ifko-worker` children —
    /// results stay bit-identical to serial and threaded runs.
    pub workers: usize,
    /// JSONL search-trace destination (`--trace PATH`).
    pub trace_path: Option<String>,
    /// Chrome/Perfetto trace destination (`--trace-chrome PATH`): the
    /// same event stream rendered as `trace_event` JSON, openable in
    /// `ui.perfetto.dev` or `chrome://tracing`.
    pub trace_chrome_path: Option<String>,
    /// Metrics-snapshot destination (`--metrics PATH`): the process-wide
    /// registry is written here when the experiment finishes (JSON, or
    /// Prometheus text for `.prom`/`.txt` paths).
    pub metrics_path: Option<String>,
    /// Persist/reuse evaluations under [`CACHE_DIR`] (disable with
    /// `--no-cache`).
    pub use_cache: bool,
    /// Search strategy (`--strategy NAME`; default: the line search).
    pub strategy: StrategySpec,
    /// Probe/wall budget for each search (`--budget N` or `--budget 500ms`).
    pub budget: Budget,
    /// Tuned-results database directory (`--db DIR`, or `--warm-start`
    /// for the conventional `results/db`).
    pub db_dir: Option<String>,
    /// Deterministic fault injection (`--chaos SEED[:RATE]`; off by
    /// default — results stay bit-identical to a fault-free run).
    pub chaos: Option<FaultPlan>,
    /// Per-candidate retry budget for transient faults
    /// (`--max-retries N`; None leaves the library default).
    pub max_retries: Option<u32>,
    /// Fraction of each batch the static cost model may prune before
    /// compiling (`--model-prune FRAC`; 0 keeps predictions trace-only).
    pub model_prune: f64,
}

impl ExpConfig {
    /// Parse from CLI args: `--quick` reduces problem and search sizes,
    /// `--jobs N` sets batch parallelism, `--trace PATH` dumps the JSONL
    /// search trace, `--no-cache` skips the persistent evaluation cache.
    pub fn from_args() -> ExpConfig {
        let args: Vec<String> = std::env::args().collect();
        let mut cfg = ExpConfig::new(args.iter().any(|a| a == "--quick"));
        // A flag's value, or exit 2 naming the flag and what is wrong.
        fn parsed<T, E: std::fmt::Display>(flag: &str, value: Result<T, E>) -> T {
            value.unwrap_or_else(|e| {
                eprintln!("{flag}: {e}");
                std::process::exit(2)
            })
        }
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let flag = a.as_str();
            let mut value = || parsed(flag, it.next().ok_or("needs a value"));
            match flag {
                "--jobs" => cfg.jobs = parsed(flag, value().parse::<usize>()).max(1),
                "--workers" => cfg.workers = parsed(flag, value().parse()),
                "--trace" => cfg.trace_path = Some(value().clone()),
                "--trace-chrome" => cfg.trace_chrome_path = Some(value().clone()),
                "--metrics" => cfg.metrics_path = Some(value().clone()),
                "--no-cache" => cfg.use_cache = false,
                "--strategy" => cfg.strategy = parsed(flag, StrategySpec::parse(value())),
                "--budget" => cfg.budget = parsed(flag, Budget::parse(value())),
                "--db" => cfg.db_dir = Some(value().clone()),
                "--warm-start" => {
                    cfg.db_dir.get_or_insert_with(|| "results/db".to_string());
                }
                "--chaos" => cfg.chaos = Some(parsed(flag, FaultPlan::parse(value()))),
                "--max-retries" => cfg.max_retries = Some(parsed(flag, value().parse())),
                "--model-prune" => {
                    let frac = parsed(flag, value().parse::<f64>());
                    let in_range = (0.0..=1.0).contains(&frac);
                    cfg.model_prune = parsed(
                        flag,
                        in_range
                            .then_some(frac)
                            .ok_or_else(|| format!("{frac} outside [0, 1]")),
                    );
                }
                // Unknown flags are not errors here: `strategies` parses
                // its own (`--strategies`) out of the same argv.
                _ => {}
            }
        }
        cfg
    }
    pub fn new(quick: bool) -> ExpConfig {
        let (n_oc, n_ic) = if quick {
            (20_000, 1024)
        } else {
            (
                ifko_blas::workload::N_OUT_OF_CACHE,
                ifko_blas::workload::N_IN_L2,
            )
        };
        ExpConfig {
            n_out_of_cache: n_oc,
            n_in_l2: n_ic,
            quick,
            seed: 0xb1a5,
            jobs: 1,
            workers: 0,
            trace_path: None,
            trace_chrome_path: None,
            metrics_path: None,
            use_cache: true,
            strategy: StrategySpec::Line,
            budget: Budget::unlimited(),
            db_dir: None,
            chaos: None,
            max_retries: None,
            model_prune: 0.0,
        }
    }
    pub fn n_for(&self, ctx: Context) -> usize {
        match ctx {
            Context::OutOfCache => self.n_out_of_cache,
            Context::InL2 => self.n_in_l2,
        }
    }
    /// The tuning configuration for one machine/context under this
    /// experiment config (cache/trace are attached by [`Experiment`]).
    pub fn tune_config(&self, mach: &MachineConfig, ctx: Context) -> TuneConfig {
        let n = self.n_for(ctx);
        let base = if self.quick {
            TuneConfig::quick(n)
        } else {
            TuneConfig::paper()
        };
        let mut cfg = base
            .machine(mach.clone())
            .context(ctx)
            .n(n)
            .seed(self.seed)
            .jobs(self.jobs)
            .workers(self.workers)
            .strategy(self.strategy)
            .budget(self.budget);
        if let Some(plan) = &self.chaos {
            cfg = cfg.faults(plan.clone());
        }
        if let Some(r) = self.max_retries {
            cfg = cfg.max_retries(r);
        }
        if self.model_prune > 0.0 {
            cfg = cfg.model_prune(self.model_prune);
        }
        if let Some(dir) = &self.db_dir {
            match cfg.clone().tuned_db(dir) {
                Ok(c) => cfg = c,
                Err(e) => eprintln!("tuned-results db unavailable at {dir} ({e}); continuing"),
            }
        }
        cfg
    }
    pub fn timer(&self) -> Timer {
        if self.quick {
            Timer::exact()
        } else {
            Timer::default()
        }
    }
}

/// Results for one kernel: cycles per method.
#[derive(Clone, Debug)]
pub struct KernelRow {
    pub kernel: Kernel,
    pub cycles: HashMap<Method, u64>,
    /// The ATLAS variant chosen (with `*` marking assembly, as the paper's
    /// figures annotate).
    pub atlas_variant: Option<String>,
    /// Tuning outcome of the ifko run (Table 3 parameters, Figure 7 gains).
    pub tune: Option<ifko::TuneOutcome>,
}

impl KernelRow {
    /// Fastest method's cycles.
    pub fn best_cycles(&self) -> u64 {
        self.cycles.values().copied().min().unwrap_or(u64::MAX)
    }
    /// Percent-of-best for one method (the Figures 2-4 metric).
    pub fn percent(&self, m: Method) -> f64 {
        match self.cycles.get(&m) {
            Some(&c) if c > 0 => 100.0 * self.best_cycles() as f64 / c as f64,
            _ => 0.0,
        }
    }
    /// The figure label: kernel name, with `*` when ATLAS selected an
    /// all-assembly kernel.
    pub fn label(&self) -> String {
        let starred = self
            .atlas_variant
            .as_deref()
            .map(|v| v.ends_with('*'))
            .unwrap_or(false);
        if starred {
            format!("{}*", self.kernel.name())
        } else {
            self.kernel.name()
        }
    }
}

/// One machine/context sweep's results.
#[derive(Clone, Debug)]
pub struct Sweep {
    pub machine: MachineConfig,
    pub context: Context,
    pub rows: Vec<KernelRow>,
}

impl Sweep {
    /// Human title, e.g. `P4E, out-of-cache`.
    pub fn title(&self) -> String {
        let ctx = match self.context {
            Context::OutOfCache => "out-of-cache",
            Context::InL2 => "in-L2 cache",
        };
        format!("{}, {ctx}", self.machine.name)
    }
}

/// Builder for one experiment: which machines, contexts, and kernels to
/// sweep, and whether to run the full six-methodology comparison or just
/// the iFKO tuner. All sweeps share the experiment's evaluation cache and
/// trace sink.
///
/// ```no_run
/// use ifko_bench::Experiment;
/// use ifko::prelude::*;
///
/// let sweeps = Experiment::new("figure2").machine(p4e()).context(Context::OutOfCache).run();
/// println!("{}", ifko_bench::format_relative_table("Figure 2", &sweeps[0].rows));
/// ```
pub struct Experiment {
    name: String,
    cfg: ExpConfig,
    machines: Vec<MachineConfig>,
    contexts: Vec<Context>,
    explicit_sweeps: Vec<(MachineConfig, Context)>,
    kernels: Vec<Kernel>,
    tune_only: bool,
    trace: Option<Arc<dyn TraceSink>>,
}

impl Experiment {
    /// A named experiment configured from the command line
    /// (see [`ExpConfig::from_args`]). Defaults: P4E, out-of-cache, the
    /// full 14-kernel suite, all six methodologies.
    pub fn new(name: impl Into<String>) -> Experiment {
        Experiment::with_config(name, ExpConfig::from_args())
    }

    /// Same, with an explicit config (used by tests).
    pub fn with_config(name: impl Into<String>, cfg: ExpConfig) -> Experiment {
        Experiment {
            name: name.into(),
            cfg,
            machines: vec![p4e()],
            contexts: vec![Context::OutOfCache],
            explicit_sweeps: Vec::new(),
            kernels: ALL_KERNELS.to_vec(),
            tune_only: false,
            trace: None,
        }
    }

    /// Sweep this machine (replaces the default; call repeatedly or use
    /// [`Self::machines`] for several).
    pub fn machine(mut self, m: MachineConfig) -> Self {
        self.machines = vec![m];
        self
    }
    pub fn machines(mut self, ms: impl IntoIterator<Item = MachineConfig>) -> Self {
        self.machines = ms.into_iter().collect();
        self
    }
    /// Sweep this context (product with the machines).
    pub fn context(mut self, c: Context) -> Self {
        self.contexts = vec![c];
        self
    }
    pub fn contexts(mut self, cs: impl IntoIterator<Item = Context>) -> Self {
        self.contexts = cs.into_iter().collect();
        self
    }
    /// Add one explicit (machine, context) sweep; when any are given they
    /// replace the machines × contexts product.
    pub fn sweep(mut self, m: MachineConfig, c: Context) -> Self {
        self.explicit_sweeps.push((m, c));
        self
    }
    /// Restrict the kernel set (default: the full suite).
    pub fn kernels(mut self, ks: impl IntoIterator<Item = Kernel>) -> Self {
        self.kernels = ks.into_iter().collect();
        self
    }
    /// Only run the iFKO tuner (Table 3 / Figure 7 style experiments) —
    /// skips the five baseline methodologies.
    pub fn tune_only(mut self) -> Self {
        self.tune_only = true;
        self
    }
    /// Attach a trace sink programmatically (overrides `--trace`).
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }
    pub fn cfg(&self) -> &ExpConfig {
        &self.cfg
    }

    /// Run every sweep. Progress and a final fresh-vs-cached evaluation
    /// summary go to stderr; results come back in sweep order.
    pub fn run(self) -> Vec<Sweep> {
        let cache: Arc<EvalCache> = if self.cfg.use_cache {
            match EvalCache::persistent(CACHE_DIR) {
                Ok(c) => {
                    if !c.is_empty() {
                        eprintln!(
                            "[{}] warm evaluation cache: {} points from {CACHE_DIR}/evals.jsonl",
                            self.name,
                            c.len()
                        );
                    }
                    Arc::new(c)
                }
                Err(e) => {
                    eprintln!(
                        "[{}] persistent cache unavailable ({e}); using memory",
                        self.name
                    );
                    Arc::new(EvalCache::new())
                }
            }
        } else {
            Arc::new(EvalCache::new())
        };
        let trace: Option<Arc<dyn TraceSink>> = match (&self.trace, &self.cfg.trace_path) {
            (Some(t), _) => Some(t.clone()),
            (None, Some(p)) => match JsonlSink::create(p) {
                Ok(s) => {
                    eprintln!("[{}] tracing evaluations to {p}", self.name);
                    Some(s)
                }
                Err(e) => {
                    eprintln!("[{}] cannot open trace {p}: {e}", self.name);
                    None
                }
            },
            _ => None,
        };
        // The Chrome sink composes with `--trace`: both see the stream,
        // and the render happens once on the final flush.
        let chrome: Option<Arc<ifko::ChromeTraceSink>> = match &self.cfg.trace_chrome_path {
            Some(p) => match ifko::ChromeTraceSink::create(p) {
                Ok(s) => {
                    eprintln!("[{}] rendering Chrome/Perfetto trace to {p}", self.name);
                    Some(s)
                }
                Err(e) => {
                    eprintln!("[{}] cannot open chrome trace {p}: {e}", self.name);
                    None
                }
            },
            None => None,
        };

        let pairs: Vec<(MachineConfig, Context)> = if !self.explicit_sweeps.is_empty() {
            self.explicit_sweeps.clone()
        } else {
            self.machines
                .iter()
                .flat_map(|m| self.contexts.iter().map(move |c| (m.clone(), *c)))
                .collect()
        };

        let mut out = Vec::new();
        for (mach, ctx) in pairs {
            let mut tune_cfg = self.cfg.tune_config(&mach, ctx).cache(cache.clone());
            if let Some(t) = &trace {
                tune_cfg = tune_cfg.trace(t.clone());
            }
            if let Some(c) = &chrome {
                tune_cfg = tune_cfg.trace(c.clone());
            }
            let rows = self
                .kernels
                .iter()
                .map(|k| {
                    eprintln!("  ... {} on {} ({})", k.name(), mach.name, ctx.label());
                    if self.tune_only {
                        KernelRow {
                            kernel: *k,
                            cycles: Default::default(),
                            atlas_variant: None,
                            tune: tune_cfg.tune(*k).ok(),
                        }
                    } else {
                        run_methods_with(*k, &tune_cfg, &self.cfg)
                    }
                })
                .collect();
            out.push(Sweep {
                machine: mach,
                context: ctx,
                rows,
            });
        }

        let (fresh, hits) = out
            .iter()
            .flat_map(|s| &s.rows)
            .filter_map(|r| r.tune.as_ref())
            .fold((0u64, 0u64), |(f, h), t| {
                (
                    f + t.result.evaluations as u64,
                    h + t.result.cache_hits as u64,
                )
            });
        eprintln!(
            "[{}] search evaluations: {fresh} fresh, {hits} cache hits",
            self.name
        );
        if let Some(t) = &trace {
            t.flush();
        }
        if let Some(c) = &chrome {
            c.flush();
        }
        if let Some(p) = &self.cfg.metrics_path {
            match ifko::metrics::global().write_snapshot(p) {
                Ok(()) => eprintln!("[{}] metrics snapshot written to {p}", self.name),
                Err(e) => eprintln!("[{}] cannot write metrics {p}: {e}", self.name),
            }
        }
        out
    }
}

/// Time one compiled baseline with the experiment timer.
fn time_compiled(
    compiled: &CompiledKernel,
    kernel: Kernel,
    w: &Workload,
    ctx: Context,
    mach: &MachineConfig,
    timer: &Timer,
) -> Option<u64> {
    let args = KernelArgs {
        kernel,
        workload: w,
        context: ctx,
    };
    // Baselines are verified too — a wrong baseline would corrupt the
    // comparison silently.
    let out = ifko::runner::run_once(compiled, &args, mach).ok()?;
    ifko::verify(kernel, w, &out).ok()?;
    Some(timer.time_from(out.stats.cycles, &compiled.name))
}

/// Run all six methodologies for one kernel under a prepared
/// [`TuneConfig`] (machine/context/cache/trace already attached).
pub fn run_methods_with(kernel: Kernel, tune_cfg: &TuneConfig, cfg: &ExpConfig) -> KernelRow {
    let mach = tune_cfg.machine_ref().clone();
    let ctx = tune_cfg.context_of();
    let n = cfg.n_for(ctx);
    let w = Workload::generate(n, cfg.seed);
    let timer = cfg.timer();
    let mut cycles = HashMap::new();

    if let Ok(c) = compile_gcc(kernel, &mach) {
        if let Some(t) = time_compiled(&c, kernel, &w, ctx, &mach, &timer) {
            cycles.insert(Method::GccRef, t);
        }
    }
    if let Ok(c) = compile_icc(kernel, &mach, LoopForm::Friendly) {
        if let Some(t) = time_compiled(&c, kernel, &w, ctx, &mach, &timer) {
            cycles.insert(Method::IccRef, t);
        }
    }
    if let Ok(c) = compile_icc_prof(kernel, &mach, n) {
        if let Some(t) = time_compiled(&c, kernel, &w, ctx, &mach, &timer) {
            cycles.insert(Method::IccProf, t);
        }
    }
    // ATLAS's install-time search selects its kernel with out-of-cache
    // timings (its default timing regime); the selected kernel is then
    // used in whatever context the caller measures — which is how the
    // paper's Figure 4 bars came to be.
    let mut atlas_variant = None;
    let select_w = Workload::generate(cfg.n_out_of_cache, cfg.seed);
    if let Some(choice) = atlas_best(kernel, &mach, Context::OutOfCache, &select_w, &timer) {
        if let Some(t) = time_compiled(&choice.compiled, kernel, &w, ctx, &mach, &timer) {
            cycles.insert(Method::Atlas, t);
        }
        atlas_variant = Some(choice.variant);
    }
    if let Ok(c) = tune_cfg.time_defaults(kernel) {
        cycles.insert(Method::Fko, c);
    }
    let tune_outcome = tune_cfg.tune(kernel).ok();
    if let Some(t) = &tune_outcome {
        cycles.insert(Method::Ifko, t.cycles);
    }

    KernelRow {
        kernel,
        cycles,
        atlas_variant,
        tune: tune_outcome,
    }
}

/// Run all six methodologies for one kernel on one machine/context with a
/// private evaluation cache (convenience over [`run_methods_with`]).
pub fn run_methods(
    kernel: Kernel,
    mach: &MachineConfig,
    ctx: Context,
    cfg: &ExpConfig,
) -> KernelRow {
    run_methods_with(kernel, &cfg.tune_config(mach, ctx), cfg)
}

/// Run the full 14-kernel sweep with a private evaluation cache shared
/// across the kernels (convenience over [`Experiment`]).
pub fn run_sweep(mach: &MachineConfig, ctx: Context, cfg: &ExpConfig) -> Vec<KernelRow> {
    let tune_cfg = cfg.tune_config(mach, ctx);
    ALL_KERNELS
        .iter()
        .map(|k| {
            eprintln!("  ... {} on {} ({})", k.name(), mach.name, ctx.label());
            run_methods_with(*k, &tune_cfg, cfg)
        })
        .collect()
}

/// Average of percent-of-best (the paper's AVG) and the vectorizable-only
/// average (VAVG: everything except iamax, which neither icc nor iFKO
/// vectorize).
pub fn averages(rows: &[KernelRow], m: Method) -> (f64, f64) {
    let all: Vec<f64> = rows.iter().map(|r| r.percent(m)).collect();
    let avg = all.iter().sum::<f64>() / all.len().max(1) as f64;
    let vecd: Vec<f64> = rows
        .iter()
        .filter(|r| r.kernel.op != ifko_blas::BlasOp::Iamax)
        .map(|r| r.percent(m))
        .collect();
    let vavg = vecd.iter().sum::<f64>() / vecd.len().max(1) as f64;
    (avg, vavg)
}

/// Render a Figures-2/3/4-style table: % of best per kernel and method,
/// plus AVG and VAVG columns.
pub fn format_relative_table(title: &str, rows: &[KernelRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "{:<10}", "method");
    for r in rows {
        let _ = write!(s, "{:>9}", r.label());
    }
    let _ = writeln!(s, "{:>8}{:>8}", "AVG", "VAVG");
    for m in Method::all() {
        let _ = write!(s, "{:<10}", m.label());
        for r in rows {
            let _ = write!(s, "{:>9.1}", r.percent(m));
        }
        let (avg, vavg) = averages(rows, m);
        let _ = writeln!(s, "{avg:>8.1}{vavg:>8.1}");
    }
    s
}

/// Render Table-3-style rows for a sweep.
pub fn format_table3(title: &str, rows: &[KernelRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "{:<8} {:<6} {:>12} {:>12} {:>7}",
        "BLAS", "SV:WNT", "PF X INS:DST", "PF Y INS:DST", "UR:AE"
    );
    for r in rows {
        if let Some(t) = &r.tune {
            // table3_row = "Y:N pfx pfy UR:AE"
            let parts: Vec<&str> = t.table3_row.split_whitespace().collect();
            let _ = writeln!(
                s,
                "{:<8} {:<6} {:>12} {:>12} {:>7}",
                r.kernel.name(),
                parts.first().copied().unwrap_or("-"),
                parts.get(1).copied().unwrap_or("-"),
                parts.get(2).copied().unwrap_or("-"),
                parts.get(3).copied().unwrap_or("-"),
            );
        }
    }
    s
}

/// Figure 7 data: per-kernel speedup of ifko over FKO, decomposed by
/// search phase.
pub fn format_figure7(title: &str, rows: &[KernelRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "{:<10}", "kernel");
    for p in Phase::figure7() {
        let _ = write!(s, "{:>9}", p.label());
    }
    let _ = writeln!(s, "{:>9}", "total");
    let mut sums = vec![0.0f64; Phase::figure7().len()];
    let mut total_sum = 0.0;
    let mut count = 0usize;
    for r in rows {
        let Some(t) = &r.tune else { continue };
        let _ = write!(s, "{:<10}", r.kernel.name());
        for (i, p) in Phase::figure7().iter().enumerate() {
            // Multi-pass searches can visit a phase more than once; the
            // phase's contribution is the product of its passes.
            let g: f64 = t
                .result
                .gains
                .iter()
                .filter(|g| g.phase == *p)
                .map(|g| g.speedup())
                .product();
            sums[i] += g;
            let _ = write!(s, "{:>8.1}%", (g - 1.0) * 100.0);
        }
        let tot = t.result.speedup_over_default();
        total_sum += tot;
        count += 1;
        let _ = writeln!(s, "{:>8.2}x", tot);
    }
    if count > 0 {
        let _ = write!(s, "{:<10}", "average");
        for v in &sums {
            let _ = write!(s, "{:>8.1}%", (v / count as f64 - 1.0) * 100.0);
        }
        let _ = writeln!(s, "{:>8.2}x", total_sum / count as f64);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_blas::ops::BlasOp;

    fn test_cfg() -> ExpConfig {
        ExpConfig {
            n_out_of_cache: 3000,
            n_in_l2: 512,
            quick: true,
            seed: 1,
            jobs: 1,
            workers: 0,
            trace_path: None,
            trace_chrome_path: None,
            metrics_path: None,
            use_cache: false,
            strategy: StrategySpec::Line,
            budget: Budget::unlimited(),
            db_dir: None,
            chaos: None,
            max_retries: None,
            model_prune: 0.0,
        }
    }

    #[test]
    fn run_methods_produces_all_six() {
        let k = Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        };
        let row = run_methods(k, &p4e(), Context::OutOfCache, &test_cfg());
        for m in Method::all() {
            assert!(row.cycles.contains_key(&m), "missing {m:?}");
        }
        assert!(row.percent(Method::Ifko) > 0.0);
        let best = row.best_cycles();
        assert!(row.cycles.values().all(|&c| c >= best));
    }

    #[test]
    fn relative_table_formats() {
        let mut cfg = test_cfg();
        cfg.n_out_of_cache = 2000;
        let k = Kernel {
            op: BlasOp::Asum,
            prec: Prec::S,
        };
        let rows = vec![run_methods(k, &p4e(), Context::InL2, &cfg)];
        let t = format_relative_table("test", &rows);
        assert!(t.contains("ifko"));
        assert!(t.contains("sasum"));
        assert!(t.contains("AVG"));
    }

    #[test]
    fn experiment_runs_tune_only_sweeps() {
        let mut cfg = test_cfg();
        cfg.n_in_l2 = 400;
        let k = Kernel {
            op: BlasOp::Scal,
            prec: Prec::D,
        };
        let sweeps = Experiment::with_config("test-exp", cfg)
            .sweep(p4e(), Context::InL2)
            .sweep(opteron(), Context::InL2)
            .kernels([k])
            .tune_only()
            .run();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].title(), "P4E, in-L2 cache");
        assert_eq!(sweeps[1].title(), "Opteron, in-L2 cache");
        for s in &sweeps {
            assert_eq!(s.rows.len(), 1);
            assert!(s.rows[0].tune.is_some());
        }
    }

    #[test]
    fn experiment_shares_cache_across_sweeps() {
        // Same (machine, context) listed twice: the second sweep must be
        // answered entirely from the experiment-wide cache.
        let cfg = test_cfg();
        let k = Kernel {
            op: BlasOp::Copy,
            prec: Prec::D,
        };
        let sweeps = Experiment::with_config("test-cache", cfg)
            .sweep(p4e(), Context::OutOfCache)
            .sweep(p4e(), Context::OutOfCache)
            .kernels([k])
            .tune_only()
            .run();
        let first = sweeps[0].rows[0].tune.as_ref().unwrap();
        let second = sweeps[1].rows[0].tune.as_ref().unwrap();
        assert!(first.result.evaluations > 0);
        assert_eq!(second.result.evaluations, 0, "second sweep re-evaluated");
        assert_eq!(first.result.best, second.result.best);
    }
}
