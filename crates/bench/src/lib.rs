//! # ifko-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index). The [`Experiment`] builder is the shared entry point: name the
//! experiment, pick machines/contexts (or explicit sweeps), and `run()`
//! — the command line is read against [`FLAGS`] (`--quick`, `--no-cache`
//! and the tune flags `ifko tune` shares; `--help` lists them), every
//! sweep shares one evaluation cache (persisted under `results/cache/` so
//! separate binaries reuse each other's points), and progress goes to
//! stderr.
//!
//! The library also holds the lower-level machinery: running all six
//! tuning methodologies on a kernel ([`run_methods`]), formatting the
//! relative-performance rows of Figures 2–4 ([`format_relative_table`]),
//! Table 3 rows, and the Figure 7 per-phase decomposition.
//!
//! All tuning binaries accept `--quick` (reduced N and search) so CI can
//! exercise them; without it they run at paper scale (N=80000 / N=1024).

use ifko::flags::{self, Command, Flag, Given, TuneFlags};
use ifko::prelude::*;
use ifko::runner::KernelArgs;
use ifko_baselines::{atlas_best, compile_gcc, compile_icc, compile_icc_prof, LoopForm, Method};
use ifko_fko::CompiledKernel;
use std::collections::HashMap;
use std::sync::Arc;

/// Default location of the cross-process evaluation cache.
pub const CACHE_DIR: &str = "results/cache";

/// The flags every experiment binary reads: `--quick`, `--no-cache` and
/// the tune flags it shares with `ifko tune` ([`flags::TUNE`]).
#[rustfmt::skip]
pub const FLAGS: &[&[Flag]] = &[
    &[
        Flag::new("--quick", "CI scale: N=20000 / 1024, quick search, exact timer"),
        Flag::new("--no-cache", "neither read nor persist results/cache"),
    ],
    flags::TUNE,
];

/// Configuration of one experiment sweep.
#[derive(Clone)]
pub struct ExpConfig {
    pub n_out_of_cache: usize,
    pub n_in_l2: usize,
    pub quick: bool,
    pub seed: u64,
    /// Persist/reuse evaluations under [`CACHE_DIR`] (off with
    /// `--no-cache`).
    pub use_cache: bool,
    /// The tune flags applied once for the process: every sweep's
    /// [`TuneConfig`] starts from `tune.base`, sharing its sinks.
    pub tune: TuneFlags,
}

impl ExpConfig {
    /// Read this process's command line as the experiment binary `name`
    /// with `flags` ([`FLAGS`], or more). `--help` prints the help; a flag
    /// the binary does not read, a bad value, or a sink that cannot be
    /// opened exits 2 before any sweep runs.
    pub fn from_env(name: &str, flags: &[&'static [Flag]]) -> (ExpConfig, Given) {
        let given = Command::new(name, flags).from_env();
        let cfg = ExpConfig::from_flags(&given).unwrap_or_else(|e| flags::refuse(name, &e));
        (cfg, given)
    }
    /// The config parsed flags describe, its sinks opened.
    pub fn from_flags(given: &Given) -> Result<ExpConfig, String> {
        let cfg = ExpConfig::new(given.has("--quick"));
        Ok(ExpConfig {
            use_cache: !given.has("--no-cache"),
            tune: TuneFlags::open(given, cfg.tune.base)?,
            ..cfg
        })
    }
    pub fn new(quick: bool) -> ExpConfig {
        use ifko_blas::workload::{N_IN_L2, N_OUT_OF_CACHE};
        let (n_oc, n_ic, base) = if quick {
            (20_000, 1024, TuneConfig::quick(20_000))
        } else {
            (N_OUT_OF_CACHE, N_IN_L2, TuneConfig::paper())
        };
        ExpConfig {
            n_out_of_cache: n_oc,
            n_in_l2: n_ic,
            quick,
            seed: 0xb1a5,
            use_cache: true,
            tune: TuneFlags::new(base),
        }
    }
    pub fn n_for(&self, ctx: Context) -> usize {
        match ctx {
            Context::OutOfCache => self.n_out_of_cache,
            Context::InL2 => self.n_in_l2,
        }
    }
    /// The tuning configuration for one machine/context under this
    /// experiment config, with a private evaluation cache ([`Experiment`]
    /// attaches its shared one).
    pub fn tune_config(&self, mach: &MachineConfig, ctx: Context) -> TuneConfig {
        self.tune
            .base
            .clone()
            .machine(mach.clone())
            .context(ctx)
            .n(self.n_for(ctx))
            .seed(self.seed)
            .cache(Arc::new(EvalCache::new()))
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

/// Builder for one experiment: which (machine, context) pairs and kernels
/// to sweep, and whether to run the full six-methodology comparison or just
/// the iFKO tuner. All sweeps share the experiment's evaluation cache and
/// trace sinks.
///
/// ```no_run
/// use ifko_bench::Experiment;
/// use ifko::prelude::*;
///
/// let sweeps = Experiment::new("figure2").sweep(p4e(), Context::OutOfCache).run();
/// println!("{}", ifko_bench::format_relative_table("Figure 2", &sweeps[0].rows));
/// ```
pub struct Experiment {
    name: String,
    cfg: ExpConfig,
    sweeps: Vec<(MachineConfig, Context)>,
    kernels: Vec<Kernel>,
    tune_only: bool,
}

impl Experiment {
    /// A named experiment configured from the command line
    /// (see [`ExpConfig::from_env`]). Defaults: the full 14-kernel suite,
    /// all six methodologies.
    pub fn new(name: &str) -> Experiment {
        Experiment::with_config(name, ExpConfig::from_env(name, FLAGS).0)
    }

    /// Same, with an explicit config (used by tests).
    pub fn with_config(name: impl Into<String>, cfg: ExpConfig) -> Experiment {
        Experiment {
            name: name.into(),
            cfg,
            sweeps: Vec::new(),
            kernels: ALL_KERNELS.to_vec(),
            tune_only: false,
        }
    }

    /// Add one (machine, context) sweep; sweeps run in the order added.
    pub fn sweep(mut self, m: MachineConfig, c: Context) -> Self {
        self.sweeps.push((m, c));
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
    /// Attach a trace sink programmatically, in place of any `--trace`.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.cfg.tune.base = self.cfg.tune.base.clone().trace(sink);
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
        let mut out = Vec::new();
        for (mach, ctx) in self.sweeps.clone() {
            let tune_cfg = self.cfg.tune_config(&mach, ctx).cache(cache.clone());
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
        if let Err(e) = self.cfg.tune.finish() {
            eprintln!("[{}] {e}", self.name);
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

/// The paper's Table 3 as the `table3` binary prints it: the parameters
/// the search selects on each of its three sweeps.
pub fn table3(exp: Experiment) -> String {
    let sweeps = exp
        .sweep(p4e(), Context::OutOfCache)
        .sweep(opteron(), Context::OutOfCache)
        .sweep(p4e(), Context::InL2)
        .tune_only()
        .run();
    let mut out =
        String::from("Table 3. Transformation parameters by architecture and context\n\n");
    for sweep in &sweeps {
        out += &format_table3(&sweep.title(), &sweep.rows);
        out.push('\n');
    }
    out
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

/// The `strategies` binary's head-to-head table: each strategy in `specs`
/// tunes dswap and ddot out of cache on P4E, each run with a private
/// evaluation cache so every strategy pays for its own probes, and one
/// row reports best cycles, speedup over FKO defaults, the evaluation
/// counters and the strategy whose probe found the winner.
pub fn strategies(cfg: &ExpConfig, specs: &[StrategySpec]) -> String {
    use std::fmt::Write;
    let mach = p4e();
    let ctx = Context::OutOfCache;
    let kernels = [BlasOp::Swap, BlasOp::Dot].map(|op| Kernel { op, prec: Prec::D });
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<8} {:>10} {:>8} {:>6} {:>6} {:>6}  winner",
        "strategy", "kernel", "best", "speedup", "evals", "hits", "pruned"
    );
    for spec in specs {
        for k in &kernels {
            let _ = match cfg.tune_config(&mach, ctx).strategy(*spec).tune(*k) {
                Ok(out) => writeln!(
                    s,
                    "{:<10} {:<8} {:>10} {:>7.2}x {:>6} {:>6} {:>6}  {}",
                    spec.name(),
                    k.name(),
                    out.result.best_cycles,
                    out.result.speedup_over_default(),
                    out.result.evaluations,
                    out.result.cache_hits,
                    out.result.pruned,
                    out.result.winner_strategy,
                ),
                Err(e) => writeln!(s, "{:<10} {:<8} FAILED: {e}", spec.name(), k.name()),
            };
        }
    }
    s
}

/// The tunes Figure 7 decomposes: both machines in both contexts.
pub fn figure7_sweeps(exp: Experiment) -> Vec<Sweep> {
    exp.sweep(p4e(), Context::OutOfCache)
        .sweep(opteron(), Context::OutOfCache)
        .sweep(p4e(), Context::InL2)
        .sweep(opteron(), Context::InL2)
        .tune_only()
        .run()
}

/// The paper's Figure 7 as the `figure7` binary prints it: the per-phase
/// decomposition of the search's speedup over FKO on each of its four
/// sweeps ([`figure7_sweeps`]), and the overall average.
pub fn figure7(sweeps: &[Sweep]) -> String {
    use std::fmt::Write;
    let mut out = String::from("Figure 7. Speedup of ifko over FKO, by tuned transformation\n\n");
    let mut grand: Vec<f64> = Vec::new();
    for sweep in sweeps {
        let tunes = sweep.rows.iter().filter_map(|r| r.tune.as_ref());
        grand.extend(tunes.map(|t| t.result.speedup_over_default()));
        let _ = writeln!(out, "{}", format_figure7(&sweep.title(), &sweep.rows));
    }
    if !grand.is_empty() {
        let avg = grand.iter().sum::<f64>() / grand.len() as f64;
        let _ = writeln!(
            out,
            "Overall: empirically-tuned kernels run {avg:.2}x faster than \
             statically-tuned FKO on average (paper: 1.38x)"
        );
    }
    out
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
            seed: 1,
            use_cache: false,
            ..ExpConfig::new(true)
        }
    }

    #[test]
    fn unknown_flag_is_a_parse_error() {
        let cmd = Command::new("table3", FLAGS);
        let parse = |args: &[&str]| cmd.parse(args.iter().map(|a| a.to_string()));
        let err = parse(&["--quick", "--job", "4"]).err();
        assert_eq!(err.as_deref(), Some("unknown flag `--job`"));
        let given = parse(&["--quick", "--no-cache", "--jobs", "4"]).unwrap();
        let cfg = ExpConfig::from_flags(&given).unwrap();
        assert!(cfg.quick && !cfg.use_cache);
        assert_eq!(cfg.tune_config(&p4e(), Context::InL2).jobs_of(), 4);
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
