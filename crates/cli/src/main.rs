//! `ifko` — the command-line driver of the iterative/empirical compiler.
//!
//! ```text
//! ifko analyze  kernel.hil [--machine p4e|opteron]
//! ifko compile  kernel.hil [--machine M] [--scalar] [--ur N] [--ae N]
//!                          [--wnt] [--pf-dist BYTES] [--no-pf]
//! ifko tune     kernel.hil [--machine M] [--context oc|ic] [--n N]
//!                          [--seed S] [--full] [--jobs N] [--workers N]
//!                          [--trace PATH]
//!                          [--trace-chrome PATH] [--timeseries PATH]
//!                          [--metrics PATH] [--verify-ir] [--no-prune]
//!                          [--strategy line|random|hillclimb|anneal|portfolio]
//!                          [--budget PROBES|WALL] [--warm-start] [--db DIR]
//!                          [--model-prune FRAC] [--remote SOCKET]
//!                          [--chaos SEED[:RATE]] [--max-retries N]
//! ifko lint     kernel.hil [kernel2.hil ...] [--machine M]
//!                          [--format text|json]
//! ifko report   trace.jsonl [trace2.jsonl ...] [--format text|json|md]
//! ifko explain  trace.jsonl [trace2.jsonl ...] [--format text|json|md]
//!                          [--db DIR] [--check-chrome FILE]
//! ifko daemon   <ping|stop|metrics|stats|compact> [--socket PATH]
//! ifko worker   (candidate-evaluation worker on stdin/stdout; spawned
//!                by `tune --workers N`, rarely run by hand)
//! ifko db       <stats|compact|prune> [--rev-missing] [--db DIR]
//!                          [--format text|json]
//! ifko pack     [--db DIR] [--out FILE] [--socket PATH]
//! ifko install  ARTIFACT [--db DIR] [--no-verify]
//! ```
//!
//! `analyze` prints what FKO reports back to the search (paper §2.2.2);
//! `compile` runs the full pipeline at explicit parameters and dumps the
//! generated pseudo-assembly; `tune` runs the empirical line search with
//! differential verification against the untransformed build and reports
//! the winning parameters — for *any* kernel written in the HIL, not only
//! the BLAS suite (`--workers N` dispatches candidate evaluations to a
//! pool of `ifko worker` child processes over a length-prefixed JSON
//! wire protocol, with bit-identical results to in-process evaluation;
//! `--strategy` swaps the search driver, `--budget` caps
//! its probes or wall-clock, and `--warm-start`/`--db` persist winners in
//! the tuned-results database; `--model-prune FRAC` lets the static cost
//! model skip the predicted-worst fraction of every batch before it
//! compiles — 0, the default, keeps predictions trace-only;
//! `--chaos SEED[:RATE]` injects deterministic
//! compile/tester/timer/persistence faults to exercise the retry and
//! recovery paths, with `--max-retries` bounding the per-candidate retry
//! budget); `lint` runs the front end, the tuning-opportunity
//! analysis, and the inter-stage IR verifier over kernel files without
//! tuning anything, and exits nonzero iff an error-severity diagnostic
//! fires; `report` analyzes search traces written by `--trace`
//! (convergence, per-phase attribution, stage time breakdown, cache
//! effectiveness); `explain` answers *why* the winner won: it diffs the
//! winner's hardware counters against the baseline and each probe's
//! nearest neighbor (one parameter changed), prints a per-transform
//! microarchitectural attribution table plus a bottleneck
//! classification, cross-checks the tuned-results database with
//! `--db DIR`, and `--check-chrome FILE` validates a `--trace-chrome`
//! Chrome/Perfetto trace (JSON parses, spans nest).
//!
//! The daemon-facing commands talk to a running `ifkod` over its Unix
//! socket: `tune --remote SOCKET` ships the tune to the daemon (shared
//! eval cache + tuned-results index, so repeats warm-start without
//! touching disk); `daemon <cmd>` is the control plane. `db` inspects,
//! compacts, or prunes (`prune --rev-missing` drops records from repo
//! revisions other than the current checkout's) a tuned-results
//! database in place, and
//! `pack`/`install` move winners between machines as a checksummed,
//! re-verified tune-cache artifact.

use ifko::artifact;
use ifko::report::{parse_json, report_files, Json, ReportFormat};
use ifko::strategy::TunedDb;
use ifko_daemon::client::{Client, TuneRequest};
use ifko_fko::{
    analyze_kernel, lint_analysis, CompileError, CompileOpts, CompileSession, Diagnostic, Severity,
    TransformParams,
};
use ifko_xsim::{asm, p4e, MachineConfig};
use std::process::ExitCode;

mod args;
use args::Args;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!(
            "usage: ifko <analyze|compile|tune|lint|report|explain|daemon|db|pack|install> [options]"
        );
        return ExitCode::from(2);
    }
    let cmd = argv.remove(0);
    // `report`, `explain`, `lint`, and the database/daemon commands do
    // not take one kernel file: they have their own tiny flag loops
    // instead of the shared `Args`.
    // `ifko worker`: become a candidate-evaluation worker speaking the
    // wire protocol on stdin/stdout until shutdown or EOF (spawned by a
    // `--workers N` dispatcher; see `ifko::worker`).
    if cmd == "worker" {
        return match ifko::worker::serve_stdio() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ifko: worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let "daemon" | "db" | "pack" | "install" | "report" | "explain" = cmd.as_str() {
        let r = match cmd.as_str() {
            "daemon" => cmd_daemon(argv),
            "db" => cmd_db(argv),
            "pack" => cmd_pack(argv),
            "install" => cmd_install(argv),
            "report" => cmd_report(argv),
            _ => cmd_explain(argv),
        };
        return match r {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ifko: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cmd == "lint" {
        return match cmd_lint(argv) {
            Ok(clean) => {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("ifko: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ifko: {e}");
            return ExitCode::from(2);
        }
    };
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ifko: cannot read {}: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    let Some(machine) = MachineConfig::by_name(&args.machine) else {
        eprintln!("ifko: unknown machine `{}` (p4e | opteron)", args.machine);
        return ExitCode::from(2);
    };

    let r = match cmd.as_str() {
        "analyze" => cmd_analyze(&src, &machine),
        "compile" => cmd_compile(&src, &machine, &args),
        "tune" => cmd_tune(&src, &args),
        other => {
            eprintln!("ifko: unknown command `{other}`");
            return ExitCode::from(2);
        }
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ifko: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_report(argv: Vec<String>) -> Result<(), String> {
    let mut files: Vec<String> = Vec::new();
    let mut format = ReportFormat::Text;
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--format" | "-f" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = ReportFormat::parse(&v)
                    .ok_or_else(|| format!("unknown format `{v}` (text | json | md)"))?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err("no trace files given (usage: ifko report TRACE.jsonl... [--format F])".into());
    }
    let out = report_files(&files, format).map_err(|e| e.to_string())?;
    print!("{out}");
    Ok(())
}

/// `ifko explain TRACE.jsonl... [--format F] [--db DIR] [--check-chrome
/// FILE]`: microarchitectural attribution over a search trace — which
/// transform bought which counter deltas, and what the winner is bound
/// by. `--check-chrome` instead validates a `--trace-chrome` output
/// (parses as JSON, spans nest) so CI needs no external JSON tooling.
fn cmd_explain(argv: Vec<String>) -> Result<(), String> {
    let mut files: Vec<String> = Vec::new();
    let mut format = ReportFormat::Text;
    let mut db_dir: Option<String> = None;
    let mut check_chrome: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--format" | "-f" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = ReportFormat::parse(&v)
                    .ok_or_else(|| format!("unknown format `{v}` (text | json | md)"))?;
            }
            "--db" => db_dir = Some(it.next().ok_or("--db needs a value")?),
            "--check-chrome" => {
                check_chrome = Some(it.next().ok_or("--check-chrome needs a value")?)
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            file => files.push(file.to_string()),
        }
    }
    if let Some(path) = &check_chrome {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let summary = ifko::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok ({} events: {} span slices, {} candidate slices)",
            summary.events, summary.spans, summary.evals
        );
        if files.is_empty() {
            return Ok(());
        }
    }
    if files.is_empty() {
        return Err(
            "no trace files given (usage: ifko explain TRACE.jsonl... [--format F] [--db DIR] [--check-chrome FILE])"
                .into(),
        );
    }
    let db = match &db_dir {
        Some(dir) => Some(TunedDb::open(dir).map_err(|e| format!("--db {dir}: {e}"))?),
        None => None,
    };
    let out = ifko::explain_files(&files, format, db.as_ref()).map_err(|e| e.to_string())?;
    print!("{out}");
    Ok(())
}

/// `ifko lint FILE... [--machine M] [--format text|json]`: front end +
/// tuning-opportunity analysis + full pipeline with the inter-stage IR
/// verifier forced on, under both everything-off and FKO-default
/// parameters. Returns `Ok(true)` when no error-severity diagnostic
/// fired (notes and warnings are advice, not failures).
fn cmd_lint(argv: Vec<String>) -> Result<bool, String> {
    let mut files: Vec<String> = Vec::new();
    let mut machine = p4e();
    let mut json = false;
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--machine" | "-m" => {
                let v = it.next().ok_or("--machine needs a value")?;
                machine = MachineConfig::by_name(&v)
                    .ok_or_else(|| format!("unknown machine `{v}` (p4e | opteron)"))?;
            }
            "--format" | "-f" => {
                let v = it.next().ok_or("--format needs a value")?;
                json = match v.as_str() {
                    "text" => false,
                    "json" => true,
                    other => return Err(format!("unknown format `{other}` (text | json)")),
                };
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err("no kernel files given (usage: ifko lint FILE.hil... [--machine M] [--format text|json])".into());
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut out_json = String::from("{\"files\":[");
    for (fi, file) in files.iter().enumerate() {
        let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let diags = lint_file(&src, &machine);
        errors += diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        warnings += diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        if json {
            if fi > 0 {
                out_json.push(',');
            }
            out_json.push_str(&format!(
                "{{\"file\":\"{}\",\"diagnostics\":[",
                ifko_fko::diag::json_escape(file)
            ));
            for (i, d) in diags.iter().enumerate() {
                if i > 0 {
                    out_json.push(',');
                }
                out_json.push_str(&d.to_json());
            }
            out_json.push_str("]}");
        } else {
            for d in &diags {
                println!("{file}: {}", d.render_text());
            }
        }
    }
    if json {
        out_json.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
        println!("{out_json}");
    } else {
        println!(
            "{} file(s) checked: {errors} error(s), {warnings} warning(s)",
            files.len()
        );
    }
    Ok(errors == 0)
}

/// All diagnostics for one kernel source: pipeline errors flattened to
/// the shared `Diagnostic` shape, analysis advice, and anything the IR
/// verifier catches between stages (deduplicated across the two
/// parameter points).
fn lint_file(src: &str, machine: &MachineConfig) -> Vec<Diagnostic> {
    let sess = match CompileSession::from_source(src, machine) {
        Ok(s) => s,
        Err(e) => return e.diagnostics().to_vec(),
    };
    let mut diags = lint_analysis(sess.report());
    // Cost-model advice (A105–A108): static predictions at FKO defaults.
    diags.extend(ifko_fko::lint_costmodel(sess.ir(), sess.report(), machine));
    for params in [
        TransformParams::off(),
        TransformParams::defaults(sess.report(), machine),
    ] {
        if let Err(e) = sess.compile(&params, CompileOpts::verify(true)) {
            // `off()` must always compile; `defaults` can fail only if the
            // compiler itself is broken — both are reportable.
            let is_verify = matches!(e, CompileError::Verify(..));
            for d in e.diagnostics() {
                if !diags.contains(d) {
                    diags.push(d.clone());
                }
            }
            if is_verify {
                break; // the second point would re-report the same bug
            }
        }
    }
    diags
}

fn cmd_analyze(src: &str, machine: &MachineConfig) -> Result<(), String> {
    let (ir, rep) = analyze_kernel(src, machine).map_err(|e| e.to_string())?;
    println!("kernel       : {} ({:?})", ir.name, ir.prec);
    println!("machine      : {}", rep.arch.name);
    for (i, (size, line)) in rep.arch.caches.iter().enumerate() {
        println!("cache L{}     : {} KB, {}B lines", i + 1, size / 1024, line);
    }
    println!("L_e          : {} elements per line", rep.arch.line_elems);
    println!(
        "tuned loop   : {}",
        if rep.has_tuned_loop { "found" } else { "NONE" }
    );
    println!("max unroll   : {}", rep.max_unroll);
    match &rep.vectorizable {
        Ok(()) => println!("vectorizable : yes"),
        Err(b) => println!("vectorizable : no ({b})"),
    }
    println!(
        "AE candidates: {}",
        if rep.ae_candidates.is_empty() {
            "none".to_string()
        } else {
            format!("{} accumulator(s)", rep.ae_candidates.len())
        }
    );
    let pf: Vec<String> = rep
        .pf_candidates
        .iter()
        .map(|p| ir.ptrs[p.0 as usize].name.clone())
        .collect();
    println!(
        "PF candidates: {}",
        if pf.is_empty() {
            "none".into()
        } else {
            pf.join(", ")
        }
    );
    let wnt: Vec<String> = rep
        .wnt_candidates
        .iter()
        .map(|p| ir.ptrs[p.0 as usize].name.clone())
        .collect();
    println!(
        "WNT targets  : {}",
        if wnt.is_empty() {
            "none".into()
        } else {
            wnt.join(", ")
        }
    );
    println!("\nscalars (vreg: role, sets/uses):");
    for s in &rep.scalars {
        println!("  v{:<4} {:?}  {}/{}", s.vreg, s.role, s.sets, s.uses);
    }
    Ok(())
}

fn cmd_compile(src: &str, machine: &MachineConfig, args: &Args) -> Result<(), String> {
    let sess = CompileSession::from_source(src, machine).map_err(|e| e.to_string())?;
    let rep = sess.report();
    let mut p = TransformParams::defaults(rep, machine);
    if args.scalar {
        p.simd = false;
    }
    if let Some(ur) = args.ur {
        p.unroll = ur;
    }
    if let Some(ae) = args.ae {
        p.accum_expand = ae;
    }
    if args.wnt {
        p.wnt = true;
    }
    if args.no_pf {
        p.prefetch.clear();
    } else if let Some(d) = args.pf_dist {
        for s in &mut p.prefetch {
            s.dist = d;
        }
    }
    let compiled = sess
        .compile(&p, CompileOpts::default())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "# {} for {}: {} instructions, frame {} bytes",
        compiled.name,
        machine.name,
        compiled.program.len(),
        compiled.frame_bytes
    );
    print!("{}", asm::disassemble(&compiled.program));
    Ok(())
}

fn cmd_tune(src: &str, args: &Args) -> Result<(), String> {
    // The request a daemon would be sent is also what is tuned here:
    // `TuneRequest::config` is the one place its defaults are filled in.
    let request = TuneRequest {
        kernel: None,
        src: Some(src.to_string()),
        machine: args.machine.clone(),
        context: args.context.clone(),
        n: args.n,
        seed: Some(args.seed),
        full: args.full,
        strategy: args.strategy.clone(),
        budget: args.budget.clone(),
    };
    if let Some(socket) = &args.remote {
        return cmd_tune_remote(&request, args, socket);
    }
    let mut cfg = request.config()?;
    let (machine, context, n) = (cfg.machine_ref().name, cfg.context_of(), cfg.size());
    let strategy = cfg.strategy_of();
    cfg = cfg
        .verify_ir(args.verify_ir)
        .prune(!args.no_prune)
        .profile_pipeline(args.profile_pipeline)
        .jobs(args.jobs);
    if args.workers > 0 {
        // Workers are this same binary re-invoked as `ifko worker`, so
        // the pool works from any build/install location.
        let exe = std::env::current_exe().map_err(|e| format!("--workers: {e}"))?;
        cfg = cfg
            .workers(args.workers)
            .worker_launcher(ifko::worker::WorkerLauncher::new(exe).arg("worker"));
        eprintln!(
            "worker pool: dispatching evaluations to {} ifko worker processes",
            args.workers
        );
    }
    if let Some(spec) = &args.chaos {
        let plan = ifko::FaultPlan::parse(spec).map_err(|e| format!("--chaos: {e}"))?;
        eprintln!(
            "chaos fault injection on: seed {:#x}, rate {}",
            plan.seed, plan.compile
        );
        cfg = cfg.faults(plan);
    }
    if let Some(r) = args.max_retries {
        cfg = cfg.max_retries(r);
    }
    if let Some(frac) = args.model_prune {
        cfg = cfg.model_prune(frac);
        eprintln!(
            "cost-model pruning on: dropping worst {:.0}% of each batch by predicted cycles",
            frac * 100.0
        );
    }
    // `--db DIR` attaches an explicit database; `--warm-start` alone uses
    // the conventional `results/db`.
    if args.db.is_some() || args.warm_start {
        let dir = args.db.clone().unwrap_or_else(|| "results/db".to_string());
        cfg = cfg.tuned_db(&dir).map_err(|e| format!("--db {dir}: {e}"))?;
        eprintln!("tuned-results database: {dir} (one journal, tuned.jsonl)");
    }
    if let Some(path) = &args.trace {
        cfg = cfg
            .trace_file(path)
            .map_err(|e| format!("--trace {path}: {e}"))?;
        eprintln!("tracing evaluations to {path}");
    }
    // The Chrome sink handle is kept so the pipeline stage profile can be
    // appended as its own track after the tune finishes.
    let chrome = match &args.trace_chrome {
        Some(path) => {
            let sink = ifko::ChromeTraceSink::create(path)
                .map_err(|e| format!("--trace-chrome {path}: {e}"))?;
            cfg = cfg.trace(sink.clone());
            eprintln!("rendering Chrome/Perfetto trace to {path}");
            Some(sink)
        }
        None => None,
    };
    let timeseries = match &args.timeseries {
        Some(path) => {
            let ts = ifko::metrics::global()
                .timeseries(path, std::time::Duration::from_millis(50))
                .map_err(|e| format!("--timeseries {path}: {e}"))?;
            eprintln!("appending metrics timeseries to {path}");
            Some(ts)
        }
        None => None,
    };
    eprintln!(
        "tuning on {machine} ({}), N={n}, jobs={}, strategy={} ...",
        context.label(),
        args.jobs,
        strategy.name()
    );
    let out = cfg.tune_source(src).map_err(|e| e.to_string())?;
    if let Some(ts) = timeseries {
        ts.stop();
    }
    if let Some(sink) = &chrome {
        sink.add_profile(&out.pipeline_profile);
        sink.write_out().map_err(|e| {
            format!(
                "--trace-chrome {}: {e}",
                args.trace_chrome.as_deref().unwrap_or("")
            )
        })?;
    }
    println!("baseline (untuned) : not measured (search starts at FKO defaults)");
    println!(
        "FKO defaults       : {:>10} cycles",
        out.result.default_cycles
    );
    println!(
        "iFKO best          : {:>10} cycles  ({:.2}x)",
        out.result.best_cycles,
        out.result.speedup_over_default()
    );
    println!(
        "evaluations        : {} ({} rejected, {} cache hits, {} pruned)",
        out.result.evaluations, out.result.rejected, out.result.cache_hits, out.result.pruned
    );
    if out.result.model_pruned > 0 {
        println!(
            "cost-model pruning : {} candidates skipped by predicted rank",
            out.result.model_pruned
        );
    }
    if out.result.retries + out.result.faults + out.result.outliers + out.result.failed > 0 {
        println!(
            "fault handling     : {} faults injected, {} retries, {} outliers rejected, {} failed",
            out.result.faults, out.result.retries, out.result.outliers, out.result.failed
        );
    }
    println!(
        "strategy           : {} (winner found by: {})",
        out.result.strategy, out.result.winner_strategy
    );
    println!("\nwinning parameters:");
    println!(
        "  SV  : {}",
        if out.result.best.simd { "yes" } else { "no" }
    );
    println!("  UR  : {}", out.result.best.unroll);
    println!("  AE  : {}", out.result.best.accum_expand);
    println!("  WNT : {}", if out.result.best.wnt { "yes" } else { "no" });
    for s in &out.result.best.prefetch {
        match s.kind {
            Some(k) => println!("  PF  : array {} -> {}:{}", s.ptr.0, k.abbrev(), s.dist),
            None => println!("  PF  : array {} -> none", s.ptr.0),
        }
    }
    println!("\nper-phase gains:");
    for g in &out.result.gains {
        println!(
            "  {:<7} {:>6.1}%",
            g.phase.label(),
            (g.speedup() - 1.0) * 100.0
        );
    }
    println!("\nwinner feature vector (size-normalized rates):");
    for (name, v) in ifko_xsim::FeatureVector::NAMES
        .iter()
        .zip(&out.features.values)
    {
        println!("  {name:<24} {v:>12.6}");
    }
    if !out.pipeline_profile.is_empty() {
        println!("\npipeline stage profile (wall time per candidate compile):");
        println!(
            "  {:<10} {:>7} {:>9} {:>11} {:>11}",
            "stage", "count", "min_us", "median_us", "total_us"
        );
        for st in &out.pipeline_profile {
            println!(
                "  {:<10} {:>7} {:>9} {:>11} {:>11}",
                st.stage, st.count, st.min_us, st.median_us, st.total_us
            );
        }
    }
    if let Some(path) = &args.metrics {
        ifko::metrics::global()
            .write_snapshot(path)
            .map_err(|e| format!("--metrics {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    Ok(())
}

/// `ifko tune FILE --remote SOCKET`: ship the tune to a running `ifkod`
/// instead of searching in-process. The daemon holds the shared eval
/// cache and tuned-results index, so identical requests coalesce and
/// repeats short-circuit on verified warm starts.
fn cmd_tune_remote(request: &TuneRequest, args: &Args, socket: &str) -> Result<(), String> {
    let ignored = args.local_only();
    if !ignored.is_empty() {
        eprintln!(
            "note: local-only flags ignored with --remote: {}",
            ignored.join(", ")
        );
    }
    let mut client = Client::connect(socket)
        .map_err(|e| format!("--remote {socket}: {e} (is ifkod running?)"))?;
    eprintln!("tuning remotely via {socket} ...");
    let v = client.tune(request)?;
    let num = |k: &str| v.get(k).and_then(|j| j.as_u64()).unwrap_or(0);
    let txt = |k: &str| v.get(k).and_then(|j| j.as_str()).unwrap_or("?").to_string();
    let default_cycles = num("default_cycles");
    let best_cycles = num("best_cycles");
    let speedup = if best_cycles > 0 {
        default_cycles as f64 / best_cycles as f64
    } else {
        0.0
    };
    println!("daemon             : {socket} (machine {})", txt("machine"));
    println!("FKO defaults       : {default_cycles:>10} cycles");
    println!("iFKO best          : {best_cycles:>10} cycles  ({speedup:.2}x)");
    println!(
        "evaluations        : {} ({} cache hits, {} pruned)",
        num("evaluations"),
        num("cache_hits"),
        num("pruned")
    );
    println!(
        "strategy           : {} (winner found by: {})",
        txt("strategy"),
        txt("winner_strategy")
    );
    println!(
        "warm start         : {}",
        if v.get("warm").and_then(|j| j.as_bool()) == Some(true) {
            "yes (answered from the daemon's tuned-results index)"
        } else {
            "no (cold search; winner now cached for the next client)"
        }
    );
    if let Some(p) = v.get("params") {
        let pnum = |k: &str| p.get(k).and_then(|j| j.as_u64()).unwrap_or(0);
        let flag = |k: &str| {
            if p.get(k).and_then(|j| j.as_bool()) == Some(true) {
                "yes"
            } else {
                "no"
            }
        };
        println!("\nwinning parameters:");
        println!("  SV  : {}", flag("simd"));
        println!("  UR  : {}", pnum("unroll"));
        println!("  AE  : {}", pnum("ae"));
        println!("  WNT : {}", flag("wnt"));
        if let Some(Json::Arr(pf)) = p.get("pf") {
            for s in pf {
                let ptr = s.get("ptr").and_then(|j| j.as_u64()).unwrap_or(0);
                match s.get("kind").and_then(|j| j.as_str()) {
                    Some(k) => println!(
                        "  PF  : array {ptr} -> {k}:{}",
                        s.get("dist").and_then(|j| j.as_u64()).unwrap_or(0)
                    ),
                    None => println!("  PF  : array {ptr} -> none"),
                }
            }
        }
    }
    Ok(())
}

/// `ifko daemon <ping|stop|metrics|stats|compact> [--socket PATH]`: the
/// control plane for a running `ifkod`.
fn cmd_daemon(argv: Vec<String>) -> Result<(), String> {
    let mut socket = "results/ifkod.sock".to_string();
    let mut sub: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--socket" | "-s" => socket = it.next().ok_or("--socket needs a value")?,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            word if sub.is_none() => sub = Some(word.to_string()),
            word => return Err(format!("unexpected argument `{word}`")),
        }
    }
    let sub = sub.ok_or("usage: ifko daemon <ping|stop|metrics|stats|compact> [--socket PATH]")?;
    let mut client =
        Client::connect(&socket).map_err(|e| format!("{socket}: {e} (is ifkod running?)"))?;
    match sub.as_str() {
        "ping" => {
            client.ping()?;
            println!("ifkod at {socket}: alive");
        }
        "stop" => {
            client.shutdown()?;
            println!("ifkod at {socket}: shutting down");
        }
        "metrics" => print!("{}", client.metrics()?),
        "stats" => print_db_stats(&client.stats()?),
        "compact" => {
            let stats = client.compact()?;
            println!("compacted the journal");
            print_db_stats(&stats);
        }
        other => {
            return Err(format!(
                "unknown daemon command `{other}` (ping | stop | metrics | stats | compact)"
            ))
        }
    }
    Ok(())
}

/// `ifko db <stats|compact|prune> [--rev-missing] [--db DIR]
/// [--format text|json]`: inspect, compact, or prune a tuned-results
/// database in place, no daemon needed. `prune
/// --rev-missing` drops every record stored under a repo revision other
/// than the current checkout's — stale revisions can never answer an
/// exact warm-start lookup, so they only cost space.
fn cmd_db(argv: Vec<String>) -> Result<(), String> {
    let mut dir = "results/db".to_string();
    let mut json = false;
    let mut rev_missing = false;
    let mut sub: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--db" => dir = it.next().ok_or("--db needs a value")?,
            "--rev-missing" => rev_missing = true,
            "--format" | "-f" => {
                json = match it.next().ok_or("--format needs a value")?.as_str() {
                    "text" => false,
                    "json" => true,
                    other => return Err(format!("unknown format `{other}` (text | json)")),
                }
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            word if sub.is_none() => sub = Some(word.to_string()),
            word => return Err(format!("unexpected argument `{word}`")),
        }
    }
    let sub = sub.ok_or(
        "usage: ifko db <stats|compact|prune> [--rev-missing] [--db DIR] [--format text|json]",
    )?;
    if rev_missing && sub != "prune" {
        return Err("--rev-missing only applies to `ifko db prune`".into());
    }
    let db = TunedDb::open(&dir).map_err(|e| format!("--db {dir}: {e}"))?;
    let mut pruned = 0usize;
    let stats = match sub.as_str() {
        "stats" => db.stats(),
        "compact" => db.compact(),
        "prune" => {
            if !rev_missing {
                return Err("ifko db prune requires a criterion: --rev-missing".into());
            }
            pruned = db.prune_missing_rev();
            db.stats()
        }
        other => {
            return Err(format!(
                "unknown db command `{other}` (stats | compact | prune)"
            ))
        }
    };
    if json {
        if sub == "prune" {
            println!("{{\"pruned\":{pruned},\"stats\":{}}}", stats.to_json());
        } else {
            println!("{}", stats.to_json());
        }
    } else {
        println!("tuned-results database: {dir}");
        if sub == "compact" {
            println!("compacted the journal");
        }
        if sub == "prune" {
            println!(
                "pruned {pruned} record(s) from revisions other than {}",
                db.rev()
            );
        }
        let rendered = parse_json(&stats.to_json()).ok_or("stats rendering failed")?;
        print_db_stats(&rendered);
    }
    Ok(())
}

/// Text rendering of a `DbStats` JSON object — shared by `ifko db` and
/// `ifko daemon stats|compact`.
fn print_db_stats(v: &Json) {
    let num = |k: &str| v.get(k).and_then(|j| j.as_u64()).unwrap_or(0);
    let (live, lines, dead) = (num("live"), num("file_lines"), num("dead"));
    let ratio = if lines > 0 {
        dead as f64 / lines as f64 * 100.0
    } else {
        0.0
    };
    println!("live records : {live}");
    println!("file lines   : {lines}");
    println!("dead records : {dead} ({ratio:.1}% of lines)");
    println!("bytes        : {}", num("bytes"));
}

/// `ifko pack [--db DIR] [--out FILE] [--socket PATH]`: export a
/// tuned-results database as a self-describing, checksummed tune-cache
/// artifact — from the database directory, or from a live daemon's
/// in-memory index with `--socket`.
fn cmd_pack(argv: Vec<String>) -> Result<(), String> {
    let mut dir = "results/db".to_string();
    let mut out: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--db" => dir = it.next().ok_or("--db needs a value")?,
            "--out" | "-o" => out = Some(it.next().ok_or("--out needs a value")?),
            "--socket" | "-s" => socket = Some(it.next().ok_or("--socket needs a value")?),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let text = match &socket {
        Some(sock) => Client::connect(sock)
            .map_err(|e| format!("{sock}: {e} (is ifkod running?)"))?
            .pack()?,
        None => artifact::pack(&TunedDb::open(&dir).map_err(|e| format!("--db {dir}: {e}"))?),
    };
    let records = artifact::parse(&text)?.records.len();
    match &out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("--out {path}: {e}"))?;
            eprintln!("packed {records} record(s) to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `ifko install ARTIFACT [--db DIR] [--no-verify]`: import a tune-cache
/// artifact into a database. Every record is re-verified on this build
/// before it is trusted (bit-exact differential check against the
/// untransformed kernel); records that fail are rejected, records this
/// build cannot check (foreign machine, unknown kernel) install anyway
/// because the tune-time warm path re-verifies before use.
fn cmd_install(argv: Vec<String>) -> Result<(), String> {
    let mut dir = "results/db".to_string();
    let mut verify = true;
    let mut file: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--db" => dir = it.next().ok_or("--db needs a value")?,
            "--no-verify" => verify = false,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            word if file.is_none() => file = Some(word.to_string()),
            word => return Err(format!("unexpected argument `{word}`")),
        }
    }
    let file = file.ok_or("usage: ifko install ARTIFACT [--db DIR] [--no-verify]")?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let db = TunedDb::open(&dir).map_err(|e| format!("--db {dir}: {e}"))?;
    let report = artifact::install(&text, &db, verify)?;
    for (key, why) in &report.rejected {
        eprintln!("rejected {key}: {why}");
    }
    println!(
        "installed {} record(s) into {dir} ({} verified, {} unverifiable, {} rejected)",
        report.installed,
        report.verified,
        report.unverified,
        report.rejected.len()
    );
    if report.installed == 0 && !report.rejected.is_empty() {
        return Err("every record was rejected by re-verification".to_string());
    }
    Ok(())
}
