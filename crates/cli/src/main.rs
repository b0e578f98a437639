//! `ifko` — the command-line driver of the iterative/empirical compiler.
//! `ifko --help` lists the commands and `ifko <command> --help` a
//! command's flags, both rendered from the tables in [`args`]. `tune`
//! tunes *any* kernel written in the HIL, not only the BLAS suite; with
//! `--remote SOCKET` it ships the tune to a running `ifkod` (shared eval
//! cache + tuned-results index, so repeats warm-start without touching
//! disk), and `daemon`, `db`, `pack` and `install` manage the daemon and
//! the tuned-results databases it and local tunes share.

use ifko::artifact;
use ifko::flags::{self, Given, TuneFlags};
use ifko::json::{obj, Array, Raw};
use ifko::report::{parse_json, read_trace, report_files, Json, ReportFormat};
use ifko::strategy::db::params_from_json;
use ifko::strategy::TunedDb;
use ifko::worker::WorkerLauncher;
use ifko_daemon::client::{Client, TuneRequest};
use ifko_fko::{
    analyze_kernel, lint_analysis, CompileError, CompileOpts, CompileSession, Diagnostic, Severity,
    TransformParams,
};
use ifko_xsim::{asm, p4e, MachineConfig};
use std::process::ExitCode;

mod args;

fn main() -> ExitCode {
    let mut argv = flags::args();
    let name = argv.first().cloned().unwrap_or_default();
    let Some(cmd) = args::COMMANDS
        .iter()
        .find(|c| c.name.strip_prefix("ifko ") == Some(name.as_str()))
    else {
        // `ifko --help` asks for the command list; anything else is refused
        // with it.
        let mut help = String::from("usage: ifko <command> [flags]\n\ncommands:\n");
        for c in args::COMMANDS {
            help += &format!("  {}\n      {}\n", c.usage(), c.about);
        }
        if name == "--help" || name == "-h" {
            print!("{help}");
            return ExitCode::SUCCESS;
        }
        let unknown = format!("unknown command `{name}`\n{help}");
        flags::refuse("ifko", if name.is_empty() { &help } else { &unknown });
    };
    let given = cmd.parse_or_exit(argv.split_off(1));
    let r = match name.as_str() {
        // Become a candidate-evaluation worker speaking the wire protocol
        // on stdin/stdout until shutdown or EOF (spawned by a `--workers
        // N` dispatcher; see `ifko::worker`).
        "worker" => ifko::worker::serve_stdio().map_err(|e| format!("worker: {e}")),
        "analyze" => cmd_analyze(&given),
        "compile" => cmd_compile(&given),
        "tune" => cmd_tune(&given),
        "lint" => match cmd_lint(&given) {
            Ok(clean) if !clean => return ExitCode::FAILURE,
            r => r.map(|_| ()),
        },
        "report" => cmd_report(&given),
        "explain" => cmd_explain(&given),
        "daemon" => cmd_daemon(&given),
        "db" => cmd_db(&given),
        "pack" => cmd_pack(&given),
        _ => cmd_install(&given),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ifko: {e}");
            // The work itself failed (1), or the command line asked for
            // something that cannot be done (2).
            let worked = matches!(name.as_str(), "worker" | "analyze" | "compile" | "tune");
            ExitCode::from(if worked { 1 } else { 2 })
        }
    }
}

/// The kernel source named by the command's one positional; a file that
/// cannot be read refuses the command line.
fn source(given: &Given) -> String {
    let file = &given.positional[0];
    std::fs::read_to_string(file)
        .unwrap_or_else(|e| flags::refuse("ifko", &format!("cannot read {file}: {e}")))
}

fn machine(given: &Given) -> MachineConfig {
    given.get("--machine").unwrap_or_else(p4e)
}

/// `ifko report`: the analysis of one or more traces, or — `--format
/// chrome` — one trace rendered for Perfetto. Span ids restart in every
/// process, so the spans of two traces cannot be told apart: Chrome reads
/// one.
fn cmd_report(given: &Given) -> Result<(), String> {
    let (files, n) = (&given.positional, given.positional.len());
    let out = match given.get("--format").unwrap_or(Some(ReportFormat::Text)) {
        Some(format) => report_files(files, format),
        None if n > 1 => return Err(format!("--format chrome reads one trace, not {n}")),
        None => read_trace(&files[0]).map(|t| ifko::chrome::render_chrome(&t.events)),
    };
    print!("{}", out.map_err(|e| e.to_string())?);
    Ok(())
}

/// `ifko explain`: microarchitectural attribution over a search trace —
/// which transform bought which counter deltas, and what the winner is
/// bound by.
fn cmd_explain(given: &Given) -> Result<(), String> {
    let files = &given.positional;
    let db = match given.raw("--db") {
        Some(dir) => Some(TunedDb::open(dir).map_err(|e| format!("--db {dir}: {e}"))?),
        None => None,
    };
    let format = given.get("--format").unwrap_or(ReportFormat::Text);
    let out = ifko::explain_files(files, format, db.as_ref()).map_err(|e| e.to_string())?;
    print!("{out}");
    Ok(())
}

/// `ifko lint`: front end + tuning-opportunity analysis + full pipeline
/// with the inter-stage IR verifier forced on, under both everything-off
/// and FKO-default parameters. Returns `Ok(true)` when no error-severity
/// diagnostic fired (notes and warnings are advice, not failures).
fn cmd_lint(given: &Given) -> Result<bool, String> {
    let files = &given.positional;
    let machine = machine(given);
    let json = given.get("--format").unwrap_or(false);
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut out_json = Vec::new();
    for file in files {
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
            let diags: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
            let diags = Array(diags.iter().map(|d| Raw(d)));
            out_json.push(obj().field("file", file).field("diagnostics", diags));
        } else {
            for d in &diags {
                println!("{file}: {}", d.render_text());
            }
        }
    }
    if json {
        let out = obj()
            .field("files", Array(&out_json))
            .field("errors", errors)
            .field("warnings", warnings);
        println!("{}", out.finish());
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

fn cmd_analyze(given: &Given) -> Result<(), String> {
    let (ir, rep) = analyze_kernel(&source(given), &machine(given)).map_err(|e| e.to_string())?;
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
    let names = |ptrs: &[ifko_fko::ir::PtrId]| match ptrs {
        [] => "none".to_string(),
        _ => ptrs
            .iter()
            .map(|p| ir.ptrs[p.0 as usize].name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
    };
    println!("PF candidates: {}", names(&rep.pf_candidates));
    println!("WNT targets  : {}", names(&rep.wnt_candidates));
    println!("\nscalars (vreg: role, sets/uses):");
    for s in &rep.scalars {
        println!("  v{:<4} {:?}  {}/{}", s.vreg, s.role, s.sets, s.uses);
    }
    Ok(())
}

fn cmd_compile(given: &Given) -> Result<(), String> {
    let machine = &machine(given);
    let sess = CompileSession::from_source(&source(given), machine).map_err(|e| e.to_string())?;
    let rep = sess.report();
    let mut p = TransformParams::defaults(rep, machine);
    if given.has("--scalar") {
        p.simd = false;
    }
    if let Some(ur) = given.get("--ur") {
        p.unroll = ur;
    }
    if let Some(ae) = given.get("--ae") {
        p.accum_expand = ae;
    }
    if given.has("--wnt") {
        p.wnt = true;
    }
    if given.has("--no-pf") {
        p.prefetch.clear();
    } else if let Some(d) = given.get("--pf-dist") {
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

fn cmd_tune(given: &Given) -> Result<(), String> {
    let src = source(given);
    // The request a daemon would be sent is also what is tuned here:
    // `TuneRequest::config` is the one place its defaults are filled in.
    let request = args::tune_request(given, &src);
    if let Some(socket) = given.raw("--remote") {
        return cmd_tune_remote(&request, &given.local_only(), socket);
    }
    let mut cfg = request
        .config()?
        .verify_ir(given.has("--verify-ir"))
        .prune(!given.has("--no-prune"));
    // Workers are this same binary re-invoked as `ifko worker`, so the
    // pool works from any build/install location.
    if let Ok(exe) = std::env::current_exe() {
        cfg = cfg.worker_launcher(WorkerLauncher::new(exe).arg("worker"));
    }
    let run = TuneFlags::open(given, cfg).unwrap_or_else(|e| flags::refuse("ifko", &e));
    let cfg = &run.base;
    let (machine, context, n) = (cfg.machine_ref().name, cfg.context_of().label(), cfg.size());
    let (jobs, strategy) = (cfg.jobs_of(), cfg.strategy_of().name());
    eprintln!("tuning on {machine} ({context}), N={n}, jobs={jobs}, strategy={strategy} ...");
    let out = cfg.tune_source(&src).map_err(|e| e.to_string())?;
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
    print_winner(&out.result.best);
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
    run.finish()
}

/// `ifko tune FILE --remote SOCKET`: ship the tune to a running `ifkod`
/// instead of searching in-process. The daemon holds the shared eval
/// cache and tuned-results index, so identical requests coalesce and
/// repeats short-circuit on verified warm starts.
fn cmd_tune_remote(request: &TuneRequest, ignored: &[&str], socket: &str) -> Result<(), String> {
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
    if let Some(p) = v.get("params").and_then(params_from_json) {
        print_winner(&p);
    }
    Ok(())
}

/// The winning-parameters block of `ifko tune`, in-process or remote.
fn print_winner(p: &TransformParams) {
    let yes = |on: bool| if on { "yes" } else { "no" };
    println!("\nwinning parameters:");
    println!("  SV  : {}", yes(p.simd));
    println!("  UR  : {}", p.unroll);
    println!("  AE  : {}", p.accum_expand);
    println!("  WNT : {}", yes(p.wnt));
    for s in &p.prefetch {
        match s.kind {
            Some(k) => println!("  PF  : array {} -> {}:{}", s.ptr.0, k.abbrev(), s.dist),
            None => println!("  PF  : array {} -> none", s.ptr.0),
        }
    }
}

/// `ifko daemon <cmd>`: the control plane for a running `ifkod`.
fn cmd_daemon(given: &Given) -> Result<(), String> {
    let socket = given.raw("--socket").unwrap_or("results/ifkod.sock");
    let sub = &given.positional[0];
    let mut client =
        Client::connect(socket).map_err(|e| format!("{socket}: {e} (is ifkod running?)"))?;
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

/// `ifko db <stats|compact|prune>`: inspect, compact, or prune a
/// tuned-results database in place, no daemon needed. `prune
/// --rev-missing` drops every record stored under a repo revision other
/// than the current checkout's — stale revisions can never answer an
/// exact warm-start lookup, so they only cost space.
fn cmd_db(given: &Given) -> Result<(), String> {
    let dir = given.raw("--db").unwrap_or("results/db");
    let json = given.get("--format").unwrap_or(false);
    let rev_missing = given.has("--rev-missing");
    let sub = &given.positional[0];
    if rev_missing && sub != "prune" {
        return Err("--rev-missing only applies to `ifko db prune`".into());
    }
    let db = TunedDb::open(dir).map_err(|e| format!("--db {dir}: {e}"))?;
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
            let stats = stats.to_json();
            let out = obj().field("pruned", pruned).field("stats", Raw(&stats));
            println!("{}", out.finish());
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

/// `ifko pack`: export a tuned-results database as a self-describing,
/// checksummed tune-cache artifact — from the database directory, or
/// from a live daemon's in-memory index with `--socket`.
fn cmd_pack(given: &Given) -> Result<(), String> {
    let dir = given.raw("--db").unwrap_or("results/db");
    let text = match given.raw("--socket") {
        Some(sock) => Client::connect(sock)
            .map_err(|e| format!("{sock}: {e} (is ifkod running?)"))?
            .pack()?,
        None => artifact::pack(&TunedDb::open(dir).map_err(|e| format!("--db {dir}: {e}"))?),
    };
    let records = artifact::parse(&text)?.records.len();
    match given.raw("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("--out {path}: {e}"))?;
            eprintln!("packed {records} record(s) to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `ifko install ARTIFACT`: import a tune-cache artifact into a
/// database. Every record is re-verified on this build before it is
/// trusted (bit-exact differential check against the untransformed
/// kernel) unless `--no-verify`; records that fail are rejected, records
/// this build cannot check (foreign machine, unknown kernel) install
/// anyway because the tune-time warm path re-verifies before use.
fn cmd_install(given: &Given) -> Result<(), String> {
    let dir = given.raw("--db").unwrap_or("results/db");
    let file = &given.positional[0];
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let db = TunedDb::open(dir).map_err(|e| format!("--db {dir}: {e}"))?;
    let report = artifact::install(&text, &db, !given.has("--no-verify"))?;
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
