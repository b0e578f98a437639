//! Pipeline throughput benchmark: **candidates per second** through the
//! compile pipeline (and compile+simulate), per kernel × machine model.
//!
//! The paper's premise is that empirical search wins only if thousands of
//! candidate compiles are cheap; this binary makes that cost a tracked
//! number. It replays the exact candidate stream the line search submits
//! for each kernel (recorded with a deterministic cost function, so the
//! stream is stable across runs and machines) and measures:
//!
//! * `compile_cps` — candidates/sec through xform → opt → regalloc →
//!   codegen, one fresh tune-worth of compiles per repetition;
//! * `eval_cps` — candidates/sec through compile + one simulator run at a
//!   small N (the per-candidate cost a real tune pays before timing).
//!
//! Output goes to `results/BENCH_pipeline.json` (override with `--out`;
//! generated, not tracked). Every run also appends one timestamped line
//! per row to `bench_history.jsonl` next to the `--out` file, so
//! throughput can be plotted over time across commits.
//!
//! `--compare BASELINE` is the regression gate: after the run (or, with
//! `--current FILE`, instead of one) every baseline row's `compile_cps`
//! and `eval_cps` is compared with the current row's, each side divided
//! by its own `calib` so host-speed drift cancels. A row more than
//! `IFKO_BENCH_TOL` percent (default 10) below the baseline is
//! `REGRESSED`, an absent one `MISSING`, and either exits 1; faster is
//! never an error. `scripts/bench_compare.sh` loops this against the
//! committed `BENCH_pipeline.json` at the repo root.

use ifko::flags::{Command, Flag};
use ifko::json::{esc, parse_json, Json};
use ifko::runner::{run_once, Context, KernelArgs};
use ifko::search::{line_search_batched, SearchOptions};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, Workload};
use ifko_fko::{CompileOpts, CompileSession, TransformParams};
use ifko_xsim::isa::Prec;
use ifko_xsim::{opteron, p4e, MachineConfig};
use std::time::{Duration, Instant};

/// Problem size for the simulate leg: small enough that the compile cost
/// is visible, large enough that the tuned loop dominates the simulation.
const EVAL_N: usize = 512;

struct Row {
    kernel: &'static str,
    machine: String,
    candidates: usize,
    compile_cps: f64,
    eval_cps: f64,
    subcache_hits: u64,
    subcache_misses: u64,
    /// Machine-speed proxy measured right before this row (iterations/sec
    /// of a fixed arithmetic spin): lets the regression gate compare
    /// `compile_cps / calib` across runs, cancelling host-speed drift
    /// (shared-runner CPU steal, frequency scaling) that would otherwise
    /// swamp a 10% gate.
    calib: f64,
}

/// Fixed CPU-bound spin (splitmix64 chain), independent of every crate
/// under test, min-of-reps like the measured legs.
fn calibrate() -> f64 {
    const ITERS: u64 = 2_000_000;
    let spin = || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..ITERS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= z >> 31;
        }
        std::hint::black_box(x);
    };
    let best = measure(Duration::from_millis(30), spin);
    ITERS as f64 / best.as_secs_f64()
}

fn bench_kernels() -> Vec<(&'static str, BlasOp, Prec)> {
    vec![
        ("ddot", BlasOp::Dot, Prec::D),
        ("dasum", BlasOp::Asum, Prec::D),
        ("daxpy", BlasOp::Axpy, Prec::D),
        ("scopy", BlasOp::Copy, Prec::S),
    ]
}

/// Record the candidate stream a line search submits for this kernel,
/// using a deterministic pure cost (compiled program length) so the
/// stream never depends on wall-clock noise.
fn record_stream(sess: &CompileSession, mach: &MachineConfig) -> Vec<TransformParams> {
    let opts = SearchOptions::default();
    let mut stream: Vec<TransformParams> = Vec::new();
    line_search_batched(sess.report(), mach, &opts, |_phase, cands| {
        cands
            .iter()
            .map(|p| {
                let cost = sess
                    .compile(p, CompileOpts::verify(false))
                    .ok()
                    .map(|c| c.program.len() as u64);
                // Keep the stream compile-clean: candidates the search
                // rejects (e.g. AE on a kernel with no reduction) fail in
                // xform and are excluded from the throughput measurement.
                if cost.is_some() {
                    stream.push(p.clone());
                }
                cost
            })
            .collect()
    });
    stream
}

/// Run `work` (one tune-worth of candidate compiles) repeatedly until the
/// total measurement is at least `min` long (and at least 3 reps ran);
/// returns the fastest single repetition. Interference only slows a rep
/// down, so the minimum is the stable statistic — the same min-of-reps
/// rule the paper's timer applies to kernel timings.
fn measure(min: Duration, mut work: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    let mut best = Duration::MAX;
    let mut reps = 0u32;
    loop {
        let r0 = Instant::now();
        work();
        best = best.min(r0.elapsed());
        reps += 1;
        if t0.elapsed() >= min && reps >= 3 {
            return best;
        }
    }
}

fn bench_pair(name: &'static str, op: BlasOp, prec: Prec, mach: &MachineConfig) -> Row {
    let calib = calibrate();
    let src = hil_source(op, prec);
    let stream = {
        let sess = CompileSession::from_source(&src, mach).expect("analyze");
        record_stream(&sess, mach)
    };
    let min = min_secs();

    // Compile-only: one fresh tune-worth of compiles per repetition. Each
    // repetition gets a fresh session so the sub-candidate caches start
    // cold, exactly like a real tune; hits within one rep are the hits a
    // tune would see.
    let mut hits = 0u64;
    let mut misses = 0u64;
    let best = measure(min, || {
        let sess = CompileSession::from_source(&src, mach).expect("analyze");
        for p in &stream {
            let _ = sess
                .compile(p, CompileOpts::verify(false))
                .expect("candidate must compile");
        }
        let st = sess.stats();
        hits = st.subcache_hits;
        misses = st.subcache_misses;
    });
    let compile_cps = stream.len() as f64 / best.as_secs_f64();

    // Compile + one simulator run per candidate (what a tune pays before
    // any timing repetition).
    let w = Workload::generate(EVAL_N, 42);
    let kernel = Kernel { op, prec };
    let args = KernelArgs {
        kernel,
        workload: &w,
        context: Context::OutOfCache,
    };
    let ebest = measure(min, || {
        let sess = CompileSession::from_source(&src, mach).expect("analyze");
        for p in &stream {
            let c = sess
                .compile(p, CompileOpts::verify(false))
                .expect("candidate must compile");
            let _ = run_once(&c, &args, mach).expect("candidate must run");
        }
    });
    let eval_cps = stream.len() as f64 / ebest.as_secs_f64();

    Row {
        kernel: name,
        machine: mach.name.to_string(),
        candidates: stream.len(),
        compile_cps,
        eval_cps,
        subcache_hits: hits,
        subcache_misses: misses,
        calib,
    }
}

fn min_secs() -> Duration {
    let secs = std::env::var("IFKO_BENCH_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.25);
    Duration::from_secs_f64(secs)
}

fn write_json(path: &str, rows: &[Row]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"schema\": 1,\n  \"bench\": \"pipeline\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": \"{}\", \"machine\": \"{}\", \"candidates\": {}, \
             \"compile_cps\": {:.1}, \"eval_cps\": {:.1}, \
             \"subcache_hits\": {}, \"subcache_misses\": {}, \
             \"calib\": {:.0}}}{}",
            esc(r.kernel),
            esc(&r.machine),
            r.candidates,
            r.compile_cps,
            r.eval_cps,
            r.subcache_hits,
            r.subcache_misses,
            r.calib,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, out)
}

/// Append one timestamped JSONL line per row to `bench_history.jsonl`
/// next to the `--out` file. Append-only: successive runs build a time
/// series a plotting script (or `ifko explain`-style tooling) can read
/// without parsing git history.
fn append_history(out_path: &str, rows: &[Row]) -> std::io::Result<String> {
    use std::fmt::Write as _;
    use std::io::Write as _;
    let dir = std::path::Path::new(out_path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    std::fs::create_dir_all(dir)?;
    let path = dir.join("bench_history.jsonl");
    let t_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(
            out,
            "{{\"t_s\": {t_s}, \"bench\": \"pipeline\", \"kernel\": \"{}\", \
             \"machine\": \"{}\", \"compile_cps\": {:.1}, \"eval_cps\": {:.1}}}",
            esc(r.kernel),
            esc(&r.machine),
            r.compile_cps,
            r.eval_cps,
        );
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path.display().to_string())
}

/// What the gate reads of one result row: kernel, machine, compile_cps,
/// eval_cps and calib (1 — no normalization — in baselines recorded
/// before the field existed).
type GateRow = (String, String, f64, f64, f64);

/// The rows of a result file written by [`write_json`].
fn read_rows(path: &str) -> Result<Vec<GateRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).ok_or_else(|| format!("{path}: not JSON"))?;
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err(format!("{path}: no rows"));
    };
    let rows: Option<Vec<GateRow>> = rows
        .iter()
        .map(|r| {
            Some((
                r.get("kernel")?.as_str()?.to_string(),
                r.get("machine")?.as_str()?.to_string(),
                r.get("compile_cps")?.as_f64()?,
                r.get("eval_cps")?.as_f64()?,
                r.get("calib").and_then(Json::as_f64).unwrap_or(1.0),
            ))
        })
        .collect();
    rows.filter(|rows| !rows.is_empty())
        .ok_or_else(|| format!("{path}: no rows parsed"))
}

/// Print the gate's table for `current` against `baseline`; `Ok(true)`
/// when no baseline row is `REGRESSED` or `MISSING`.
fn compare(baseline: &str, current: &str) -> Result<bool, String> {
    let tol = std::env::var("IFKO_BENCH_TOL")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(10.0);
    let floor = 1.0 - tol / 100.0;
    let (base, now) = (read_rows(baseline)?, read_rows(current)?);
    let mut ok = true;
    println!(
        "{:<8} {:<8} {:>12} {:>12} {:>9} {:>9}   VERDICT",
        "KERNEL", "MACHINE", "BASE c/s", "NOW c/s", "COMPILE", "EVAL"
    );
    for (kernel, machine, base_c, base_e, base_cal) in base {
        let found = now.iter().find(|r| r.0 == kernel && r.1 == machine);
        let Some((_, _, now_c, now_e, now_cal)) = found else {
            println!(
                "{kernel:<8} {machine:<8} {base_c:>12.1} {:>12} {:>9} {:>9}   MISSING",
                "-", "-", "-"
            );
            ok = false;
            continue;
        };
        // Calib-normalized: (now_cps / now_calib) over (base_cps / base_calib).
        let compile = (now_c / now_cal) / (base_c / base_cal);
        let eval = (now_e / now_cal) / (base_e / base_cal);
        let regressed = compile < floor || eval < floor;
        println!(
            "{kernel:<8} {machine:<8} {base_c:>12.1} {now_c:>12.1} {:>9} {:>9}   {}",
            format!("{compile:.2}x"),
            format!("{eval:.2}x"),
            if regressed { "REGRESSED" } else { "ok" }
        );
        ok &= !regressed;
    }
    println!();
    if ok {
        println!("pipeline: no regression beyond {tol}% (baseline {baseline})");
    } else {
        println!("pipeline: throughput regressed more than {tol}% vs {baseline}");
    }
    Ok(ok)
}

#[rustfmt::skip]
const PIPELINE: Command = Command {
    about: "Compile-pipeline throughput per kernel and machine, and its regression gate. \
            Environment: IFKO_BENCH_SECS (minimum seconds per leg), IFKO_BENCH_TOL (gate percent).",
    ..Command::new("pipeline", &[&[
        Flag::new("--out PATH", "result file (default results/BENCH_pipeline.json)"),
        Flag::new("--compare BASELINE", "gate the result against BASELINE"),
        Flag::new("--current FILE", "gate FILE instead of running the bench"),
    ]])
};

fn main() {
    let given = PIPELINE.from_env();
    let out_path = given.raw("--out").unwrap_or("results/BENCH_pipeline.json");
    let current = given.raw("--current");
    // `--current FILE` gates an existing run instead of making one.
    if current.is_none() {
        bench(out_path);
    }
    if let Some(baseline) = given.raw("--compare") {
        match compare(baseline, current.unwrap_or(out_path)) {
            Ok(true) => {}
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("pipeline: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// Run every kernel x machine pair, print the table, write `out_path`
/// and append the history lines next to it.
fn bench(out_path: &str) {
    let mut rows = Vec::new();
    println!(
        "{:<7} {:<8} {:>6} {:>14} {:>12} {:>10}",
        "KERNEL", "MACHINE", "CANDS", "COMPILE c/s", "EVAL c/s", "SUBCACHE"
    );
    for (name, op, prec) in bench_kernels() {
        for mach in [p4e(), opteron()] {
            let row = bench_pair(name, op, prec, &mach);
            println!(
                "{:<7} {:<8} {:>6} {:>14.0} {:>12.0} {:>6}/{}",
                row.kernel,
                row.machine,
                row.candidates,
                row.compile_cps,
                row.eval_cps,
                row.subcache_hits,
                row.subcache_hits + row.subcache_misses,
            );
            rows.push(row);
        }
    }
    match write_json(out_path, &rows) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    match append_history(out_path, &rows) {
        Ok(hist) => println!("appended {} row(s) to {hist}", rows.len()),
        Err(e) => {
            eprintln!("cannot append bench history: {e}");
            std::process::exit(1);
        }
    }
}
