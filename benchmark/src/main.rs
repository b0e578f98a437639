//! The iFKO system benchmark: three workloads measured end to end with
//! tracing off, and a per-layer ladder measured from outside. See
//! `README.md` beside this package for the workloads, the glossary and
//! how to compare two commits.
//!
//! ```text
//! ifko-benchmark run [--seed S] [--seconds N] [--quick] [--out FILE]
//! ifko-benchmark run --workload W --seed S --seconds N --trace 0|1 [--pass-only]
//! ifko-benchmark run --layers-only
//! ifko-benchmark compare A.json[,A2.json..] B.json[,B2.json..]
//! ifko-benchmark worker      (the worker protocol on stdin/stdout)
//! ifko-benchmark spec        (print BENCHMARK.json from the tables)
//! ```

mod compare;
mod layers;
mod service;
mod sets;
mod spec;
mod staged;
mod util;
mod workloads;

use ifko::proto::esc;
use ifko::report::{parse_json, Json};
use spec::{Scale, END_TO_END, PER_LAYER, POOLED, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use util::num;
use workloads::Report;

/// Everything the benchmark writes lands here; the process also runs
/// from here, so scratch paths are short and relative.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => ifko::worker::serve_stdio().map_err(|e| e.to_string()),
        Some("run") => Options::parse(&args[1..]).and_then(|o| run(&o)),
        Some("compare") => compare::main(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        _ => Err(
            "usage: ifko-benchmark run|compare|spec|worker (see benchmark/README.md)".to_string(),
        ),
    };
    if let Err(e) = result {
        eprintln!("ifko-benchmark: {e}");
        std::process::exit(1);
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Only the per-layer ladder.
    layers_only: bool,
    /// With `--trace 1`: only the workload's traced pass, no ladder.
    pass_only: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: spec::DEFAULT_SEED,
            seconds: spec::DEFAULT_SECONDS,
            trace: false,
            quick: false,
            layers_only: false,
            pass_only: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => o.workload = Some(value()?.clone()),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => o.trace = value()? == "1",
                "--quick" => o.quick = true,
                "--layers-only" => o.layers_only = true,
                "--pass-only" => o.pass_only = true,
                // Resolved now: the process moves into OUT_DIR below.
                "--out" => o.out = Some(std::path::absolute(value()?).map_err(|e| e.to_string())?),
                other => return Err(format!("unknown option {other}")),
            }
        }
        if let Some(w) = &o.workload {
            if !WORKLOADS.iter().chain(POOLED).any(|known| known.name == w) {
                return Err(format!("unknown workload {w}"));
            }
        }
        if o.quick {
            // One pass of everything.
            o.seconds = 0.0;
        }
        Ok(o)
    }

    fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

fn run(o: &Options) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::env::set_current_dir(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let meta = Meta::measure(o);
    if o.workload.is_some() || o.layers_only {
        run_one(o, &meta)
    } else {
        run_all(o, &meta)
    }
}

/// What every result file records beside its numbers.
struct Meta {
    seed: u64,
    seconds: f64,
    quick: bool,
    nproc: usize,
    git_rev: String,
    calib_mops: f64,
}

impl Meta {
    fn measure(o: &Options) -> Meta {
        Meta {
            seed: o.seed,
            seconds: o.seconds,
            quick: o.quick,
            nproc: util::nproc(),
            git_rev: ifko::strategy::db::repo_rev(),
            calib_mops: util::calib_mops(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"seed\":{},\"seconds\":{},\"quick\":{},\"nproc\":{},\"git_rev\":\"{}\",\"harness.calib_mops\":{}}}",
            self.seed,
            num(self.seconds),
            self.quick,
            self.nproc,
            esc(&self.git_rev),
            num(self.calib_mops)
        )
    }
}

fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    let layer = PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit);
    e2e.or(layer).unwrap_or("")
}

fn print_table(metrics: &[(&'static str, f64)]) {
    for (name, value) in metrics {
        println!("  {name:<30} {value:>16.6} {}", unit_of(name));
    }
}

/// `{"name":value,...}`
fn flat_json<'a>(metrics: impl Iterator<Item = (&'a str, f64)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(n, v)| format!("\"{n}\":{}", num(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// One part of the benchmark in this process: a workload end to end
/// (`--trace 0`), its traced pass and the ladder (`--trace 1`, the two
/// shapes the driver runs), or either half of the latter alone.
fn run_one(o: &Options, meta: &Meta) -> Result<(), String> {
    let scale = o.scale();
    // `None`: the ladder alone.
    let part = o.workload.as_deref().filter(|_| !o.layers_only);
    let label = part.unwrap_or("layers");
    let tunes = part.and_then(|w| workloads::tune_workload(w, &scale, util::nproc()));
    let traced = o.trace || o.layers_only;
    let report = if traced {
        let spans = staged::Spans::new();
        let mut report = match (part, &tunes) {
            (None, _) => Report::default(),
            (Some(_), Some((set, pool))) => workloads::run_traced(set, *pool, o.seed, &spans)?,
            (Some(_), None) => service::run_traced(&scale, o.seed, &spans)?,
        };
        if !o.pass_only {
            let ladder = layers::probe_all(&scale, o.seed, &spans)?;
            report.metrics.extend(ladder);
        }
        let file = format!("trace-{label}.jsonl");
        spans
            .write_jsonl(&file)
            .map_err(|e| format!("{file}: {e}"))?;
        report
    } else {
        match &tunes {
            Some((set, pool)) => workloads::run_e2e(set, *pool, o.seed, o.seconds, scale.reps(5))?,
            None => service::run_e2e(&scale, o.seed, o.seconds)?,
        }
    };

    // Emit the metrics BENCHMARK.json names for this kind of run, in its
    // order: all of them, unless only half of a traced run was asked for.
    let names: Vec<&'static str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let partial = o.layers_only || o.pass_only;
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        match report.metrics.iter().find(|(n, _)| *n == name) {
            Some((_, value)) => ordered.push((name, *value)),
            None if partial => {}
            None => return Err(format!("{label} measured no {name}")),
        }
    }
    if ordered.len() != report.metrics.len() {
        return Err(format!(
            "{label} measured a metric BENCHMARK.json does not name"
        ));
    }

    println!("{label} (seed {}, trace {}):", o.seed, traced as u8);
    print_table(&ordered);
    for f in &report.failures {
        println!("  FAILED {f}");
    }
    let file = format!("{label}-trace{}.json", traced as u8);
    std::fs::write(&file, result_file(label, traced, meta, &report, &ordered))
        .map_err(|e| format!("{file}: {e}"))?;

    let fields: Vec<String> = ordered
        .iter()
        .map(|(n, v)| {
            format!(
                "\"{n}\":{{\"value\":{},\"unit\":\"{}\"}}",
                num(*v),
                unit_of(n)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failures.len(),
        fields.join(",")
    );
    Ok(())
}

fn result_file(
    workload: &str,
    trace: bool,
    meta: &Meta,
    report: &Report,
    ordered: &[(&'static str, f64)],
) -> String {
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    let winners: Vec<String> = report
        .winners
        .iter()
        .map(|(id, params, cycles)| format!("[\"{}\",\"{}\",{cycles}]", esc(id), esc(params)))
        .collect();
    let passes: Vec<String> = report
        .passes
        .iter()
        .map(|(raw_s, factor)| format!("[{},{}]", num(*raw_s), num(*factor)))
        .collect();
    format!(
        "{{\"meta\":{},\"workload\":\"{workload}\",\"trace\":{},\"attempted\":{},\"failed\":{},\
         \"failures\":[{}],\"metrics\":{},\"passes\":[{}],\"winners\":[{}]}}\n",
        meta.json(),
        trace as u8,
        report.attempted,
        report.failures.len(),
        failures.join(","),
        flat_json(ordered.iter().copied()),
        passes.join(","),
        winners.join(",")
    )
}

/// One child run's last stdout line, parsed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Re-execute this binary for one part of the benchmark, so that
/// `peak_rss_mb` is per workload and no allocator state leaks between
/// workloads.
fn spawn_child(o: &Options, seconds: f64, part: &[&str]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(part)
        .args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    if !out.status.success() {
        return Err(format!("run {} exited with {}", part.join(" "), out.status));
    }
    let v = parse_json(last)
        .ok_or_else(|| format!("run {}: unparseable result line", part.join(" ")))?;
    let Some(Json::Obj(fields)) = v.get("metrics") else {
        return Err(format!("run {}: result line lacks metrics", part.join(" ")));
    };
    let value = |m: &Json| m.get("value").and_then(Json::as_f64);
    Ok(Child {
        correct: v.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: v.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: v.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics: fields
            .iter()
            .filter_map(|(n, m)| Some((n.clone(), value(m)?)))
            .collect(),
    })
}

/// The winners a child run left in its result file.
fn winners_of(workload: &str) -> Result<Json, String> {
    let file = format!("{workload}-trace0.json");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    let v = parse_json(text.trim()).ok_or_else(|| format!("{file}: unparseable"))?;
    v.get("winners")
        .cloned()
        .ok_or_else(|| format!("{file}: lacks winners"))
}

/// `"name":{correct, attempted, failed, end_to_end[, per_layer]}` of one
/// workload in the all-workload result file.
fn section(name: &str, e2e: &Child, traced: Option<(&Child, String)>) -> String {
    fn named(metric: &(String, f64)) -> (&str, f64) {
        (metric.0.as_str(), metric.1)
    }
    let (correct, attempted, failed, per_layer) = match traced {
        Some((pass, per_layer)) => (
            e2e.correct && pass.correct,
            e2e.attempted + pass.attempted,
            e2e.failed + pass.failed,
            format!(",\"per_layer\":{per_layer}"),
        ),
        None => (e2e.correct, e2e.attempted, e2e.failed, String::new()),
    };
    format!(
        "\"{name}\":{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"end_to_end\":{}{per_layer}}}",
        flat_json(e2e.metrics.iter().map(named))
    )
}

/// Every workload end to end and traced, each in a child process, the
/// ladder once, and one pass of each pooled variant of `cold_oc`; then the
/// cross-workload checks and one result file.
fn run_all(o: &Options, meta: &Meta) -> Result<(), String> {
    let mut problems = Vec::new();
    let mut check = |name: &str, kind: &str, child: &Child| {
        if !child.correct {
            problems.push(format!(
                "{name} ({kind}): {} of {} operations failed",
                child.failed, child.attempted
            ));
        }
    };
    let mut runs = Vec::new();
    for w in WORKLOADS {
        let e2e = spawn_child(o, o.seconds, &["--workload", w.name, "--trace", "0"])?;
        let pass = spawn_child(
            o,
            o.seconds,
            &["--workload", w.name, "--trace", "1", "--pass-only"],
        )?;
        check(w.name, "end to end", &e2e);
        check(w.name, "traced", &pass);
        runs.push((w.name, e2e, pass));
    }
    let ladder = spawn_child(o, o.seconds, &["--layers-only"])?;
    let mut pooled = Vec::new();
    for w in POOLED {
        let e2e = spawn_child(o, 0.0, &["--workload", w.name, "--trace", "0"])?;
        check(w.name, "end to end", &e2e);
        pooled.push((w.name, e2e));
    }

    let mut sections = Vec::new();
    for (name, e2e, pass) in &runs {
        // Each workload's per-layer set: its traced pass plus the shared
        // ladder, in BENCHMARK.json's order.
        let both = || pass.metrics.iter().chain(&ladder.metrics);
        let per_layer = PER_LAYER
            .iter()
            .filter_map(|m| both().find(|(n, _)| n == m.name))
            .map(|(n, v)| (n.as_str(), *v));
        sections.push(section(name, e2e, Some((pass, flat_json(per_layer)))));
    }
    let pooled_sections: Vec<String> = pooled
        .iter()
        .map(|(name, e2e)| section(name, e2e, None))
        .collect();

    // The pooled variants tune cold_oc's set: same winners, or a failure.
    let serial = winners_of("cold_oc")?;
    let wall = |e2e: &Child| {
        let wall = e2e.metrics.iter().find(|(n, _)| n == "tune_wall_s");
        wall.map_or(f64::NAN, |(_, v)| *v)
    };
    let serial_wall = runs
        .iter()
        .find(|(n, _, _)| *n == "cold_oc")
        .map_or(f64::NAN, |(_, e2e, _)| wall(e2e));
    let mut derived = Vec::new();
    for (name, e2e) in &pooled {
        if winners_of(name)? != serial {
            problems.push(format!("{name}: winners differ from cold_oc's"));
        }
        let speedup = serial_wall / wall(e2e);
        println!("cold_oc / {name} tune_wall_s: {speedup:.3}");
        let pool = name.trim_end_matches("_oc");
        derived.push(format!("\"{pool}_speedup_full\":{}", num(speedup)));
    }

    let out = o
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("result-seed{}.json", o.seed)));
    let body = format!(
        "{{\"meta\":{},\"workloads\":{{{}}},\"pooled\":{{{}}},\"derived\":{{{}}}}}\n",
        meta.json(),
        sections.join(","),
        pooled_sections.join(","),
        derived.join(",")
    );
    std::fs::write(&out, body).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "wrote {}",
        std::path::absolute(&out).unwrap_or(out).display()
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}
