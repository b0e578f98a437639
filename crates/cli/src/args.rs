//! The `ifko` subcommands' flag tables (see [`ifko::flags`]), and the
//! tune request `ifko tune` builds from its flags.

use ifko::config::checked_n;
use ifko::flags::{self, boxed, num, Command, Flag, Given};
use ifko::report::ReportFormat;
use ifko::runner::Context;
use ifko_daemon::client::TuneRequest;
use ifko_xsim::MachineConfig;
use std::any::Any;

fn machine(s: &str) -> Result<Box<dyn Any>, String> {
    let machine = MachineConfig::by_name(s);
    boxed(machine.ok_or_else(|| format!("unknown machine `{s}` (p4e | opteron)")))
}

fn context(s: &str) -> Result<Box<dyn Any>, String> {
    let context = Context::from_label(s);
    boxed(context.ok_or_else(|| format!("unknown context `{s}` (oc | ic)")))
}

fn size(s: &str) -> Result<Box<dyn Any>, String> {
    let n = s.parse::<u64>().map_err(|e| e.to_string())?;
    boxed(checked_n(n))
}

fn explain_format(s: &str) -> Result<Box<dyn Any>, String> {
    let format = ReportFormat::parse(s);
    boxed(format.ok_or_else(|| format!("unknown format `{s}` (text | json | md)")))
}

/// `ifko report --format`: an analysis format, or `chrome` (read as
/// `None`), the trace itself rendered for Perfetto.
fn report_format(s: &str) -> Result<Box<dyn Any>, String> {
    let format = match s {
        "chrome" => Some(None),
        _ => ReportFormat::parse(s).map(Some),
    };
    boxed(format.ok_or_else(|| format!("unknown format `{s}` (text | json | md | chrome)")))
}

/// `--format text|json`, read as "json?".
fn json_format(s: &str) -> Result<Box<dyn Any>, String> {
    match s {
        "text" | "json" => Ok(Box::new(s == "json")),
        _ => Err(format!("unknown format `{s}` (text | json)")),
    }
}

#[rustfmt::skip]
const MACHINE: Flag = Flag::new("-m, --machine NAME", "p4e | opteron (default p4e)").parse(machine).remote();
const DB: Flag = Flag::new("--db DIR", "tuned-results database (default results/db)");

/// The flags `ifko tune` reads besides the shared [`flags::TUNE`].
#[rustfmt::skip]
const TUNE: &[Flag] = &[
    MACHINE,
    Flag::new("-c, --context oc|ic", "out of cache or in L2 (default oc)").parse(context).remote(),
    Flag::new("--n N", "problem size (default 40000 oc, 1024 ic)").parse(size).remote(),
    Flag::new("--seed S", "workload seed").parse(num::<u64>).remote(),
    Flag::new("--full", "the paper's full candidate sets").remote(),
    Flag::new("--remote SOCKET", "tune on the ifkod serving SOCKET").remote(),
    Flag::new("--verify-ir", "run the IR verifier between every stage"),
    Flag::new("--no-prune", "compile provably futile candidates too"),
];

#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command {
        name: "ifko analyze", args: "FILE", flags: &[&[MACHINE]],
        about: "Print what FKO reports back to the search (paper §2.2.2).",
    },
    Command {
        name: "ifko compile", args: "FILE",
        about: "Compile at FKO's defaults, or the parameters given, and print the assembly.",
        flags: &[&[
            MACHINE,
            Flag::new("--scalar", "no SIMD vectorization"),
            Flag::new("--ur N", "unroll factor").parse(num::<u32>),
            Flag::new("--ae N", "accumulator expansion").parse(num::<u32>),
            Flag::new("--wnt", "non-temporal writes"),
            Flag::new("--no-pf", "no prefetch"),
            Flag::new("--pf-dist BYTES", "distance of every prefetch").parse(num::<i64>),
        ]],
    },
    Command {
        name: "ifko tune", args: "FILE", flags: &[TUNE, flags::TUNE],
        about: "Tune any HIL kernel empirically, each candidate verified against the untransformed build.",
    },
    Command {
        name: "ifko lint", args: "FILE.hil...",
        about: "Front end, tuning-opportunity analysis and IR verifier, no tuning; exit 1 on an error.",
        flags: &[&[MACHINE, Flag::new("-f, --format FMT", "text | json").parse(json_format)]],
    },
    Command {
        name: "ifko report", args: "TRACE.jsonl...",
        about: "Analyze --trace output: convergence, phases, stage times, cache effectiveness.",
        flags: &[&[Flag::new("-f, --format FMT", "text | json | md | chrome (one trace)").parse(report_format)]],
    },
    Command {
        name: "ifko explain", args: "TRACE.jsonl...",
        about: "Why the winner won: counter deltas per transform, and its bottleneck.",
        flags: &[&[
            Flag::new("-f, --format FMT", "text | json | md").parse(explain_format),
            Flag::new("--db DIR", "cross-check this tuned-results database"),
        ]],
    },
    Command {
        name: "ifko daemon", args: "<ping|stop|metrics|stats|compact>",
        about: "Control a running ifkod.",
        flags: &[&[Flag::new("-s, --socket PATH", "ifkod's socket (default results/ifkod.sock)")]],
    },
    Command {
        name: "ifko db", args: "<stats|compact|prune>",
        about: "Inspect, compact or prune a tuned-results database in place.",
        flags: &[&[
            DB,
            Flag::new("--rev-missing", "prune: drop records of other repo revisions"),
            Flag::new("-f, --format FMT", "text | json").parse(json_format),
        ]],
    },
    Command {
        name: "ifko pack", args: "",
        about: "Export winners as a checksummed tune-cache artifact.",
        flags: &[&[
            DB,
            Flag::new("-o, --out FILE", "write the artifact to FILE (default stdout)"),
            Flag::new("-s, --socket PATH", "pack a running ifkod's database instead"),
        ]],
    },
    Command {
        name: "ifko install", args: "ARTIFACT",
        about: "Import a tune-cache artifact, re-verifying every record it can.",
        flags: &[&[DB, Flag::new("--no-verify", "install without re-verifying")]],
    },
    Command {
        name: "ifko worker", args: "", flags: &[],
        about: "Evaluate candidates over the wire protocol on stdin/stdout (tune --workers spawns it).",
    },
];

/// The request `ifko tune` sends a daemon, and tunes from in-process:
/// the flags a request carries, with `src` as the kernel.
pub fn tune_request(given: &Given, src: &str) -> TuneRequest {
    TuneRequest {
        kernel: None,
        src: Some(src.to_string()),
        machine: given.raw("--machine").unwrap_or("p4e").to_string(),
        context: given.raw("--context").unwrap_or("oc").to_string(),
        n: given.get("--n"),
        seed: Some(given.get("--seed").unwrap_or(0xb1a5)),
        full: given.has("--full"),
        strategy: given.raw("--strategy").map(str::to_string),
        budget: given.raw("--budget").map(str::to_string),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko::flags::TuneFlags;
    use ifko::{FaultPlan, StrategySpec, TuneConfig};

    fn parse(cmd: &str, s: &[&str]) -> Result<Given, String> {
        let name = format!("ifko {cmd}");
        let cmd = COMMANDS.iter().find(|c| c.name == name).unwrap();
        cmd.parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults_and_positional() {
        let g = parse("tune", &["k.hil"]).unwrap();
        assert_eq!(g.positional, ["k.hil"]);
        let r = tune_request(&g, "");
        assert_eq!((r.machine.as_str(), r.context.as_str()), ("p4e", "oc"));
        assert_eq!((r.n, r.seed, r.full), (None, Some(0xb1a5), false));
    }

    #[test]
    fn flags_parse() {
        let g = parse(
            "tune",
            &[
                "k.hil",
                "--machine",
                "opteron",
                "--context",
                "ic",
                "--n",
                "2048",
                "--full",
                "--seed",
                "9",
            ],
        )
        .unwrap();
        let r = tune_request(&g, "");
        assert_eq!((r.machine.as_str(), r.context.as_str()), ("opteron", "ic"));
        assert_eq!((r.n, r.seed, r.full), (Some(2048), Some(9), true));
        let g = parse(
            "compile",
            &["k.hil", "--ur", "8", "--ae", "4", "--wnt", "--no-pf"],
        )
        .unwrap();
        assert_eq!(
            (g.get::<u32>("--ur"), g.get::<u32>("--ae")),
            (Some(8), Some(4))
        );
        assert!(g.has("--wnt") && g.has("--no-pf") && !g.has("--scalar"));
    }

    #[test]
    fn jobs_and_trace_parse() {
        let g = parse(
            "tune",
            &[
                "k.hil",
                "--jobs",
                "4",
                "--trace",
                "t.jsonl",
                "--metrics",
                "m.json",
            ],
        )
        .unwrap();
        assert_eq!(g.get::<usize>("--jobs"), Some(4));
        assert_eq!(g.raw("--trace"), Some("t.jsonl"));
        assert_eq!(g.raw("--metrics"), Some("m.json"));
        // --jobs clamps to at least one worker when applied.
        let g = parse("tune", &["k.hil", "-j", "0"]).unwrap();
        let run = TuneFlags::open(&g, TuneConfig::quick(64)).unwrap();
        assert_eq!(run.base.jobs_of(), 1);
    }

    #[test]
    fn workers_parse() {
        // --workers 0 (the default) means in-process evaluation.
        assert_eq!(
            parse("tune", &["k.hil"]).unwrap().get::<usize>("--workers"),
            None
        );
        let g = parse("tune", &["k.hil", "--workers", "4", "--jobs", "2"]).unwrap();
        assert_eq!(g.get::<usize>("--workers"), Some(4));
        assert_eq!(g.get::<usize>("--jobs"), Some(2));
        assert!(parse("tune", &["k.hil", "--workers", "nope"]).is_err());
        assert!(parse("tune", &["k.hil", "--workers"]).is_err());
    }

    #[test]
    fn observability_sinks_parse() {
        let g = parse(
            "tune",
            &["k.hil", "--trace", "t.jsonl", "--metrics", "m.prom"],
        )
        .unwrap();
        assert_eq!(g.raw("--trace"), Some("t.jsonl"));
        assert_eq!(g.raw("--metrics"), Some("m.prom"));
        // Off by default, and both flags require a value.
        let g = parse("tune", &["k.hil"]).unwrap();
        assert!(!g.has("--trace") && !g.has("--metrics"));
        assert!(parse("tune", &["k.hil", "--trace"]).is_err());
        assert!(parse("tune", &["k.hil", "--metrics"]).is_err());
    }

    #[test]
    fn verify_and_prune_flags_parse() {
        let g = parse("tune", &["k.hil", "--verify-ir", "--no-prune"]).unwrap();
        assert!(g.has("--verify-ir") && g.has("--no-prune"));
        let g = parse("tune", &["k.hil"]).unwrap();
        assert!(!g.has("--verify-ir") && !g.has("--no-prune"));
    }

    #[test]
    fn strategy_flags_parse() {
        let g = parse(
            "tune",
            &[
                "k.hil",
                "--strategy",
                "portfolio",
                "--budget",
                "64",
                "--warm-start",
                "--db",
                "results/db",
            ],
        )
        .unwrap();
        assert_eq!(
            g.get::<StrategySpec>("--strategy"),
            Some(StrategySpec::Portfolio)
        );
        let r = tune_request(&g, "");
        assert_eq!(
            (r.strategy.as_deref(), r.budget.as_deref()),
            (Some("portfolio"), Some("64"))
        );
        assert!(g.has("--warm-start"));
        assert_eq!(g.raw("--db"), Some("results/db"));
        let r = tune_request(&parse("tune", &["k.hil"]).unwrap(), "");
        assert!(r.strategy.is_none() && r.budget.is_none());
        assert!(parse("tune", &["k.hil", "--strategy", "nope"]).is_err());
    }

    #[test]
    fn model_prune_flag_parses_and_validates() {
        let g = parse("tune", &["k.hil", "--model-prune", "0.5"]).unwrap();
        assert_eq!(g.get::<f64>("--model-prune"), Some(0.5));
        // Off by default; bad or out-of-range values are rejected.
        assert!(!parse("tune", &["k.hil"]).unwrap().has("--model-prune"));
        assert!(parse("tune", &["k.hil", "--model-prune"]).is_err());
        let err = |v: &str| parse("tune", &["k.hil", "--model-prune", v]).err();
        assert_eq!(
            err("1.5").as_deref(),
            Some("--model-prune: 1.5 outside [0, 1]")
        );
        assert!(err("-0.1").is_some() && err("x").is_some());
    }

    #[test]
    fn chaos_flags_parse() {
        let g = parse("tune", &["k.hil", "--chaos", "7:0.2", "--max-retries", "5"]).unwrap();
        assert_eq!(g.get::<FaultPlan>("--chaos").map(|p| p.seed), Some(7));
        assert_eq!(g.get::<u32>("--max-retries"), Some(5));
        // Off by default: no plan, retry budget left to the library.
        let g = parse("tune", &["k.hil"]).unwrap();
        assert!(!g.has("--chaos") && !g.has("--max-retries"));
        assert!(parse("tune", &["k.hil", "--max-retries", "x"]).is_err());
        assert!(parse("tune", &["k.hil", "--chaos"]).is_err());
    }

    #[test]
    fn remote_flag_parses() {
        let g = parse("tune", &["k.hil", "--remote", "results/ifkod.sock"]).unwrap();
        assert_eq!(g.raw("--remote"), Some("results/ifkod.sock"));
        // Off by default, and the socket path is required.
        assert!(!parse("tune", &["k.hil"]).unwrap().has("--remote"));
        assert!(parse("tune", &["k.hil", "--remote"]).is_err());
    }

    #[test]
    fn local_only_names_exactly_the_flags_given() {
        let g = parse(
            "tune",
            &[
                "k.hil",
                "--n",
                "1024",
                "--seed",
                "3",
                "--strategy",
                "random",
            ],
        )
        .unwrap();
        assert!(g.local_only().is_empty(), "{:?}", g.local_only());
        let g = parse(
            "tune",
            &[
                "k.hil",
                "--remote",
                "s.sock",
                "--metrics",
                "m.json",
                "--jobs",
                "4",
                "--db",
                "d",
                "--verify-ir",
            ],
        )
        .unwrap();
        assert_eq!(
            g.local_only(),
            ["--metrics", "--jobs", "--db", "--verify-ir"]
        );
        let every = parse(
            "tune",
            &[
                "k.hil",
                "--jobs",
                "2",
                "--workers",
                "2",
                "--trace",
                "t",
                "--metrics",
                "m",
                "--verify-ir",
                "--no-prune",
                "--model-prune",
                "0.5",
                "--db",
                "d",
                "--warm-start",
                "--chaos",
                "7",
                "--max-retries",
                "1",
            ],
        )
        .unwrap();
        assert_eq!(every.local_only().len(), 11);
    }

    #[test]
    fn missing_file_rejected() {
        let err = parse("tune", &["--full"]).err().unwrap_or_default();
        assert!(err.starts_with("missing FILE"), "{err}");
    }

    #[test]
    fn unknown_flag_rejected() {
        assert_eq!(
            parse("tune", &["k.hil", "--bogus"]).err().as_deref(),
            Some("unknown flag `--bogus`")
        );
        // A flag of another subcommand is as unknown as a misspelling.
        assert_eq!(
            parse("tune", &["k.hil", "--ur", "8"]).err().as_deref(),
            Some("unknown flag `--ur`")
        );
    }

    #[test]
    fn missing_value_rejected() {
        assert_eq!(
            parse("compile", &["k.hil", "--ur"]).err().as_deref(),
            Some("--ur needs a value")
        );
    }
}
