//! Tiny dependency-free flag parser for the `ifko` CLI.

#[derive(Debug, Clone)]
pub struct Args {
    pub file: String,
    pub machine: String,
    pub context: String,
    pub n: Option<usize>,
    pub seed: u64,
    pub full: bool,
    pub scalar: bool,
    pub ur: Option<u32>,
    pub ae: Option<u32>,
    pub wnt: bool,
    pub no_pf: bool,
    pub pf_dist: Option<i64>,
    pub jobs: usize,
    pub workers: usize,
    pub trace: Option<String>,
    pub trace_chrome: Option<String>,
    pub timeseries: Option<String>,
    pub metrics: Option<String>,
    pub verify_ir: bool,
    pub no_prune: bool,
    pub strategy: Option<String>,
    pub budget: Option<String>,
    pub warm_start: bool,
    pub model_prune: Option<f64>,
    pub db: Option<String>,
    pub chaos: Option<String>,
    pub max_retries: Option<u32>,
    pub profile_pipeline: bool,
    pub remote: Option<String>,
}

impl Args {
    pub fn parse(argv: Vec<String>) -> Result<Args, String> {
        let mut a = Args {
            file: String::new(),
            machine: "p4e".into(),
            context: "oc".into(),
            n: None,
            seed: 0xb1a5,
            full: false,
            scalar: false,
            ur: None,
            ae: None,
            wnt: false,
            no_pf: false,
            pf_dist: None,
            jobs: 1,
            workers: 0,
            trace: None,
            trace_chrome: None,
            timeseries: None,
            metrics: None,
            verify_ir: false,
            no_prune: false,
            strategy: None,
            budget: None,
            warm_start: false,
            model_prune: None,
            db: None,
            chaos: None,
            max_retries: None,
            profile_pipeline: false,
            remote: None,
        };
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match tok.as_str() {
                "--machine" | "-m" => a.machine = value("--machine")?,
                "--context" | "-c" => a.context = value("--context")?,
                "--n" => a.n = Some(value("--n")?.parse().map_err(|e| format!("--n: {e}"))?),
                "--seed" => {
                    a.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--full" => a.full = true,
                "--scalar" => a.scalar = true,
                "--ur" => a.ur = Some(value("--ur")?.parse().map_err(|e| format!("--ur: {e}"))?),
                "--ae" => a.ae = Some(value("--ae")?.parse().map_err(|e| format!("--ae: {e}"))?),
                "--wnt" => a.wnt = true,
                "--no-pf" => a.no_pf = true,
                "--pf-dist" => {
                    a.pf_dist = Some(
                        value("--pf-dist")?
                            .parse()
                            .map_err(|e| format!("--pf-dist: {e}"))?,
                    )
                }
                "--jobs" | "-j" => {
                    a.jobs = value("--jobs")?
                        .parse::<usize>()
                        .map_err(|e| format!("--jobs: {e}"))?
                        .max(1)
                }
                "--workers" => {
                    a.workers = value("--workers")?
                        .parse::<usize>()
                        .map_err(|e| format!("--workers: {e}"))?
                }
                "--trace" => a.trace = Some(value("--trace")?),
                "--trace-chrome" => a.trace_chrome = Some(value("--trace-chrome")?),
                "--timeseries" => a.timeseries = Some(value("--timeseries")?),
                "--metrics" => a.metrics = Some(value("--metrics")?),
                "--verify-ir" => a.verify_ir = true,
                "--profile-pipeline" => a.profile_pipeline = true,
                "--no-prune" => a.no_prune = true,
                "--strategy" => a.strategy = Some(value("--strategy")?),
                "--budget" => a.budget = Some(value("--budget")?),
                "--warm-start" => a.warm_start = true,
                "--model-prune" => {
                    let frac: f64 = value("--model-prune")?
                        .parse()
                        .map_err(|e| format!("--model-prune: {e}"))?;
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(format!("--model-prune: {frac} outside [0, 1]"));
                    }
                    a.model_prune = Some(frac);
                }
                "--db" => a.db = Some(value("--db")?),
                "--remote" => a.remote = Some(value("--remote")?),
                "--chaos" => a.chaos = Some(value("--chaos")?),
                "--max-retries" => {
                    a.max_retries = Some(
                        value("--max-retries")?
                            .parse()
                            .map_err(|e| format!("--max-retries: {e}"))?,
                    )
                }
                other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
                file => {
                    if a.file.is_empty() {
                        a.file = file.to_string();
                    } else {
                        return Err(format!("unexpected argument `{file}`"));
                    }
                }
            }
        }
        if a.file.is_empty() {
            return Err("no kernel file given".into());
        }
        Ok(a)
    }

    /// The flags given (set away from their defaults) that only an
    /// in-process tune applies: a `--remote` request carries the machine,
    /// context, size, seed, `--full`, strategy and budget, and nothing
    /// else.
    pub fn local_only(&self) -> Vec<&'static str> {
        [
            ("--jobs", self.jobs != 1),
            ("--workers", self.workers != 0),
            ("--trace", self.trace.is_some()),
            ("--trace-chrome", self.trace_chrome.is_some()),
            ("--timeseries", self.timeseries.is_some()),
            ("--metrics", self.metrics.is_some()),
            ("--verify-ir", self.verify_ir),
            ("--no-prune", self.no_prune),
            ("--model-prune", self.model_prune.is_some()),
            ("--db", self.db.is_some()),
            ("--warm-start", self.warm_start),
            ("--chaos", self.chaos.is_some()),
            ("--max-retries", self.max_retries.is_some()),
            ("--profile-pipeline", self.profile_pipeline),
        ]
        .into_iter()
        .filter_map(|(flag, given)| given.then_some(flag))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_and_positional() {
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert_eq!(a.file, "k.hil");
        assert_eq!(a.machine, "p4e");
        assert_eq!(a.context, "oc");
        assert!(!a.full);
    }

    #[test]
    fn flags_parse() {
        let a = Args::parse(v(&[
            "k.hil",
            "--machine",
            "opteron",
            "--context",
            "ic",
            "--n",
            "2048",
            "--ur",
            "8",
            "--ae",
            "4",
            "--wnt",
            "--no-pf",
            "--full",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(a.machine, "opteron");
        assert_eq!(a.context, "ic");
        assert_eq!(a.n, Some(2048));
        assert_eq!(a.ur, Some(8));
        assert_eq!(a.ae, Some(4));
        assert!(a.wnt && a.no_pf && a.full);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn jobs_and_trace_parse() {
        let a = Args::parse(v(&[
            "k.hil",
            "--jobs",
            "4",
            "--trace",
            "t.jsonl",
            "--metrics",
            "m.json",
        ]))
        .unwrap();
        assert_eq!(a.jobs, 4);
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        // --jobs clamps to at least one worker.
        let a = Args::parse(v(&["k.hil", "-j", "0"])).unwrap();
        assert_eq!(a.jobs, 1);
    }

    #[test]
    fn workers_parse() {
        // --workers 0 (the default) means in-process evaluation — no
        // clamp, unlike --jobs.
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert_eq!(a.workers, 0);
        let a = Args::parse(v(&["k.hil", "--workers", "4", "--jobs", "2"])).unwrap();
        assert_eq!(a.workers, 4);
        assert_eq!(a.jobs, 2);
        assert!(Args::parse(v(&["k.hil", "--workers", "nope"])).is_err());
        assert!(Args::parse(v(&["k.hil", "--workers"])).is_err());
    }

    #[test]
    fn observability_sinks_parse() {
        let a = Args::parse(v(&[
            "k.hil",
            "--trace-chrome",
            "t.chrome.json",
            "--timeseries",
            "ts.jsonl",
        ]))
        .unwrap();
        assert_eq!(a.trace_chrome.as_deref(), Some("t.chrome.json"));
        assert_eq!(a.timeseries.as_deref(), Some("ts.jsonl"));
        // Off by default, and both flags require a value.
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert!(a.trace_chrome.is_none() && a.timeseries.is_none());
        assert!(Args::parse(v(&["k.hil", "--trace-chrome"])).is_err());
        assert!(Args::parse(v(&["k.hil", "--timeseries"])).is_err());
    }

    #[test]
    fn verify_and_prune_flags_parse() {
        let a = Args::parse(v(&["k.hil", "--verify-ir", "--no-prune"])).unwrap();
        assert!(a.verify_ir && a.no_prune);
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert!(!a.verify_ir && !a.no_prune);
    }

    #[test]
    fn profile_pipeline_flag_parses() {
        let a = Args::parse(v(&["k.hil", "--profile-pipeline"])).unwrap();
        assert!(a.profile_pipeline);
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert!(!a.profile_pipeline);
    }

    #[test]
    fn strategy_flags_parse() {
        let a = Args::parse(v(&[
            "k.hil",
            "--strategy",
            "portfolio",
            "--budget",
            "64",
            "--warm-start",
            "--db",
            "results/db",
        ]))
        .unwrap();
        assert_eq!(a.strategy.as_deref(), Some("portfolio"));
        assert_eq!(a.budget.as_deref(), Some("64"));
        assert!(a.warm_start);
        assert_eq!(a.db.as_deref(), Some("results/db"));
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert!(a.strategy.is_none() && a.budget.is_none() && !a.warm_start && a.db.is_none());
    }

    #[test]
    fn model_prune_flag_parses_and_validates() {
        let a = Args::parse(v(&["k.hil", "--model-prune", "0.5"])).unwrap();
        assert_eq!(a.model_prune, Some(0.5));
        // Off by default; bad or out-of-range values are rejected.
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert!(a.model_prune.is_none());
        assert!(Args::parse(v(&["k.hil", "--model-prune"])).is_err());
        assert!(Args::parse(v(&["k.hil", "--model-prune", "1.5"])).is_err());
        assert!(Args::parse(v(&["k.hil", "--model-prune", "-0.1"])).is_err());
        assert!(Args::parse(v(&["k.hil", "--model-prune", "x"])).is_err());
    }

    #[test]
    fn chaos_flags_parse() {
        let a = Args::parse(v(&["k.hil", "--chaos", "7:0.2", "--max-retries", "5"])).unwrap();
        assert_eq!(a.chaos.as_deref(), Some("7:0.2"));
        assert_eq!(a.max_retries, Some(5));
        // Off by default: no plan, retry budget left to the library.
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert!(a.chaos.is_none() && a.max_retries.is_none());
        assert!(Args::parse(v(&["k.hil", "--max-retries", "x"])).is_err());
        assert!(Args::parse(v(&["k.hil", "--chaos"])).is_err());
    }

    #[test]
    fn remote_flag_parses() {
        let a = Args::parse(v(&["k.hil", "--remote", "results/ifkod.sock"])).unwrap();
        assert_eq!(a.remote.as_deref(), Some("results/ifkod.sock"));
        // Off by default, and the socket path is required.
        let a = Args::parse(v(&["k.hil"])).unwrap();
        assert!(a.remote.is_none());
        assert!(Args::parse(v(&["k.hil", "--remote"])).is_err());
    }

    #[test]
    fn local_only_names_exactly_the_flags_given() {
        let a = Args::parse(v(&[
            "k.hil",
            "--n",
            "1024",
            "--seed",
            "3",
            "--strategy",
            "random",
        ]))
        .unwrap();
        assert!(a.local_only().is_empty(), "{:?}", a.local_only());
        let a = Args::parse(v(&[
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
        ]))
        .unwrap();
        assert_eq!(
            a.local_only(),
            ["--jobs", "--metrics", "--verify-ir", "--db"]
        );
        let every = Args::parse(v(&[
            "k.hil",
            "--jobs",
            "2",
            "--workers",
            "2",
            "--trace",
            "t",
            "--trace-chrome",
            "c",
            "--timeseries",
            "ts",
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
            "--profile-pipeline",
        ]))
        .unwrap();
        assert_eq!(every.local_only().len(), 14);
    }

    #[test]
    fn missing_file_rejected() {
        assert!(Args::parse(v(&["--wnt"])).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(Args::parse(v(&["k.hil", "--bogus"])).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(Args::parse(v(&["k.hil", "--ur"])).is_err());
    }
}
