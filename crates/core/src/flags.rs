//! One flag table behind every command line.
//!
//! Every command — each `ifko` subcommand, `ifkod`, the experiment
//! binaries — declares the [`Flag`]s it reads, and the rest comes from
//! those entries: [`Command::parse`] reads argv against them
//! (a flag the command does not read is `unknown flag`, a missing value
//! `X needs a value`, a bad one `X: <parse error>`), `--help` is rendered
//! from them, and [`Given::local_only`] is the given entries a `--remote`
//! tune request does not carry. The tune flags `ifko tune` and the
//! experiment harness share are [`TUNE`], applied to a [`TuneConfig`] by
//! [`TuneFlags::open`] alone. Its one trace sink is `--trace`'s JSONL
//! file; every other view of a tune (`ifko report`, `ifko explain`, the
//! Chrome rendering) is read from that file afterwards.

use crate::config::TuneConfig;
use crate::eval::{JsonlSink, TraceSink};
use crate::fault::FaultPlan;
use crate::strategy::{Budget, StrategySpec};
use std::any::Any;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

/// Reads a flag's value, or says what is wrong with it.
pub type Parse = fn(&str) -> Result<Box<dyn Any>, String>;

/// One command-line flag.
#[derive(Clone, Copy)]
pub struct Flag {
    /// Alias, name and value name as `--help` shows them: `-j, --jobs N`
    /// takes a value, `--wnt` is a switch.
    pub spec: &'static str,
    /// Reads the value; a value without a parser is kept as text.
    pub parse: Option<Parse>,
    pub help: &'static str,
    /// Whether a `--remote` tune request carries it.
    pub remote: bool,
}

impl Flag {
    pub const fn new(spec: &'static str, help: &'static str) -> Flag {
        Flag {
            spec,
            parse: None,
            help,
            remote: false,
        }
    }
    pub const fn parse(self, parse: Parse) -> Flag {
        Flag {
            parse: Some(parse),
            ..self
        }
    }
    pub const fn remote(self) -> Flag {
        Flag {
            remote: true,
            ..self
        }
    }
    pub fn name(&self) -> &'static str {
        let mut words = self.spec.split([',', ' ']);
        words.find(|w| w.starts_with("--")).unwrap_or(self.spec)
    }
    fn takes_value(&self) -> bool {
        !self.spec.rsplit(' ').next().unwrap_or("").starts_with('-')
    }
}

/// A parsed value, or its parse error as text.
pub fn boxed<T: 'static, E: Display>(value: Result<T, E>) -> Result<Box<dyn Any>, String> {
    value.map(|v| Box::new(v) as _).map_err(|e| e.to_string())
}

/// A number, or anything else `FromStr` reads.
pub fn num<T: FromStr + 'static>(s: &str) -> Result<Box<dyn Any>, String>
where
    T::Err: Display,
{
    boxed(s.parse::<T>())
}

/// The tune flags `ifko tune` and every experiment binary read, applied
/// by [`TuneFlags::open`]. A `--remote` request carries the strategy and
/// the budget; the rest configure the process that runs the search.
#[rustfmt::skip]
pub const TUNE: &[Flag] = &[
    Flag::new("-j, --jobs N", "evaluate candidate batches on N threads").parse(num::<usize>),
    Flag::new("--workers N", "evaluate on N worker processes (0: in-process)").parse(num::<usize>),
    Flag::new("--trace PATH", "write the JSONL search trace to PATH"),
    Flag::new("--metrics PATH", "write a metrics snapshot at the end (.prom: text format)"),
    Flag::new("--strategy NAME", "line | random | hillclimb | anneal | portfolio")
        .parse(|s| boxed(StrategySpec::parse(s))).remote(),
    Flag::new("--budget PROBES|WALL", "cap the search: a probe count, 500ms or 2s")
        .parse(|s| boxed(Budget::parse(s))).remote(),
    Flag::new("--db DIR", "warm-start from and store winners in this tuned-results database"),
    Flag::new("--chaos SEED[:RATE]", "inject deterministic faults").parse(|s| boxed(FaultPlan::parse(s))),
    Flag::new("--max-retries N", "retries per fault site and candidate (default 2)").parse(num::<u32>),
];

/// A command line: the command's name, positionals and flags.
pub struct Command<'a> {
    /// As typed: `ifko tune`, `ifkod`.
    pub name: &'a str,
    /// The positionals as `--help` shows them, which also says how many
    /// are taken: `FILE` one, `FILE...` one or more, `[FILE...]` any.
    pub args: &'a str,
    pub about: &'a str,
    pub flags: &'a [&'static [Flag]],
}

/// What one command line gave: its positionals, and each flag with its
/// value as given and as parsed, in argv order.
#[derive(Default)]
pub struct Given {
    pub positional: Vec<String>,
    /// `--help` or `-h` was given: nothing after it was read.
    pub help: bool,
    flags: Vec<(&'static Flag, String, Box<dyn Any>)>,
}

impl Given {
    fn last(&self, name: &str) -> Option<&(&'static Flag, String, Box<dyn Any>)> {
        self.flags.iter().rev().find(|(f, ..)| f.name() == name)
    }
    pub fn has(&self, name: &str) -> bool {
        self.last(name).is_some()
    }
    /// The last value given for `name`, as typed.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.last(name).map(|(_, raw, _)| raw.as_str())
    }
    /// The last value given for `name`, as its parser read it. Asking
    /// for another type than the parser's is a bug, caught in debug
    /// builds.
    pub fn get<T: Clone + 'static>(&self, name: &str) -> Option<T> {
        let value = self.last(name)?.2.downcast_ref::<T>();
        debug_assert!(
            value.is_some(),
            "{name} is not read as {}",
            std::any::type_name::<T>()
        );
        value.cloned()
    }
    /// The given flags a `--remote` tune request does not carry, each once.
    pub fn local_only(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for (f, ..) in self.flags.iter().filter(|(f, ..)| !f.remote) {
            if !names.contains(&f.name()) {
                names.push(f.name());
            }
        }
        names
    }
}

impl<'a> Command<'a> {
    /// A command with no positionals.
    pub const fn new(name: &'a str, flags: &'a [&'static [Flag]]) -> Command<'a> {
        Command {
            name,
            args: "",
            about: "",
            flags,
        }
    }

    pub fn usage(&self) -> String {
        format!("{} {} [flags]", self.name, self.args).replace("  ", " ")
    }

    /// Read `argv` (the arguments after the command's name) against the
    /// command's flags.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Given, String> {
        let mut given = Given::default();
        let mut argv = argv.into_iter();
        let max = match self.args {
            "" => 0,
            args if args.ends_with("...") || args.ends_with("...]") => usize::MAX,
            _ => 1,
        };
        while let Some(tok) = argv.next() {
            if tok == "--help" || tok == "-h" {
                given.help = true;
                return Ok(given);
            } else if !tok.starts_with('-') {
                if given.positional.len() == max {
                    return Err(format!("unexpected argument `{tok}`"));
                }
                given.positional.push(tok);
                continue;
            }
            let mut entries = self.flags.iter().flat_map(|table| table.iter());
            let flag = entries
                .find(|f| f.spec.split([',', ' ']).any(|w| w == tok))
                .ok_or_else(|| format!("unknown flag `{tok}`"))?;
            let name = flag.name();
            let raw = if flag.takes_value() {
                argv.next().ok_or_else(|| format!("{name} needs a value"))?
            } else {
                String::new()
            };
            let value = match flag.parse {
                Some(parse) => parse(&raw).map_err(|e| format!("{name}: {e}"))?,
                None => Box::new(()),
            };
            given.flags.push((flag, raw, value));
        }
        let (args, name) = (self.args, self.name);
        if given.positional.is_empty() && !args.is_empty() && !args.starts_with('[') {
            return Err(format!("missing {args} (see `{name} --help`)"));
        }
        Ok(given)
    }

    /// The `--help` text: usage line, what the command does, one line
    /// per flag.
    pub fn help(&self) -> String {
        let mut out = format!("usage: {}\n\n", self.usage());
        if !self.about.is_empty() {
            out += &format!("{}\n\n", self.about);
        }
        out += "flags:\n";
        let help = [&Flag::new("-h, --help", "print this help")];
        for f in self.flags.iter().flat_map(|table| table.iter()).chain(help) {
            let indent = if f.spec.starts_with("--") { "    " } else { "" };
            out += &format!("  {:<26}  {}\n", format!("{indent}{}", f.spec), f.help);
        }
        out
    }

    /// [`Self::parse`] over this process's arguments, for a `main`:
    /// `--help` prints the help and exits 0, a refused command line exits
    /// 2 through [`refuse`].
    pub fn from_env(&self) -> Given {
        self.parse_or_exit(args())
    }

    pub fn parse_or_exit(&self, argv: Vec<String>) -> Given {
        match self.parse(argv) {
            Ok(given) if given.help => {
                print!("{}", self.help());
                std::process::exit(0)
            }
            Ok(given) => given,
            Err(e) => refuse(self.name.split(' ').next().unwrap_or(self.name), &e),
        }
    }
}

/// This process's arguments after the program name. The one place argv
/// is read.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// How every command refuses its command line: `program: why` on
/// stderr, exit status 2.
pub fn refuse(program: &str, why: &str) -> ! {
    eprintln!("{program}: {why}");
    std::process::exit(2)
}

/// The [`TUNE`] flags applied to a config: the config every tune of the
/// process starts from, and the sinks to close when its tunes are done.
#[derive(Clone)]
pub struct TuneFlags {
    pub base: TuneConfig,
    trace: Option<Arc<JsonlSink>>,
    metrics: Option<String>,
}

impl TuneFlags {
    /// `base`, with no tune flag given.
    pub fn new(base: TuneConfig) -> TuneFlags {
        TuneFlags {
            base,
            trace: None,
            metrics: None,
        }
    }

    /// Apply the [`TUNE`] flags in `given` to `base`, naming on stderr
    /// each one that changes how the search runs. Each sink — trace,
    /// tuned-results database — is opened here, once per process; one
    /// that cannot be opened is an error naming its flag.
    pub fn open(given: &Given, mut base: TuneConfig) -> Result<TuneFlags, String> {
        if let Some(jobs) = given.get("--jobs") {
            base = base.jobs(jobs);
        }
        if let Some(n) = given.get("--workers").filter(|&n: &usize| n > 0) {
            base = base.workers(n);
            eprintln!("worker pool: dispatching evaluations to {n} ifko worker processes");
        }
        if let Some(plan) = given.get::<FaultPlan>("--chaos") {
            eprintln!(
                "chaos fault injection on: seed {:#x}, rate {}",
                plan.seed, plan.compile
            );
            base = base.faults(plan);
        }
        if let Some(retries) = given.get("--max-retries") {
            base = base.max_retries(retries);
        }
        if let Some(strategy) = given.get("--strategy") {
            base = base.strategy(strategy);
        }
        if let Some(budget) = given.get("--budget") {
            base = base.budget(budget);
        }
        if let Some(dir) = given.raw("--db") {
            base = base.tuned_db(dir).map_err(|e| format!("--db {dir}: {e}"))?;
            eprintln!("tuned-results database: {dir} (one journal, tuned.jsonl)");
        }
        let mut run = TuneFlags::new(base);
        if let Some(path) = given.raw("--trace") {
            let sink = JsonlSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
            run.base = run.base.trace(sink.clone());
            run.trace = Some(sink);
            eprintln!("tracing evaluations to {path}");
        }
        run.metrics = given.raw("--metrics").map(str::to_string);
        Ok(run)
    }

    /// Close the process's tunes: flush the JSONL trace and write the
    /// metrics snapshot.
    pub fn finish(&self) -> Result<(), String> {
        if let Some(sink) = &self.trace {
            sink.flush();
        }
        if let Some(path) = &self.metrics {
            crate::metrics::global()
                .write_snapshot(path)
                .map_err(|e| format!("--metrics {path}: {e}"))?;
            eprintln!("metrics snapshot written to {path}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[rustfmt::skip]
    const CMD: Command = Command {
        name: "prog run",
        args: "FILE",
        about: "Run one thing.",
        flags: &[&[
            Flag::new("-n, --n N", "a size").parse(num::<u32>).remote(),
            Flag::new("--dry", "a switch"),
        ], TUNE],
    };

    fn parse(args: &[&str]) -> Result<Given, String> {
        CMD.parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn every_refusal_has_one_form() {
        let err = |args: &[&str]| parse(args).err().unwrap_or_default();
        assert_eq!(err(&["f", "--bogus"]), "unknown flag `--bogus`");
        assert_eq!(err(&["f", "--n"]), "--n needs a value");
        assert_eq!(err(&["f", "-n", "x"]), "--n: invalid digit found in string");
        assert_eq!(
            err(&["f", "--max-retries", "-1"]),
            "--max-retries: invalid digit found in string"
        );
        assert_eq!(err(&["f", "g"]), "unexpected argument `g`");
        assert_eq!(err(&["--n", "3"]), "missing FILE (see `prog run --help`)");
    }

    #[test]
    fn values_are_typed_and_the_last_one_wins() {
        let g = parse(&["f", "-n", "3", "--strategy", "hc", "--n", "4", "--dry"]).unwrap();
        assert_eq!(g.positional, ["f"]);
        assert_eq!(g.get::<u32>("--n"), Some(4));
        assert_eq!(g.raw("--strategy"), Some("hc"));
        assert_eq!(g.get("--strategy"), Some(StrategySpec::HillClimb));
        assert!(g.has("--dry") && !g.has("--db"));
    }

    #[test]
    fn positional_counts_follow_the_spec() {
        let cmd = |args| Command {
            args,
            ..Command::new("p", &[])
        };
        let count = |args, n: usize| {
            cmd(args)
                .parse(vec!["a".to_string(); n])
                .map(|g| g.positional.len())
        };
        assert_eq!(count("", 0), Ok(0));
        assert!(count("", 1).is_err());
        assert!(count("FILE", 0).is_err() && count("FILE", 2).is_err());
        assert_eq!(count("FILE...", 3), Ok(3));
        assert_eq!(count("[FILE...]", 0), Ok(0));
    }

    #[test]
    fn help_is_generated_from_the_table() {
        let g = parse(&["--help", "--bogus"]).unwrap();
        assert!(g.help, "nothing after --help is read");
        let help = CMD.help();
        assert!(help.starts_with("usage: prog run FILE [flags]\n\nRun one thing.\n"));
        assert!(help.contains("\n  -n, --n N "), "{help}");
        assert!(help.contains("\n      --trace PATH "), "{help}");
        assert!(help.contains("\n  -h, --help "), "{help}");
    }

    #[test]
    fn local_only_is_what_a_remote_request_does_not_carry() {
        let args = [
            "f",
            "--n",
            "3",
            "--metrics",
            "m",
            "--budget",
            "9",
            "-j",
            "2",
            "--metrics",
            "n",
        ];
        assert_eq!(parse(&args).unwrap().local_only(), ["--metrics", "--jobs"]);
    }
}
