//! The tune workloads (`cold_oc`, `cold_ic`, and the pooled variants
//! `jobs_oc` and `workers_oc`): end-to-end passes with tracing off, and
//! the traced pass (real tune with a `MemSink`, then the staged replay).

use crate::sets::{run_tune, CheckInputs, Pool, TuneOut, TuneSpec};
use crate::spec::Scale;
use crate::staged::{replay, Spans, STAGES};
use crate::util::{cpu_seconds, geomean, median, midmean, peak_rss_mb, HostSpeed};
use ifko::eval::MemSink;
use std::time::Instant;

/// What one run of one workload reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// `(tune id, winner params, winner cycles)` of an end-to-end run's
    /// tunes, for comparing pooled workloads against `cold_oc` across
    /// processes.
    pub winners: Vec<(String, String, u64)>,
    /// `(raw wall seconds, host-speed factor)` of each end-to-end pass,
    /// kept in the result file so a noisy run can be told from a slow one.
    pub passes: Vec<(f64, f64)>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Everything done before the timed section: generate the check inputs
/// from the seed, and run every tune once at a tiny size so code pages,
/// lazy statics and the allocator are warm. The host's speed is sampled
/// after each tune, as in a timed pass.
fn set_up(set: &[TuneSpec], seed: u64, host: &mut HostSpeed) -> Result<CheckInputs, String> {
    let inputs = CheckInputs::new(set, seed);
    for spec in set {
        let tiny = TuneSpec {
            n: 64,
            ..spec.clone()
        };
        let t0 = Instant::now();
        run_tune(&tiny, seed, Pool::Serial, None)?;
        host.sample(t0.elapsed().as_secs_f64() * HostSpeed::DUTY);
    }
    Ok(inputs)
}

/// The counts a pass must repeat exactly.
fn exact_of(outs: &[TuneOut]) -> Vec<(String, String, u64, u64)> {
    outs.iter()
        .map(|o| {
            let (params, cycles) = o.winner();
            (o.id.clone(), params, cycles, o.probes())
        })
        .collect()
}

/// Run `set` end to end, whole passes until `seconds` have elapsed (at
/// least one), tracing off. Set-up runs `setup_reps` times and its median
/// is reported, so one slow page-in does not decide `setup_s`.
pub fn run_e2e(
    set: &[TuneSpec],
    pool: Pool,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(setup_reps);
    let mut inputs = None;
    for _ in 0..setup_reps {
        let mut host = HostSpeed::default();
        let t0 = Instant::now();
        inputs = Some(set_up(set, seed, &mut host)?);
        setups.push((t0.elapsed().as_secs_f64() - host.spent_s()) * host.factor());
    }
    let inputs = inputs.expect("set-up ran at least once");

    let mut report = Report::default();
    let (mut walls, mut tune_ms) = (Vec::new(), Vec::new());
    let mut cpu_s = 0.0;
    let mut first: Option<Vec<TuneOut>> = None;
    let timed = Instant::now();
    loop {
        // After each tune the host's speed is sampled for a share of the
        // tune's time; the pass's times are reported at reference speed.
        let mut host = HostSpeed::default();
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let results: Vec<_> = set
            .iter()
            .map(|s| {
                let t1 = Instant::now();
                let result = run_tune(s, seed, pool, None);
                host.sample(t1.elapsed().as_secs_f64() * HostSpeed::DUTY);
                result
            })
            .collect();
        let at_reference = host.factor();
        let raw = t0.elapsed().as_secs_f64() - host.spent_s();
        report.passes.push((raw, at_reference));
        walls.push(raw * at_reference);
        cpu_s += (cpu_seconds() - cpu0 - host.spent_s()) * at_reference;

        // Checks run outside the timed pass.
        let mut outs = Vec::with_capacity(set.len());
        for (spec, result) in set.iter().zip(results) {
            report.attempted += 1;
            match result {
                Err(e) => report.failures.push(format!("{}: {e}", spec.id())),
                Ok((out, compiled)) => {
                    if let Err(e) = inputs.check(spec, &out, &compiled) {
                        report.failures.push(e);
                    }
                    tune_ms.push(out.wall_s * 1e3 * at_reference);
                    outs.push(out);
                }
            }
        }
        match &first {
            None => first = Some(outs),
            Some(first) => {
                let (a, b) = (exact_of(first), exact_of(&outs));
                if a != b {
                    let diff = a.iter().zip(&b).find(|(x, y)| x != y);
                    return Err(format!("passes disagree on exact counts: {diff:?}"));
                }
            }
        }
        if timed.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let first = first.expect("one pass ran");
    if first.is_empty() {
        return Err(format!("every tune failed: {:?}", report.failures));
    }
    let wall = median(&walls);
    let probes: u64 = first.iter().map(TuneOut::probes).sum();
    report.push("setup_s", median(&setups));
    report.push("tune_wall_s", wall);
    // /proc counts CPU time in 10 ms ticks: the mean over passes keeps
    // the digits a median of ticks would round away.
    report.push("cpu_s", cpu_s / walls.len() as f64);
    report.push("probes_per_s", probes as f64 / wall);
    report.push("probes_total", probes as f64);
    report.push(
        "winner_speedup_geomean",
        geomean(first.iter().map(TuneOut::speedup)),
    );
    report.push("peak_rss_mb", peak_rss_mb());
    report.push("req_mid_ms", midmean(&tune_ms));
    report.winners = first
        .iter()
        .map(|o| {
            let (params, cycles) = o.winner();
            (o.id.clone(), params, cycles)
        })
        .collect();
    Ok(report)
}

/// 1-based position, among the evaluation events the real tune traced,
/// of the probe that first produced the winner.
fn probes_to_winner(sink: &MemSink, out: &TuneOut) -> u64 {
    let (params, cycles) = out.winner();
    let evals = sink.evals();
    let first = evals
        .iter()
        .position(|e| e.params == params && e.cycles == Some(cycles));
    first.map_or(0, |i| i as u64 + 1)
}

/// One traced pass over `set`: each tune runs for real with a `MemSink`
/// attached, is checked, and is then replayed stage by stage. Returns
/// the `search.*`, `trace.*`, `fko.winner_insts` and
/// `engine.residual_share` metrics.
pub fn run_traced(
    set: &[TuneSpec],
    pool: Pool,
    seed: u64,
    spans: &Spans,
) -> Result<Report, String> {
    let inputs = CheckInputs::new(set, seed);
    let mut report = Report::default();
    let mut outs = Vec::with_capacity(set.len());
    let mut to_winner = 0u64;
    for (i, spec) in set.iter().enumerate() {
        report.attempted += 1;
        let sink = MemSink::new();
        let (out, compiled) = match run_tune(spec, seed, pool, Some(&sink)) {
            Ok(done) => done,
            Err(e) => {
                report.failures.push(format!("{}: {e}", spec.id()));
                continue;
            }
        };
        if let Err(e) = inputs.check(spec, &out, &compiled) {
            report.failures.push(e);
        }
        let staged = replay(spans, i as u32 + 1, spec, seed)?;
        let real_to_winner = probes_to_winner(&sink, &out);
        if staged.winner != out.winner()
            || staged.fresh != out.fresh
            || staged.probes_to_winner != real_to_winner
        {
            report.failures.push(format!(
                "{}: staged replay found {:?} ({} fresh, winner at probe {}), the tune {:?} ({} fresh, probe {})",
                out.id,
                staged.winner,
                staged.fresh,
                staged.probes_to_winner,
                out.winner(),
                out.fresh,
                real_to_winner,
            ));
        }
        to_winner += real_to_winner;
        outs.push(out);
    }
    if outs.is_empty() {
        return Err(format!("every tune failed: {:?}", report.failures));
    }

    let fresh: u64 = outs.iter().map(|o| o.fresh as u64).sum();
    let hits: u64 = outs.iter().map(|o| o.cache_hits as u64).sum();
    let pruned: u64 = outs.iter().map(|o| o.pruned as u64).sum();
    report.push("search.fresh_evals", fresh as f64);
    report.push("search.cache_hits", hits as f64);
    report.push("search.pruned", pruned as f64);
    report.push(
        "search.hit_ratio",
        hits as f64 / (fresh + hits).max(1) as f64,
    );
    report.push("search.probes_to_winner", to_winner as f64);
    let insts: usize = outs.iter().map(|o| o.insts).sum();
    report.push("fko.winner_insts", insts as f64 / outs.len() as f64);

    let real_wall: f64 = outs.iter().map(|o| o.wall_s).sum();
    push_trace_metrics(&mut report, spans, 1.0, real_wall * pool.width() as f64);
    Ok(report)
}

/// `trace.<stage>_s` (staged self times, scaled by `times`) and
/// `engine.residual_share`: the share of the real run's thread-time
/// (`capacity_s` = wall x evaluators) that no layer call accounts for —
/// engine, search, cache and bookkeeping, plus idle evaluators in a pool.
pub fn push_trace_metrics(report: &mut Report, spans: &Spans, times: f64, capacity_s: f64) {
    let own = spans.self_times();
    let mut accounted = 0.0;
    for (stage, name) in STAGES {
        let s = own.get(stage).copied().unwrap_or(0.0) * times;
        accounted += s;
        report.push(name, s);
    }
    report.push("engine.residual_share", 1.0 - accounted / capacity_s);
}

/// The tune set and pool of a tune workload, by name.
pub fn tune_workload(name: &str, scale: &Scale, nproc: usize) -> Option<(Vec<TuneSpec>, Pool)> {
    use crate::sets::{ic_set, oc_set};
    match name {
        "cold_oc" => Some((oc_set(scale), Pool::Serial)),
        "cold_ic" => Some((ic_set(scale), Pool::Serial)),
        "jobs_oc" => Some((oc_set(scale), Pool::Jobs(nproc))),
        "workers_oc" => Some((oc_set(scale), Pool::Workers(nproc))),
        _ => None,
    }
}
