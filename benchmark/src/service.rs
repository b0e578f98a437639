//! `service_warm`: an in-process `ifkod` on a scratch directory. Set-up
//! cold-tunes `IC`'s 28 suite keys through the socket (the write path);
//! the timed section replays a seeded closed-loop schedule of warm
//! `tune` (75 %) and exact-key `query` (25 %) requests.

use crate::sets::{Subject, TuneSpec};
use crate::spec::Scale;
use crate::staged::{replay_warm, Spans};
use crate::util::{cpu_seconds, geomean, median, midmean, nproc, peak_rss_mb, HostSpeed, Scratch};
use crate::workloads::{push_trace_metrics, Report};
use ifko::report::Json;
use ifko::runner::{run_once, KernelArgs};
use ifko::strategy::db::params_from_json;
use ifko_blas::{Kernel, Workload};
use ifko_daemon::client::TuneRequest;
use ifko_daemon::{Client, Daemon, DaemonConfig, DaemonHandle};
use ifko_fko::{CompileOpts, CompileSession, TransformParams};
use ifko_xsim::rng::Rng64;
use std::path::PathBuf;
use std::time::Instant;

/// One tuned key: what set-up stored and every warm reply must repeat.
pub struct Key {
    pub spec: TuneSpec,
    pub kernel: Kernel,
    pub best: TransformParams,
    pub best_cycles: u64,
    pub default_cycles: u64,
    pub insts: usize,
}

impl Key {
    /// The machine as the daemon's requests name it (`p4e`, `opteron`).
    pub fn machine_name(&self) -> String {
        self.spec.machine.name.to_lowercase()
    }
}

/// A running daemon with its keys tuned.
pub struct Service {
    pub keys: Vec<Key>,
    pub socket: PathBuf,
    handle: DaemonHandle,
    _dir: Scratch,
}

impl Service {
    pub fn stop(self) {
        self.handle.stop();
    }
}

fn num(v: &Json, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply lacks {field}"))
}

fn request_for(kernel: Kernel, spec: &TuneSpec, seed: u64) -> TuneRequest {
    TuneRequest {
        kernel: Some(kernel.name()),
        machine: spec.machine.name.to_lowercase(),
        context: "ic".to_string(),
        n: Some(spec.n),
        seed: Some(seed),
        // The paper's full candidate sets, as the tune workloads use.
        full: true,
        ..TuneRequest::default()
    }
}

/// The warm tune request for a key set-up has tuned.
pub fn tune_request(key: &Key, seed: u64) -> TuneRequest {
    request_for(key.kernel, &key.spec, seed)
}

/// Start a daemon on a fresh scratch directory and cold-tune every suite
/// key of `IC` through its socket. A stored winner that fails the
/// reference check is reported in the failure list.
pub fn start(
    scale: &Scale,
    seed: u64,
    host: &mut HostSpeed,
) -> Result<(Service, Vec<String>), String> {
    let dir = Scratch::new("svc").map_err(|e| e.to_string())?;
    let socket = dir.path().join("d.sock");
    let cfg = DaemonConfig {
        quiet: true,
        ..DaemonConfig::new(&socket, dir.path().join("db"))
    };
    let handle = Daemon::start(cfg).map_err(|e| e.to_string())?;
    let mut client = Client::connect(&socket).map_err(|e| e.to_string())?;
    let workload = Workload::generate(scale.ic_n, seed);

    let (mut keys, mut failures) = (Vec::new(), Vec::new());
    for spec in crate::sets::ic_set(scale) {
        let Subject::Blas(kernel) = spec.subject else {
            continue;
        };
        let t0 = Instant::now();
        let reply = client.tune(&request_for(kernel, &spec, seed))?;
        host.sample(t0.elapsed().as_secs_f64() * HostSpeed::DUTY);
        let best = reply.get("params").and_then(params_from_json);
        let best = best.ok_or_else(|| format!("{}: reply lacks params", spec.id()))?;
        let (best_cycles, default_cycles) =
            (num(&reply, "best_cycles")?, num(&reply, "default_cycles")?);

        // The stored winner, recompiled here, must pass the reference.
        let src = ifko_blas::hil_src::hil_source(kernel.op, kernel.prec);
        let compiled = CompileSession::from_source(&src, &spec.machine)
            .and_then(|s| s.compile(&best, CompileOpts::default()))
            .map_err(|e| e.to_string())?;
        let args = KernelArgs {
            kernel,
            workload: &workload,
            context: spec.context,
        };
        let checked = run_once(&compiled, &args, &spec.machine)
            .map_err(|e| e.to_string())
            .and_then(|out| {
                ifko::tester::verify(kernel, &workload, &out).map_err(|e| e.to_string())
            });
        if let Err(e) = checked {
            failures.push(format!("{}: stored winner: {e}", spec.id()));
        }
        if best_cycles > default_cycles || reply.get("warm").and_then(Json::as_bool) != Some(false)
        {
            failures.push(format!("{}: cold tune reply {reply:?}", spec.id()));
        }
        keys.push(Key {
            spec,
            kernel,
            best,
            best_cycles,
            default_cycles,
            insts: compiled.program.len(),
        });
    }
    let service = Service {
        keys,
        socket,
        handle,
        _dir: dir,
    };
    Ok((service, failures))
}

#[derive(Clone, Copy)]
pub enum Request {
    Tune(usize),
    Query(usize),
}

/// The request schedule: every key is tuned and queried equally often,
/// three tunes to one query, so the seed decides only the order.
pub fn schedule(n_keys: usize, requests: usize, seed: u64) -> Vec<Request> {
    let rounds = requests / (n_keys * 4);
    let mut reqs = Vec::with_capacity(rounds * n_keys * 4);
    for _ in 0..rounds {
        for k in 0..n_keys {
            reqs.extend([
                Request::Tune(k),
                Request::Tune(k),
                Request::Tune(k),
                Request::Query(k),
            ]);
        }
    }
    let mut rng = Rng64::seed_from_u64(seed);
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.range_usize(i + 1));
    }
    reqs
}

/// Connections issuing requests at once: the daemon answers each on a
/// thread of its own, so clients + handlers stay within `nproc`.
pub fn clients() -> usize {
    (nproc() / 2).max(1)
}

#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub latency_ms: Vec<f64>,
    pub failures: Vec<String>,
    pub fresh: u64,
    pub cache_hits: u64,
    pub pruned: u64,
    pub to_winner: u64,
    /// Host-speed samples taken between requests; `wall_s` excludes them.
    pub host: HostSpeed,
}

/// Issue one request and check the reply against what set-up stored.
fn issue(
    client: &mut Client,
    key: &Key,
    req: Request,
    seed: u64,
    pass: &mut Pass,
) -> Result<(), String> {
    let machine = key.machine_name();
    match req {
        Request::Tune(_) => {
            let reply = client.tune(&tune_request(key, seed))?;
            let same = num(&reply, "best_cycles")? == key.best_cycles
                && num(&reply, "default_cycles")? == key.default_cycles
                && reply.get("params").and_then(params_from_json).as_ref() == Some(&key.best)
                && reply.get("warm").and_then(Json::as_bool) == Some(true);
            if !same {
                return Err(format!(
                    "warm tune reply differs from the stored winner: {reply:?}"
                ));
            }
            pass.fresh += num(&reply, "evaluations")?;
            pass.cache_hits += num(&reply, "cache_hits")?;
            pass.pruned += num(&reply, "pruned")?;
            // A warm tune probes the defaults, then the stored winner.
            pass.to_winner += if key.best_cycles < key.default_cycles {
                2
            } else {
                1
            };
        }
        Request::Query(_) => {
            let reply = client.query(&key.kernel.name(), &machine, "ic", None, None)?;
            let cycles = reply
                .get("record")
                .and_then(|r| r.get("cycles"))
                .and_then(Json::as_u64);
            if reply.get("found").and_then(Json::as_bool) != Some(true)
                || cycles != Some(key.best_cycles)
            {
                return Err(format!(
                    "query reply differs from the stored winner: {reply:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Replay `schedule` closed-loop over [`clients`] connections, request
/// `i` on connection `i % clients`. With `spans`, each connect and each
/// request is recorded.
pub fn run_pass(service: &Service, schedule: &[Request], seed: u64, spans: Option<&Spans>) -> Pass {
    let n_clients = clients();
    let parts: Vec<Pass> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut pass = Pass::default();
                    let connect = || Client::connect(&service.socket);
                    let client = match spans {
                        Some(s) => s.call("client.connect", None, 0, connect),
                        None => connect(),
                    };
                    let mut client = match client {
                        Ok(client) => client,
                        Err(e) => {
                            pass.failures.push(format!("connect: {e}"));
                            return pass;
                        }
                    };
                    let loop_t0 = Instant::now();
                    let mine = schedule.iter().skip(c).step_by(n_clients);
                    for (i, req) in mine.enumerate() {
                        // About 8 % of the pass goes to sampling the host.
                        if i % 8 == 7 {
                            pass.host.sample(1e-3);
                        }
                        let (Request::Tune(k) | Request::Query(k)) = *req;
                        let key = &service.keys[k];
                        let name = match req {
                            Request::Tune(_) => "client.tune",
                            Request::Query(_) => "client.query",
                        };
                        let r0 = Instant::now();
                        let span = spans.map(|s| (s, s.open(name, None, 0)));
                        let result = issue(&mut client, key, *req, seed, &mut pass);
                        if let Some((s, id)) = span {
                            s.close(id);
                        }
                        pass.latency_ms.push(r0.elapsed().as_secs_f64() * 1e3);
                        if let Err(e) = result {
                            pass.failures.push(format!("{}: {e}", key.spec.id()));
                        }
                    }
                    pass.wall_s = loop_t0.elapsed().as_secs_f64() - pass.host.spent_s();
                    pass
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });
    let mut all = Pass::default();
    for p in parts {
        // The pass lasts as long as its slowest connection.
        all.wall_s = all.wall_s.max(p.wall_s);
        all.host.merge(&p.host);
        all.latency_ms.extend(p.latency_ms);
        all.failures.extend(p.failures);
        all.fresh += p.fresh;
        all.cache_hits += p.cache_hits;
        all.pruned += p.pruned;
        all.to_winner += p.to_winner;
    }
    all
}

/// End to end: set-up (three times for a median, the last daemon kept),
/// then whole passes of the schedule until `seconds` have elapsed.
pub fn run_e2e(scale: &Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..scale.reps(3) {
        if let Some(old) = service.take() {
            Service::stop(old);
        }
        let mut host = HostSpeed::default();
        let t0 = Instant::now();
        let (started, failures) = start(scale, seed, &mut host)?;
        setups.push((t0.elapsed().as_secs_f64() - host.spent_s()) * host.factor());
        report.failures = failures;
        service = Some(started);
    }
    let service = service.expect("set-up ran at least once");
    report.attempted += service.keys.len() as u64;

    let schedule = schedule(service.keys.len(), scale.requests, seed);
    let (mut walls, mut latency_ms) = (Vec::new(), Vec::new());
    let mut cpu_s = 0.0;
    let mut probes = None;
    let timed = Instant::now();
    loop {
        let cpu0 = cpu_seconds();
        let pass = run_pass(&service, &schedule, seed, None);
        // The pass's times are reported at reference host speed.
        let at_reference = pass.host.factor();
        cpu_s += (cpu_seconds() - cpu0 - pass.host.spent_s()) * at_reference;
        report.passes.push((pass.wall_s, at_reference));
        walls.push(pass.wall_s * at_reference);
        report.attempted += schedule.len() as u64;
        report.failures.extend(pass.failures);
        latency_ms.extend(pass.latency_ms.iter().map(|ms| ms * at_reference));
        let total = pass.fresh + pass.cache_hits + pass.pruned;
        if *probes.get_or_insert(total) != total {
            return Err(format!(
                "passes disagree on probes_total: {probes:?} then {total}"
            ));
        }
        if timed.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let wall = median(&walls);
    let probes = probes.expect("one pass ran") as f64;
    report.push("setup_s", median(&setups));
    report.push("tune_wall_s", wall);
    report.push("cpu_s", cpu_s / walls.len() as f64);
    report.push("probes_per_s", probes / wall);
    report.push("probes_total", probes);
    let speedups = service
        .keys
        .iter()
        .map(|k| k.default_cycles as f64 / k.best_cycles.max(1) as f64);
    report.push("winner_speedup_geomean", geomean(speedups));
    report.push("peak_rss_mb", peak_rss_mb());
    report.push("req_mid_ms", midmean(&latency_ms));
    service.stop();
    Ok(report)
}

/// Traced: one pass with client-side spans, then a staged replay of one
/// warm tune per key, scaled to the schedule's tune count.
pub fn run_traced(scale: &Scale, seed: u64, spans: &Spans) -> Result<Report, String> {
    let mut report = Report::default();
    let (service, failures) = start(scale, seed, &mut HostSpeed::default())?;
    report.failures = failures;
    report.attempted += service.keys.len() as u64;

    let schedule = schedule(service.keys.len(), scale.requests, seed);
    let pass = run_pass(&service, &schedule, seed, Some(spans));
    report.attempted += schedule.len() as u64;
    report.failures.extend(pass.failures);

    for (i, key) in service.keys.iter().enumerate() {
        replay_warm(spans, i as u32 + 1, &key.spec, key.kernel, &key.best, seed)?;
    }
    let tunes_per_key = (schedule.len() / service.keys.len() / 4 * 3) as f64;

    report.push("search.fresh_evals", pass.fresh as f64);
    report.push("search.cache_hits", pass.cache_hits as f64);
    report.push("search.pruned", pass.pruned as f64);
    let answered = (pass.fresh + pass.cache_hits).max(1);
    report.push("search.hit_ratio", pass.cache_hits as f64 / answered as f64);
    report.push("search.probes_to_winner", pass.to_winner as f64);
    let insts: usize = service.keys.iter().map(|k| k.insts).sum();
    report.push("fko.winner_insts", insts as f64 / service.keys.len() as f64);
    push_trace_metrics(
        &mut report,
        spans,
        tunes_per_key,
        pass.wall_s * clients() as f64,
    );
    service.stop();
    Ok(report)
}
