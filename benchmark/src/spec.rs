//! The benchmark's vocabulary: workloads and metrics, by name, unit,
//! direction and bound. `BENCHMARK.json` at the repo root carries the
//! same tables for the driver; `tests/quick.rs` asserts the two agree.

/// Seed used when `--seed` is not given. A claimed gain must also hold
/// on the held-out seed the README names.
pub const DEFAULT_SEED: u64 = 2005;
/// Seconds one run measures when `--seconds` is not given (equals
/// `run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 30.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads the driver runs and `BENCHMARK.json` names. All three
/// keep one evaluator busy at a time: a run that needs every core at once
/// measures the shared host's scheduler (see the README).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cold_oc",
        why: "serial cold tune of 17 kernels out of cache: simulate+timer dominate, compile is under 2%",
    },
    Workload {
        name: "cold_ic",
        why: "same evaluator at N=1024 on two machines: compile, per-call set-up and engine residual dominate",
    },
    Workload {
        name: "service_warm",
        why: "ifkod warm tune and query requests: parse, session open, tuned-db index, proto and daemon threads",
    },
];

/// `cold_oc`'s tunes through the two pools. The all-workload run makes one
/// pass of each, checks the winners against `cold_oc`'s and prints the
/// full-size speed-ups; they are not driver workloads because their wall
/// time hangs on how fast the host wakes an idle core.
pub const POOLED: &[Workload] = &[
    Workload {
        name: "jobs_oc",
        why: "cold_oc's tunes on nproc engine threads: batch fan-out cost shows against cold_oc",
    },
    Workload {
        name: "workers_oc",
        why: "cold_oc's tunes on nproc worker processes: proto framing, dispatch and spawn cost show only here",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tune_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "probes_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "probes_total",
        unit: "count",
        better: "lower",
        bound: 0.003,
    },
    EndToEnd {
        name: "winner_speedup_geomean",
        unit: "ratio",
        better: "higher",
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "req_mid_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    pl("harness.calib_mops", "Mops/s", "higher"),
    pl("hil.frontend_us", "us", "lower"),
    pl("fko.session_open_us", "us", "lower"),
    pl("fko.compile_us", "us", "lower"),
    pl("fko.xform_us", "us", "lower"),
    pl("fko.opt_us", "us", "lower"),
    pl("fko.regalloc_us", "us", "lower"),
    pl("fko.codegen_us", "us", "lower"),
    pl("fko.compile_verified_us", "us", "lower"),
    pl("fko.subcache_hit_ratio", "ratio", "higher"),
    pl("fko.predict_us", "us", "lower"),
    pl("fko.winner_insts", "count", "lower"),
    pl("xsim.run_oc_minst_s", "Minst/s", "higher"),
    pl("xsim.run_ic_minst_s", "Minst/s", "higher"),
    pl("xsim.cpu_new_us", "us", "lower"),
    pl("xsim.mem_new_us", "us", "lower"),
    // An identity, not a quantity: a simulator-speed change must not move it.
    pl("xsim.stats_fingerprint", "count", "lower"),
    pl("runner.run_once_oc_us", "us", "lower"),
    pl("runner.run_once_ic_us", "us", "lower"),
    pl("runner.fixed_share_ic", "ratio", "lower"),
    pl("tester.verify_oc_us", "us", "lower"),
    pl("tester.verify_ic_us", "us", "lower"),
    pl("timer.time_robust_oc_us", "us", "lower"),
    pl("timer.runs_per_timing", "ratio", "lower"),
    pl("evalcache.get_ns", "ns", "lower"),
    pl("evalcache.insert_ns", "ns", "lower"),
    pl("evalcache.persist_insert_us", "us", "lower"),
    pl("evalcache.load_ms", "ms", "lower"),
    pl("engine.batch_overhead_j1_us", "us", "lower"),
    pl("engine.batch_overhead_jn_us", "us", "lower"),
    pl("engine.jobs_speedup", "ratio", "higher"),
    pl("engine.workers_speedup", "ratio", "higher"),
    pl("engine.residual_share", "ratio", "lower"),
    pl("search.fresh_evals", "count", "lower"),
    pl("search.cache_hits", "count", "higher"),
    pl("search.pruned", "count", "higher"),
    pl("search.hit_ratio", "ratio", "higher"),
    pl("search.probes_to_winner", "count", "lower"),
    pl("tuneddb.lookup_ns", "ns", "lower"),
    pl("tuneddb.store_us", "us", "lower"),
    pl("tuneddb.open_ms", "ms", "lower"),
    pl("tuneddb.compact_ms", "ms", "lower"),
    pl("proto.roundtrip_us", "us", "lower"),
    pl("proto.frame_mb_s", "MB/s", "higher"),
    pl("worker.spawn_ms", "ms", "lower"),
    pl("worker.eval_overhead_us", "us", "lower"),
    pl("daemon.start_ms", "ms", "lower"),
    pl("daemon.ping_us", "us", "lower"),
    pl("daemon.query_us", "us", "lower"),
    pl("daemon.warm_tune_us", "us", "lower"),
    pl("daemon.req_p95_ms", "ms", "lower"),
    pl("daemon.req_per_s", "1/s", "higher"),
    pl("trace.open_s", "s", "lower"),
    pl("trace.predict_s", "s", "lower"),
    pl("trace.compile_s", "s", "lower"),
    pl("trace.simulate_s", "s", "lower"),
    pl("trace.test_s", "s", "lower"),
    pl("trace.time_s", "s", "lower"),
    pl("trace.overhead_pct", "%", "lower"),
];

/// Problem sizes and request counts: the full benchmark, or `--quick`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Out-of-cache problem size: a quarter of the paper's 80 000, so that
    /// a driver run holds five or six cold passes to take a median over.
    pub oc_n: usize,
    /// In-L2 problem size (the paper's).
    pub ic_n: usize,
    /// Requests in one `service_warm` pass: a multiple of 28 keys x
    /// (3 tunes + 1 query), so the seed moves only the order.
    pub requests: usize,
    /// Divisor on layer-probe repetition counts.
    pub rep_div: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            oc_n: 20_000,
            ic_n: 1024,
            requests: 112 * 18,
            rep_div: 1,
        }
    }
    pub fn quick() -> Scale {
        Scale {
            oc_n: 256,
            ic_n: 256,
            requests: 112 * 2,
            rep_div: 10,
        }
    }
    /// `n` repetitions at full scale, a tenth of that under `--quick`.
    pub fn reps(&self, n: usize) -> usize {
        (n / self.rep_div).max(1)
    }
}

/// `BENCHMARK.json`, generated from the tables above (`ifko-benchmark
/// spec`), so the driver's copy and the harness cannot drift apart.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        )
    });
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect())
    )
}
