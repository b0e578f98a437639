//! Metrics under concurrency: the registry's counters must agree
//! *exactly* with the deterministic search result at every `--jobs`
//! width — no lost updates, no double counts — and enabling metrics
//! must not perturb the search itself.

use ifko::metrics::{self, MetricsRegistry};
use ifko::prelude::*;
use std::sync::Arc;

fn dot() -> Kernel {
    Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    }
}

/// Sum one counter family across all its label variants.
fn family_total(reg: &MetricsRegistry, base: &str) -> u64 {
    reg.snapshot()
        .iter()
        .filter(|s| s.name == base || s.name.starts_with(&format!("{base}{{")))
        .map(|s| match s.value {
            metrics::MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// A user HIL source (differential oracle), tuned through
/// `TuneConfig::tune_source` — the CLI's only tune path.
const WAXPBY_HIL: &str = include_str!("../../../kernels/waxpby.hil");

/// The acceptance criterion: with 8 workers, fresh evaluations + cache
/// hits add up to the total probe count exactly, and every engine
/// counter equals the (jobs-invariant) search result's own tally — for a
/// suite kernel and for a `.hil` source alike.
#[test]
fn counters_are_exact_under_jobs_8() {
    for hil in [None, Some(WAXPBY_HIL)] {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = MemSink::new();
        let cfg = TuneConfig::quick(1024)
            .jobs(8)
            .metrics(reg.clone())
            .trace(sink.clone());
        let result = match hil {
            None => cfg.tune(dot()).unwrap().result,
            Some(src) => cfg.tune_source(src).unwrap().result,
        };

        let evals = reg.counter_value(metrics::ENGINE_EVALS).unwrap_or(0);
        let hits = reg.counter_value(metrics::ENGINE_CACHE_HITS).unwrap_or(0);
        let rejected = reg.counter_value(metrics::ENGINE_REJECTED).unwrap_or(0);
        let pruned = reg.counter_value(metrics::ENGINE_PRUNED).unwrap_or(0);
        assert_eq!(evals, result.evaluations as u64);
        assert_eq!(hits, result.cache_hits as u64);
        assert_eq!(rejected, result.rejected as u64);
        assert_eq!(pruned, result.pruned as u64);

        // fresh + hits + pruned == total probes, cross-checked against the
        // trace (one eval event per probe), the engine's own probe counter,
        // and the per-phase search counters.
        let probes = sink.evals().len() as u64;
        assert_eq!(
            evals + hits + pruned,
            probes,
            "fresh + hits + pruned != total probes"
        );
        assert_eq!(reg.counter_value(metrics::ENGINE_PROBES), Some(probes));
        assert_eq!(
            family_total(&reg, metrics::SEARCH_CANDIDATES),
            probes,
            "per-phase candidate counters disagree with the probe count"
        );

        // The run-level instruments fired exactly once.
        assert_eq!(reg.counter_value(metrics::TUNE_RUNS), Some(1));
        let wall = reg
            .snapshot()
            .into_iter()
            .find(|s| s.name == metrics::TUNE_WALL_US)
            .expect("ifko_tune_wall_us recorded");
        assert!(matches!(
            wall.value,
            metrics::MetricValue::Histogram { count: 1, .. }
        ));
        let batches = reg.counter_value(metrics::ENGINE_BATCHES).unwrap_or(0);
        assert!(batches > 0, "no batches recorded");
    }
}

/// Two registries, two widths: every counter pair must match, and the
/// search outcome must stay bit-identical with metrics attached (the
/// determinism invariant is not weakened by observability).
#[test]
fn counters_and_results_are_jobs_invariant() {
    let run = |jobs: usize| {
        let reg = Arc::new(MetricsRegistry::new());
        let out = TuneConfig::quick(1024)
            .jobs(jobs)
            .metrics(reg.clone())
            .tune(dot())
            .unwrap();
        (reg, out)
    };
    let (r1, o1) = run(1);
    let (r4, o4) = run(4);
    assert_eq!(o1.result.best, o4.result.best);
    assert_eq!(o1.result.best_cycles, o4.result.best_cycles);
    assert_eq!(o1.result.gains, o4.result.gains);
    for name in [
        metrics::ENGINE_EVALS,
        metrics::ENGINE_CACHE_HITS,
        metrics::ENGINE_REJECTED,
        metrics::ENGINE_BATCHES,
        metrics::TUNE_RUNS,
    ] {
        assert_eq!(
            r1.counter_value(name),
            r4.counter_value(name),
            "{name} differs between jobs=1 and jobs=4"
        );
    }
    for base in [metrics::SEARCH_CANDIDATES, metrics::SEARCH_PHASE_WINS] {
        assert_eq!(
            family_total(&r1, base),
            family_total(&r4, base),
            "{base} family differs between jobs=1 and jobs=4"
        );
    }
}

/// A warm rerun through a shared cache adds only cache hits: the fresh
/// evaluation counter must not move at all.
#[test]
fn warm_rerun_moves_only_the_hit_counter() {
    let reg = Arc::new(MetricsRegistry::new());
    let cache = Arc::new(EvalCache::new());
    let cfg = TuneConfig::quick(1024)
        .jobs(4)
        .metrics(reg.clone())
        .cache(cache);

    let cold = cfg.clone().tune(dot()).unwrap();
    let evals_cold = reg.counter_value(metrics::ENGINE_EVALS).unwrap_or(0);
    let hits_cold = reg.counter_value(metrics::ENGINE_CACHE_HITS).unwrap_or(0);
    assert_eq!(evals_cold, cold.result.evaluations as u64);

    let warm = cfg.tune(dot()).unwrap();
    assert_eq!(warm.result.evaluations, 0);
    assert_eq!(
        reg.counter_value(metrics::ENGINE_EVALS),
        Some(evals_cold),
        "warm rerun performed fresh evaluations"
    );
    assert_eq!(
        reg.counter_value(metrics::ENGINE_CACHE_HITS),
        Some(hits_cold + warm.result.cache_hits as u64)
    );
    assert_eq!(reg.counter_value(metrics::TUNE_RUNS), Some(2));
}

/// Snapshots of a live registry render to both export formats.
#[test]
fn snapshot_exports_render() {
    let reg = Arc::new(MetricsRegistry::new());
    TuneConfig::quick(512)
        .jobs(2)
        .metrics(reg.clone())
        .tune(dot())
        .unwrap();
    let json = reg.to_json();
    assert!(json.contains("\"ifko_engine_evals_total\""));
    let prom = reg.prometheus_text();
    assert!(prom.contains("# TYPE ifko_engine_evals_total counter"));
    assert!(prom.contains("ifko_search_candidates_total{phase=\"SEED\"}"));
}
