//! The static cost model through the whole stack. It predicts; it never
//! decides what is evaluated:
//!
//! 1. **Predictions in the trace** — every measured candidate's trace
//!    event carries its predicted cycles, for `ifko explain`.
//! 2. **Transfer warm starts** — when `--warm-start` finds no exact hit,
//!    the nearest tuned record by static-feature distance is probed
//!    (visible in the trace as an `XFER` probe), after re-verification.
//! 3. **Priced on demand** — a candidate is predicted only when the price
//!    is read (a trace sink, or the tuned db's feature vector), and
//!    reading it never changes the search.

use ifko::eval::{MemSink, SearchEvent};
use ifko::metrics::{self, MetricsRegistry};
use ifko::prelude::*;
use ifko::strategy::{TunedDb, TunedRecord};
use ifko::worker::WorkerLauncher;
use ifko_fko::StaticFeatureVector;
use std::sync::Arc;

const WAXPBY_HIL: &str = include_str!("../../../kernels/waxpby.hil");

fn dk(op: BlasOp) -> Kernel {
    Kernel { op, prec: Prec::D }
}

fn cfg(n: usize) -> TuneConfig {
    TuneConfig::quick(n)
}

/// Every candidate that produced a measurement in a model-attached
/// search also records its prediction in the trace, so `ifko explain`
/// can render predicted vs actual. (Legality-pruned candidates never
/// reach the model, and a candidate whose xform fails has no post-xform
/// IR to predict from — those legitimately carry none.)
#[test]
fn trace_carries_predictions_for_every_candidate() {
    let sink = MemSink::new();
    cfg(1024).trace(sink.clone()).tune(dk(BlasOp::Dot)).unwrap();
    let evals: Vec<_> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            SearchEvent::Eval(ev) => Some(ev.clone()),
            _ => None,
        })
        .collect();
    assert!(!evals.is_empty());
    let measured: Vec<_> = evals.iter().filter(|e| e.cycles.is_some()).collect();
    assert!(!measured.is_empty());
    for ev in &measured {
        assert!(
            ev.predicted.is_some(),
            "measured candidate without a prediction: {}",
            ev.params
        );
    }
    // Predictions must discriminate: a model that assigns every point
    // the same cost tells `ifko explain` nothing.
    let distinct: std::collections::BTreeSet<u64> =
        measured.iter().filter_map(|e| e.predicted).collect();
    assert!(
        distinct.len() > 1,
        "all {} predictions identical: {:?}",
        measured.len(),
        distinct
    );
}

/// Warm-start transfer: a database holding a *different* kernel's tuned
/// record (with its static feature vector) seeds the new search with
/// that winner — the trace shows the XFER probe — and the search still
/// converges to the same result as a cold run.
#[test]
fn nearest_neighbor_seeds_transfer_warm_start() {
    let dir = std::env::temp_dir().join(format!("ifko-xfer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Tune ddot with the db attached: stores its winner + features.
    cfg(1024)
        .tuned_db(dir.join("db"))
        .unwrap()
        .tune(dk(BlasOp::Dot))
        .unwrap();
    let db = TunedDb::open(dir.join("db")).unwrap();
    assert_eq!(db.len(), 1);
    let rec = &db.records()[0];
    assert!(
        rec.features.is_some(),
        "stored record must carry the static feature vector"
    );

    // Tune daxpy against the same db: no exact key, so the ddot record
    // is the nearest neighbor and gets probed first.
    let sink = MemSink::new();
    let warm = cfg(1024)
        .tuned_db(dir.join("db"))
        .unwrap()
        .trace(sink.clone())
        .tune(dk(BlasOp::Axpy))
        .unwrap();
    let xfer_probes: Vec<_> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            SearchEvent::Eval(ev) if ev.phase == "XFER" => Some(ev.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(xfer_probes.len(), 1, "exactly one transfer probe expected");
    assert_eq!(xfer_probes[0].strategy, "xfer");

    // The transferred point is re-verified, never trusted: the final
    // winner matches a cold search exactly.
    let cold = cfg(1024).tune(dk(BlasOp::Axpy)).unwrap();
    assert_eq!(warm.result.best, cold.result.best);
    assert_eq!(warm.result.best_cycles, cold.result.best_cycles);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A transfer probe that only ties the strategy's best loses the tie: a
/// transferred point that differs from the cold winner in the distance of
/// a dropped prefetch compiles to the same program and runs in the same
/// cycles, and the tune still returns the point its strategy found.
#[test]
fn a_transfer_probe_that_ties_the_strategy_loses_the_tie() {
    let dir = std::env::temp_dir().join(format!("ifko-xfer-tie-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cold = cfg(1024).tune(dk(BlasOp::Copy)).unwrap();
    let mut tied = cold.result.best.clone();
    let dropped = tied
        .prefetch
        .iter_mut()
        .find(|s| s.kind.is_none())
        .expect("dcopy's winner drops a prefetch");
    dropped.dist += 64;
    assert_ne!(tied, cold.result.best);

    // Store ddot's record, then make its point the tied one: the nearest
    // (and only) neighbor dcopy's tune transfers from.
    cfg(1024)
        .tuned_db(dir.join("db"))
        .unwrap()
        .tune(dk(BlasOp::Dot))
        .unwrap();
    let db = TunedDb::open(dir.join("db")).unwrap();
    let rec = TunedRecord {
        params: tied.clone(),
        ..db.records()[0].clone()
    };
    db.store(&rec);
    drop(db);

    let sink = MemSink::new();
    let warm = cfg(1024)
        .tuned_db(dir.join("db"))
        .unwrap()
        .trace(sink.clone())
        .tune(dk(BlasOp::Copy))
        .unwrap();
    let xfer: Vec<_> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            SearchEvent::Eval(ev) if ev.phase == "XFER" => ev.cycles,
            _ => None,
        })
        .collect();
    assert_eq!(xfer, vec![cold.result.best_cycles], "the probe ties");
    assert_eq!(warm.result.best, cold.result.best);
    assert_eq!(warm.result.best_cycles, cold.result.best_cycles);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `ifko_pipeline_predictions_total` after one tune under `cfg`: of the
/// BLAS `ddot`, or of a `.hil` source.
fn predictions(cfg: TuneConfig, hil: Option<&str>) -> u64 {
    let reg = Arc::new(MetricsRegistry::new());
    let cfg = cfg.metrics(reg.clone());
    match hil {
        None => drop(cfg.tune(dk(BlasOp::Dot)).unwrap()),
        Some(src) => drop(cfg.tune_source(src).unwrap()),
    }
    reg.counter_value(metrics::PIPE_PREDICTIONS)
        .expect("the tune driver exports the prediction counter")
}

/// Nothing reads the price of an untraced tune, so the cost model never
/// runs. A sink (the trace's `predicted` field) is a reader, and then
/// it does.
#[test]
fn the_cost_model_runs_only_when_its_price_is_read() {
    for mach in [p4e(), opteron()] {
        for hil in [None, Some(WAXPBY_HIL)] {
            let base = || cfg(1024).machine(mach.clone());
            let tag = format!("{} on {}", hil.map_or("ddot", |_| "waxpby.hil"), mach.name);
            assert_eq!(predictions(base(), hil), 0, "{tag}");
            assert!(predictions(base().trace(MemSink::new()), hil) > 0, "{tag}");
        }
    }
}

/// The tuned db reads the static features at FKO defaults: a cold tune
/// stores them, full length. A warm re-tune neither looks for a transfer
/// seed nor stores, so it prices nothing.
#[test]
fn tuned_db_prices_defaults_only_for_its_readers() {
    let dir = std::env::temp_dir().join(format!("ifko-lazy-sfv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let db_cfg = || cfg(1024).tuned_db(dir.join("db")).unwrap();
    assert!(predictions(db_cfg(), None) > 0, "cold --db tune");
    let db = TunedDb::open(dir.join("db")).unwrap();
    let features = db.records()[0].features.clone();
    assert_eq!(
        features.map(|f| f.len()),
        Some(StaticFeatureVector::NAMES.len())
    );
    assert_eq!(predictions(db_cfg(), None), 0, "warm --db re-tune");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reading the price never changes the search: with and without a sink,
/// the whole `SearchResult` is equal — best point, cycles, every tally
/// counter.
#[test]
fn attaching_a_sink_never_changes_the_search() {
    let run = |c: TuneConfig| format!("{:?}", c.tune(dk(BlasOp::Dot)).unwrap().result);
    for mach in [p4e(), opteron()] {
        let base = || cfg(1024).machine(mach.clone());
        assert_eq!(
            run(base()),
            run(base().trace(MemSink::new())),
            "{}",
            mach.name
        );
    }
    let pooled = || {
        cfg(1024)
            .workers(2)
            .worker_launcher(WorkerLauncher::new(env!("CARGO_BIN_EXE_ifko-worker")))
    };
    assert_eq!(
        run(pooled()),
        run(pooled().trace(MemSink::new())),
        "workers(2)"
    );
}
