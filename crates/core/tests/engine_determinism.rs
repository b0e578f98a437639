//! The evaluation engine's headline contracts, end to end:
//!
//! 1. **Jobs invariance** — a search run with `jobs = N` returns a
//!    bit-identical `SearchResult` (best params, cycles, per-phase gains,
//!    evaluation counts) to the same search with `jobs = 1`.
//! 2. **Cross-run caching** — a second identical run through a shared
//!    cache performs zero fresh evaluations: every probe is a cache hit.
//! 3. **Tracing** — every evaluation (including hits) emits one event.
//! 4. **Counter determinism** — every probe's full hardware-counter
//!    vector (all `RunStats::FIELDS`) is bit-identical across worker
//!    counts and across reruns, so `ifko explain`'s attribution is
//!    reproducible.

use ifko::prelude::*;
use ifko_xsim::RunStats;
use std::sync::Arc;

fn quick_cfg(n: usize) -> TuneConfig {
    TuneConfig::quick(n)
}

/// Every kernel in the suite: parallel search must equal serial search.
#[test]
fn jobs_invariance_for_every_kernel() {
    for kernel in ALL_KERNELS {
        let serial = quick_cfg(1024).jobs(1).tune(kernel).unwrap();
        let wide = quick_cfg(1024).jobs(4).tune(kernel).unwrap();
        let (a, b) = (&serial.result, &wide.result);
        assert_eq!(a.best, b.best, "{}: best params differ", kernel.name());
        assert_eq!(
            a.best_cycles,
            b.best_cycles,
            "{}: cycles differ",
            kernel.name()
        );
        assert_eq!(a.default_cycles, b.default_cycles, "{}", kernel.name());
        assert_eq!(a.gains, b.gains, "{}: phase gains differ", kernel.name());
        assert_eq!(
            a.evaluations,
            b.evaluations,
            "{}: eval counts differ",
            kernel.name()
        );
        assert_eq!(a.rejected, b.rejected, "{}", kernel.name());
        assert_eq!(a.cache_hits, b.cache_hits, "{}", kernel.name());
        assert_eq!(
            serial.cycles,
            wide.cycles,
            "{}: final timing differs",
            kernel.name()
        );
        assert_eq!(serial.table3_row, wide.table3_row, "{}", kernel.name());
    }
}

#[test]
fn jobs_invariance_in_l2_context_and_other_machine() {
    let k = Kernel {
        op: BlasOp::Axpy,
        prec: Prec::D,
    };
    let mk = |jobs| {
        quick_cfg(1024)
            .machine(opteron())
            .context(Context::InL2)
            .jobs(jobs)
            .tune(k)
            .unwrap()
    };
    let serial = mk(1);
    let wide = mk(8);
    assert_eq!(serial.result.best, wide.result.best);
    assert_eq!(serial.result.gains, wide.result.gains);
    assert_eq!(serial.cycles, wide.cycles);
}

/// A second run against a shared cache must be pure cache hits — the
/// warm-rerun acceptance criterion.
#[test]
fn warm_cache_rerun_is_all_hits() {
    let cache = Arc::new(EvalCache::new());
    let k = Kernel {
        op: BlasOp::Iamax,
        prec: Prec::D,
    };

    let cold = quick_cfg(2048).cache(cache.clone()).tune(k).unwrap();
    assert!(cold.result.evaluations > 0);
    let points_after_cold = cache.len();

    let sink = MemSink::new();
    let warm = quick_cfg(2048)
        .cache(cache.clone())
        .trace(sink.clone())
        .tune(k)
        .unwrap();
    assert_eq!(warm.result.evaluations, 0, "warm run re-evaluated");
    assert_eq!(warm.result.rejected, 0);
    assert!(warm.result.cache_hits > 0);
    assert_eq!(cache.len(), points_after_cold, "warm run grew the cache");

    // Identical outcome, and the trace confirms 100% hits.
    assert_eq!(warm.result.best, cold.result.best);
    assert_eq!(warm.result.best_cycles, cold.result.best_cycles);
    let evals = sink.evals();
    assert!(
        evals.iter().all(|e| e.cache_hit || e.pruned.is_some()),
        "trace shows fresh evaluations on a warm cache"
    );
    assert_eq!(
        evals.len() as u32,
        warm.result.cache_hits + warm.result.pruned
    );
}

/// The cache distinguishes contexts, sizes, and machines: warm in one
/// scope is cold in another.
#[test]
fn cache_scopes_do_not_bleed() {
    let cache = Arc::new(EvalCache::new());
    let k = Kernel {
        op: BlasOp::Scal,
        prec: Prec::D,
    };
    let a = quick_cfg(1024).cache(cache.clone()).tune(k).unwrap();
    assert!(a.result.evaluations > 0);
    // Different context — must evaluate afresh.
    let b = quick_cfg(1024)
        .cache(cache.clone())
        .context(Context::InL2)
        .tune(k)
        .unwrap();
    assert!(b.result.evaluations > 0, "InL2 reused OutOfCache entries");
    // Different size — must evaluate afresh.
    let c = quick_cfg(512).cache(cache.clone()).tune(k).unwrap();
    assert!(c.result.evaluations > 0, "n=512 reused n=1024 entries");
}

/// Every evaluation emits exactly one trace event, and the stream starts
/// with the FKO-defaults seed point.
#[test]
fn trace_covers_the_whole_search() {
    let sink = MemSink::new();
    let k = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    let out = quick_cfg(1024).trace(sink.clone()).jobs(2).tune(k).unwrap();
    let evs = sink.evals();
    let total = (out.result.evaluations + out.result.cache_hits + out.result.pruned) as usize;
    assert_eq!(evs.len(), total, "one eval event per probe");
    assert_eq!(evs[0].phase, "SEED");
    assert!(evs.iter().all(|e| e.scope.contains("dot")));
    // Phase labels are the Figure 7 set (plus SEED).
    for ev in &evs {
        assert!(
            ["SEED", "WNT", "PF DST", "PF INS", "UR", "AE"].contains(&ev.phase.as_str()),
            "unexpected phase {}",
            ev.phase
        );
    }
    // Events serialize to parseable JSONL.
    for ev in &evs {
        let line = ev.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"cache_hit\":"));
    }
    // The pipeline also emits spans: the search container plus per-probe
    // stage timings, all tagged with the same scope.
    let spans = sink.spans();
    assert!(
        spans.iter().any(|s| s.stage == "search"),
        "search span missing"
    );
    assert!(spans.iter().any(|s| s.stage == "simulate"));
    assert!(spans.iter().all(|s| s.scope.contains("dot")));
}

/// Every probe's full counter vector — not just the best cycles — is
/// bit-identical across `--jobs 1` / `--jobs 4` and across reruns.
/// `ifko explain` diffs these counters probe against probe, so a single
/// nondeterministic counter would corrupt the attribution table.
#[test]
fn counter_vectors_are_bit_identical_across_jobs_and_reruns() {
    let k = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    // One (phase, params, cycles, full counter vector) row per probe,
    // in trace order. wall_us is explicitly excluded: wall time is the
    // one field allowed to vary between runs.
    type ProbeRow = (String, String, Option<u64>, Option<Vec<u64>>);
    let probe_rows = |jobs: usize| {
        let sink = MemSink::new();
        let out = quick_cfg(1024)
            .trace(sink.clone())
            .jobs(jobs)
            .tune(k)
            .unwrap();
        let rows: Vec<ProbeRow> = sink
            .evals()
            .iter()
            .map(|e| {
                let counters = e
                    .stats
                    .as_ref()
                    .map(|s| RunStats::FIELDS.iter().map(|(_, get, _)| get(s)).collect());
                (e.phase.clone(), e.params.clone(), e.cycles, counters)
            })
            .collect();
        (rows, out.features)
    };
    let (serial, serial_features) = probe_rows(1);
    let (wide, wide_features) = probe_rows(4);
    let (rerun, rerun_features) = probe_rows(1);
    assert!(
        serial.iter().any(|(_, _, _, c)| c.is_some()),
        "no probe carried stats"
    );
    assert_eq!(
        serial, wide,
        "counter vectors differ between jobs=1 and jobs=4"
    );
    assert_eq!(serial, rerun, "counter vectors differ between reruns");
    // The derived feature vector (explain's transfer hook) inherits the
    // same determinism bit for bit.
    assert_eq!(serial_features.values, wide_features.values);
    assert_eq!(serial_features.values, rerun_features.values);
}

/// The static cost model inherits the same contract: every probe's
/// prediction in the trace is bit-identical across worker counts and
/// across reruns, and the analysis-side feature vector from a *reused*
/// compile session (prediction cache warm) matches a fresh session bit
/// for bit.
#[test]
fn static_predictions_and_features_are_deterministic() {
    let k = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    type Row = (String, String, Option<u64>);
    let rows = |jobs: usize| -> Vec<Row> {
        let sink = MemSink::new();
        quick_cfg(1024)
            .trace(sink.clone())
            .jobs(jobs)
            .tune(k)
            .unwrap();
        sink.evals()
            .iter()
            .map(|e| (e.phase.clone(), e.params.clone(), e.predicted))
            .collect()
    };
    let serial = rows(1);
    assert!(
        serial.iter().any(|(_, _, p)| p.is_some()),
        "no probe carried a prediction"
    );
    assert_eq!(serial, rows(4), "predictions differ between jobs=1 and 4");
    assert_eq!(serial, rows(1), "predictions differ between reruns");

    // Session reuse: the second predict() of the same point answers from
    // the session's prediction cache and must reproduce the fresh
    // analysis exactly — features included. An independent session must
    // agree too.
    let m = p4e();
    let src = ifko_blas::hil_src::hil_source(k.op, k.prec);
    let sess = ifko_fko::CompileSession::from_source(&src, &m).unwrap();
    let params = ifko_fko::TransformParams::defaults(sess.report(), &m);
    let cold = sess.predict(&params, &m).unwrap();
    let warm = sess.predict(&params, &m).unwrap();
    assert_eq!(cold.features().values, warm.features().values);
    let other = ifko_fko::CompileSession::from_source(&src, &m).unwrap();
    let fresh = other.predict(&params, &m).unwrap();
    assert_eq!(cold.features().values, fresh.features().values);
    assert_eq!(
        cold.predicted_cycles(1024, ifko_fko::costmodel::Locality::Mem),
        fresh.predicted_cycles(1024, ifko_fko::costmodel::Locality::Mem)
    );
}

/// The generic (user HIL) tuning path is jobs-invariant too.
#[test]
fn generic_tuning_is_jobs_invariant() {
    const SRC: &str = r#"
ROUTINE sdot2(X, Y, N);
PARAMS :: X = DOUBLE_PTR, Y = DOUBLE_PTR, N = INT;
SCALARS :: s = DOUBLE, x = DOUBLE, y = DOUBLE;
ROUT_BEGIN
  s = 0.0;
  !! TUNE LOOP
  LOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    x *= y;
    s += x;
    X += 1;
    Y += 1;
  LOOP_END
  RETURN s;
ROUT_END
"#;
    let a = quick_cfg(2000).jobs(1).tune_source(SRC).unwrap();
    let b = quick_cfg(2000).jobs(4).tune_source(SRC).unwrap();
    assert_eq!(a.result.best, b.result.best);
    assert_eq!(a.result.best_cycles, b.result.best_cycles);
    assert_eq!(a.result.evaluations, b.result.evaluations);
}

/// Persistent cache: a fresh config warm-starts from what a previous
/// "process" left on disk.
#[test]
fn persistent_cache_shares_across_configs() {
    let dir = std::env::temp_dir().join(format!("ifko-persist-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let k = Kernel {
        op: BlasOp::Copy,
        prec: Prec::D,
    };

    let cold = quick_cfg(1024)
        .persistent_cache(&dir)
        .unwrap()
        .tune(k)
        .unwrap();
    assert!(cold.result.evaluations > 0);

    // Simulates a second process: a brand-new config, same directory.
    let warm = quick_cfg(1024)
        .persistent_cache(&dir)
        .unwrap()
        .tune(k)
        .unwrap();
    assert_eq!(warm.result.evaluations, 0, "disk cache not reused");
    assert_eq!(warm.result.best, cold.result.best);
    assert_eq!(warm.result.best_cycles, cold.result.best_cycles);
    let _ = std::fs::remove_dir_all(&dir);
}
