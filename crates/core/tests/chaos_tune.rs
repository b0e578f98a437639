//! Chaos-hardened tuning, end to end: a full tune under seeded fault
//! injection must converge to the **bit-identical winner** of a
//! fault-free run — transient compile failures are retried, tester
//! flakes are re-verified, timing spikes are detected and re-timed —
//! and the trace must account for every fault and retry. The same
//! chaos seed must also reproduce the same faults, retries, and winner
//! on every run and at every `jobs` count.

use ifko::prelude::*;

const CHAOS_SEED: u64 = 7;
const CHAOS_RATE: f64 = 0.25;

/// A user HIL source, tuned under the differential oracle.
const WAXPBY_HIL: &str = include_str!("../../../kernels/waxpby.hil");

fn clean_cfg(machine: MachineConfig) -> TuneConfig {
    TuneConfig::quick(1024).machine(machine)
}

fn chaos_cfg(machine: MachineConfig) -> TuneConfig {
    clean_cfg(machine)
        .faults(FaultPlan::uniform(CHAOS_SEED, CHAOS_RATE))
        .max_retries(8)
}

fn assert_same_outcome(clean: &TuneOutcome, chaos: &TuneOutcome, what: &str) {
    assert_eq!(
        clean.result.best, chaos.result.best,
        "{what}: chaos changed the winning parameters"
    );
    assert_eq!(
        clean.result.best_cycles, chaos.result.best_cycles,
        "{what}: chaos changed the winning cycle count"
    );
    assert_eq!(
        clean.result.default_cycles, chaos.result.default_cycles,
        "{what}: chaos changed the FKO-defaults baseline"
    );
    assert_eq!(
        clean.result.gains, chaos.result.gains,
        "{what}: chaos changed the per-phase gains"
    );
    assert_eq!(
        clean.cycles, chaos.cycles,
        "{what}: chaos leaked into the final (clean re-verify) timing"
    );
    assert_eq!(clean.table3_row, chaos.table3_row, "{what}");
}

/// Faults on both machine models: the winner is bit-identical to the
/// clean run, the chaos run actually exercised the retry machinery, and
/// the clean run reports zero fault-handling activity.
#[test]
fn chaotic_tune_matches_clean_winner_on_both_machines() {
    for (mach, kernel) in [
        (
            p4e(),
            Kernel {
                op: BlasOp::Dot,
                prec: Prec::D,
            },
        ),
        (
            opteron(),
            Kernel {
                op: BlasOp::Axpy,
                prec: Prec::D,
            },
        ),
    ] {
        let name = format!("{} on {}", kernel.name(), mach.name);
        let clean = clean_cfg(mach.clone()).tune(kernel).unwrap();
        let chaos = chaos_cfg(mach.clone()).tune(kernel).unwrap();
        assert_same_outcome(&clean, &chaos, &name);

        // Chaos off: the result carries no fault-handling traces at all.
        let r = &clean.result;
        assert_eq!(
            (r.retries, r.faults, r.outliers, r.failed),
            (0, 0, 0, 0),
            "{name}: clean run reported fault handling"
        );
        // Chaos on: at a 25% rate the search must have hit real faults
        // and recovered from every one of them.
        let r = &chaos.result;
        assert!(r.faults > 0, "{name}: no faults injected at rate 0.25");
        assert!(r.retries > 0, "{name}: faults injected but nothing retried");
        assert_eq!(r.failed, 0, "{name}: a candidate burned its retry budget");
    }
    // The same contract for a `.hil` source under the differential
    // oracle, which goes through the same staged evaluator.
    for mach in [p4e(), opteron()] {
        let name = format!("waxpby.hil on {}", mach.name);
        let clean = clean_cfg(mach.clone()).tune_source(WAXPBY_HIL).unwrap();
        let chaos = chaos_cfg(mach.clone()).tune_source(WAXPBY_HIL).unwrap();
        let (c, x) = (&clean.result, &chaos.result);
        assert_eq!(c.best, x.best, "{name}: chaos changed the winner");
        assert_eq!(c.best_cycles, x.best_cycles, "{name}");
        assert_eq!(c.default_cycles, x.default_cycles, "{name}");
        assert_eq!(c.gains, x.gains, "{name}");
        assert_eq!(clean.features.values, chaos.features.values, "{name}");
        assert_eq!((c.retries, c.faults, c.outliers, c.failed), (0, 0, 0, 0));
        assert!(x.faults > 0, "{name}: no faults injected at rate 0.25");
        assert!(x.retries > 0, "{name}: faults injected but nothing retried");
        assert_eq!(x.failed, 0, "{name}: a candidate burned its retry budget");
    }
}

/// The trace stream accounts for the chaos: per-event retry/fault/
/// outlier counts sum to the search totals, and a traced clean run
/// carries all-zero fault fields (so chaos-off traces stay
/// byte-identical to pre-chaos ones).
#[test]
fn trace_accounts_for_faults_and_retries() {
    let kernel = Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    };
    // One suite kernel, one `.hil` source: both are traced by the same
    // tune driver.
    for hil in [None, Some(WAXPBY_HIL)] {
        let tune = |cfg: TuneConfig| match hil {
            None => cfg.tune(kernel).unwrap().result,
            Some(src) => cfg.tune_source(src).unwrap().result,
        };
        let sink = MemSink::new();
        let chaos = tune(chaos_cfg(p4e()).trace(sink.clone()));
        let evs = sink.evals();
        let (mut retries, mut faults, mut outliers, mut failed) = (0u32, 0u32, 0u32, 0u32);
        for e in &evs {
            retries += e.retries;
            faults += e.faults;
            outliers += e.outliers;
            failed += e.failed as u32;
        }
        assert_eq!(retries, chaos.retries, "trace retries != result");
        assert_eq!(faults, chaos.faults, "trace faults != result");
        assert_eq!(outliers, chaos.outliers, "trace outliers != result");
        assert_eq!(failed, chaos.failed, "trace failures != result");
        assert!(faults > 0, "chaos trace recorded no faults");

        // The run is wrapped in one root `tune` span whose children
        // account for the front end, the winner's recompile and its
        // final run.
        let spans = sink.spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.stage == "tune").collect();
        assert_eq!(roots.len(), 1, "exactly one root tune span");
        assert_eq!(roots[0].parent, None);
        for stage in ["parse", "recompile", "final-time"] {
            let n = spans
                .iter()
                .filter(|s| s.stage == stage && s.parent == Some(roots[0].id))
                .count();
            assert_eq!(n, 1, "one `{stage}` span under the tune span");
        }

        let clean_sink = MemSink::new();
        tune(clean_cfg(p4e()).trace(clean_sink.clone()));
        for e in clean_sink.evals() {
            assert_eq!(
                (e.retries, e.faults, e.outliers, e.failed),
                (0, 0, 0, false),
                "clean trace event carries chaos fields: {}",
                e.to_json()
            );
            // The serialized form omits the zero fields entirely, keeping
            // chaos-off trace files byte-identical to pre-chaos ones.
            let line = e.to_json();
            assert!(!line.contains("\"retries\""), "{line}");
            assert!(!line.contains("\"faults\""), "{line}");
        }
    }
}

/// Same seed, same faults: re-running the chaotic search reproduces the
/// exact fault/retry/outlier counts, and the counts are invariant under
/// batch parallelism (fault decisions hash the candidate, not the
/// schedule).
#[test]
fn chaos_is_deterministic_and_jobs_invariant() {
    let kernel = Kernel {
        op: BlasOp::Scal,
        prec: Prec::D,
    };
    let runs: Vec<TuneOutcome> = [1usize, 1, 4]
        .iter()
        .map(|&jobs| chaos_cfg(p4e()).jobs(jobs).tune(kernel).unwrap())
        .collect();
    let (a, b, wide) = (&runs[0], &runs[1], &runs[2]);
    for (other, what) in [(b, "re-run"), (wide, "jobs=4")] {
        assert_eq!(a.result.best, other.result.best, "{what}");
        assert_eq!(a.result.best_cycles, other.result.best_cycles, "{what}");
        assert_eq!(a.cycles, other.cycles, "{what}");
        assert_eq!(
            (
                a.result.retries,
                a.result.faults,
                a.result.outliers,
                a.result.failed
            ),
            (
                other.result.retries,
                other.result.faults,
                other.result.outliers,
                other.result.failed
            ),
            "{what}: fault accounting is not reproducible"
        );
    }
    // A different chaos seed draws a different fault pattern (the plan
    // is seeded, not a fixed schedule).
    let other_seed = clean_cfg(p4e())
        .faults(FaultPlan::uniform(CHAOS_SEED + 1, CHAOS_RATE))
        .max_retries(8)
        .tune(kernel)
        .unwrap();
    assert_eq!(a.result.best, other_seed.result.best);
    assert_ne!(
        (a.result.retries, a.result.faults),
        (other_seed.result.retries, other_seed.result.faults),
        "two chaos seeds drew identical fault patterns (suspicious)"
    );
}

/// No fault plan, however hostile, may panic the search or corrupt the
/// outcome: even at the maximum injection rate with a zero retry budget
/// the tune either returns a coherent result or a clean error.
#[test]
fn max_rate_chaos_never_panics() {
    let kernel = Kernel {
        op: BlasOp::Asum,
        prec: Prec::D,
    };
    for max_retries in [0, 1] {
        let cfg = clean_cfg(p4e())
            .faults(FaultPlan::uniform(0xdead_beef, ifko::fault::MAX_RATE))
            .max_retries(max_retries);
        match cfg.tune(kernel) {
            Ok(out) => {
                assert!(out.result.best_cycles > 0);
                assert!(out.result.faults > 0);
            }
            Err(e) => {
                // Permanently failing seed evaluation is a legal outcome
                // at a 95% fault rate — but it must surface as an error,
                // not a panic or a bogus winner.
                assert!(!e.to_string().is_empty());
            }
        }
    }
}
