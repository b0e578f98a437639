//! The search-strategy subsystem, end to end:
//!
//! 1. **Line-search fidelity** — running the modified line search as
//!    `--strategy line` through the search context and the evaluation
//!    engine is bit-identical to a hand-rolled serial reference
//!    evaluator, on both machine models.
//! 2. **Seeded determinism** — every global strategy (and the portfolio)
//!    replays the identical probe sequence and outcome from the same seed.
//! 3. **Budgets** — a probe budget caps the search, and the seed's cycles
//!    survive a budget the transfer probes spend.
//! 4. **Warm starts** — a tuned-results database answers a repeat run
//!    with far fewer probes, after re-verifying the stored winner; a
//!    tune replaces a record only when its probe refuted it, and the
//!    seed keeps its credit when FKO's defaults win.
//! 5. **Attribution** — portfolio traces carry per-member strategy tags
//!    and the winner is credited to a member, never to "portfolio".

use ifko::eval::MemSink;
use ifko::prelude::*;
use ifko::runner::{run_once, KernelArgs};
use ifko::search::{line_search_batched, SearchOptions, SearchResult};
use ifko::verify;
use ifko_blas::hil_src::hil_source;
use ifko_fko::{CompileOpts, CompileSession};
use ifko_xsim::MachineConfig;

fn dk(op: BlasOp) -> Kernel {
    Kernel { op, prec: Prec::D }
}

/// The modified line search over a from-scratch serial evaluator:
/// compile → simulate → verify → time, no engine, no cache, no context.
fn serial_reference(k: Kernel, mach: &MachineConfig, n: usize) -> SearchResult {
    let src = hil_source(k.op, k.prec);
    let sess = CompileSession::from_source(&src, mach).unwrap();
    let opts = SearchOptions::quick();
    let w = Workload::generate(n, 0xb1a5);
    line_search_batched(sess.report(), mach, &opts, |_, c| {
        c.iter()
            .map(|p| {
                let c = sess.compile(p, CompileOpts::default()).ok()?;
                let args = KernelArgs {
                    kernel: k,
                    workload: &w,
                    context: Context::OutOfCache,
                };
                let out = run_once(&c, &args, mach).ok()?;
                verify(k, &w, &out).ok()?;
                opts.timer.time(&c, &args, mach).ok()
            })
            .collect()
    })
}

/// `--strategy line` through the context + engine is bit-identical to the
/// serial reference, on both machine models (the acceptance criterion).
#[test]
fn line_driver_is_bit_identical_to_serial_reference() {
    for mach in [p4e(), opteron()] {
        for op in [BlasOp::Swap, BlasOp::Dot] {
            let k = dk(op);
            let reference = serial_reference(k, &mach, 1024);
            let out = TuneConfig::quick(1024)
                .machine(mach.clone())
                .strategy(StrategySpec::Line)
                .tune(k)
                .unwrap();
            let got = &out.result;
            let tag = format!("{} on {}", k.name(), mach.name);
            assert_eq!(got.best, reference.best, "{tag}: best params differ");
            assert_eq!(got.best_cycles, reference.best_cycles, "{tag}");
            assert_eq!(got.default_cycles, reference.default_cycles, "{tag}");
            assert_eq!(got.gains, reference.gains, "{tag}: phase gains differ");
            assert_eq!(got.strategy, "line", "{tag}");
            assert_eq!(got.winner_strategy, "line", "{tag}");
        }
    }
}

/// Every strategy (including the portfolio) is deterministic under a
/// fixed seed: two cold runs replay the identical probe stream — same
/// phases, same parameter points, same strategy tags, same cycle counts.
#[test]
fn seeded_strategies_are_deterministic() {
    let k = dk(BlasOp::Dot);
    for spec in StrategySpec::all() {
        let run = || {
            let sink = MemSink::new();
            let out = TuneConfig::quick(1024)
                .strategy(spec)
                .seed(42)
                .trace(sink.clone())
                .tune(k)
                .unwrap();
            let probes: Vec<_> = sink
                .evals()
                .iter()
                .map(|e| {
                    (
                        e.phase.clone(),
                        e.params.clone(),
                        e.strategy.clone(),
                        e.cycles,
                        e.cache_hit,
                    )
                })
                .collect();
            (out, probes)
        };
        let (a, pa) = run();
        let (b, pb) = run();
        let name = spec.name();
        assert_eq!(a.result.best, b.result.best, "{name}: best params differ");
        assert_eq!(a.result.best_cycles, b.result.best_cycles, "{name}");
        assert_eq!(a.result.evaluations, b.result.evaluations, "{name}");
        assert_eq!(
            a.result.winner_strategy, b.result.winner_strategy,
            "{name}: attribution differs"
        );
        assert_eq!(pa, pb, "{name}: probe streams diverged between runs");
    }
}

/// Every strategy converges end to end on both machines: the returned
/// winner is never worse than FKO's static defaults, and the result is
/// labeled with the strategy that produced it.
#[test]
fn every_strategy_converges_on_both_machines() {
    for mach in [p4e(), opteron()] {
        for spec in StrategySpec::all() {
            let out = TuneConfig::quick(1024)
                .machine(mach.clone())
                .strategy(spec)
                .tune(dk(BlasOp::Swap))
                .unwrap();
            let tag = format!("{} on {}", spec.name(), mach.name);
            assert!(
                out.result.best_cycles <= out.result.default_cycles,
                "{tag}: lost to the defaults"
            );
            assert_eq!(out.result.strategy, spec.name(), "{tag}");
            assert!(out.result.evaluations > 0, "{tag}: no fresh evaluations");
        }
    }
}

/// A probe budget is a hard cap: the search stops once the budget is
/// spent (the seed baseline is always admitted).
#[test]
fn probe_budget_caps_the_search() {
    let budget = 12u64;
    let sink = MemSink::new();
    let out = TuneConfig::quick(1024)
        .strategy(StrategySpec::Random)
        .budget(Budget::probes(budget))
        .trace(sink.clone())
        .tune(dk(BlasOp::Dot))
        .unwrap();
    // Count in-search probes (tagged); the driver's final re-timing of
    // the winner is untagged and exempt.
    let tagged = sink
        .evals()
        .iter()
        .filter(|e| !e.strategy.is_empty())
        .count() as u64;
    assert!(
        tagged <= budget,
        "search spent {tagged} probes against a budget of {budget}"
    );
    assert!(out.result.best_cycles <= out.result.default_cycles);
}

/// The seed's cycles outlive a budget the transfer probes spend: a tune
/// that transfers from another kernel's record under a 2-probe budget
/// (its `SEED` and `XFER` probes, leaving the strategy nothing) reports
/// the traced `SEED` probe's cycles as `default_cycles` — the cycles the
/// unbudgeted tune reports too.
#[test]
fn a_budget_spent_by_the_transfer_probes_keeps_the_seed() {
    let dir = std::env::temp_dir().join(format!("ifko-xfer-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TuneConfig::quick(1024)
        .tuned_db(&dir)
        .unwrap()
        .tune(dk(BlasOp::Dot))
        .unwrap();

    let sink = MemSink::new();
    let budgeted = TuneConfig::quick(1024)
        .tuned_db(&dir)
        .unwrap()
        .budget(Budget::probes(2))
        .trace(sink.clone())
        .tune(dk(BlasOp::Axpy))
        .unwrap();
    let evals = sink.evals();
    assert!(evals.iter().any(|e| e.phase == "XFER"), "no transfer probe");
    let seeds: Vec<u64> = evals
        .iter()
        .filter(|e| e.phase == "SEED")
        .filter_map(|e| e.cycles)
        .collect();
    assert_eq!(seeds.len(), 1, "one verified SEED probe expected");
    assert_ne!(budgeted.result.default_cycles, u64::MAX);
    assert_eq!(budgeted.result.default_cycles, seeds[0]);

    let unbudgeted = TuneConfig::quick(1024).tune(dk(BlasOp::Axpy)).unwrap();
    assert_eq!(
        budgeted.result.default_cycles,
        unbudgeted.result.default_cycles
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm start: the tuned-results database answers a repeat run. The
/// second run (fresh in-memory cache, same db directory) re-verifies the
/// stored winner instead of re-searching — same answer, far fewer probes.
#[test]
fn warm_start_skips_the_search_but_still_verifies() {
    let dir = std::env::temp_dir().join(format!("ifko-warmdb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let k = dk(BlasOp::Dot);

    let cold = TuneConfig::quick(1024)
        .tuned_db(&dir)
        .unwrap()
        .tune(k)
        .unwrap();
    assert!(cold.result.evaluations > 1, "cold run did not search");
    assert_ne!(cold.result.strategy, "warm");
    let db = TunedDb::open(&dir).unwrap();
    assert_eq!(db.len(), 1, "cold run did not persist its winner");

    // A brand-new config: nothing shared but the database directory.
    let sink = MemSink::new();
    let warm = TuneConfig::quick(1024)
        .tuned_db(&dir)
        .unwrap()
        .trace(sink.clone())
        .tune(k)
        .unwrap();
    assert_eq!(warm.result.strategy, "warm", "db hit did not short-circuit");
    let cold_probes = cold.result.evaluations + cold.result.cache_hits + cold.result.pruned;
    let warm_probes = warm.result.evaluations + warm.result.cache_hits + warm.result.pruned;
    assert!(
        warm_probes < cold_probes,
        "warm start was not cheaper: {warm_probes} vs {cold_probes} probes"
    );
    assert_eq!(
        warm.result.best, cold.result.best,
        "warm start changed the answer"
    );
    assert_eq!(warm.result.best_cycles, cold.result.best_cycles);
    // The stored point was still verified through the engine, not trusted.
    assert!(
        sink.evals().iter().any(|e| e.phase == "WARM" && e.verified),
        "stored winner was not re-verified"
    );
    // The warm run must not overwrite the original finder's record.
    let db = TunedDb::open(&dir).unwrap();
    assert_eq!(db.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A re-tune whose budget ends before the stored winner's probe learns
/// nothing about that point, so it keeps the record: under
/// `Budget::probes(1)` only the seed runs, the journal stays
/// byte-identical, and the next tune still warm-starts to the first
/// winner rather than to FKO's defaults.
#[test]
fn a_budget_that_cuts_the_warm_probe_keeps_the_stored_winner() {
    let dir = std::env::temp_dir().join(format!("ifko-warm-cut-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let k = dk(BlasOp::Dot);
    let tune = |budget| {
        TuneConfig::quick(1024)
            .tuned_db(&dir)
            .unwrap()
            .budget(budget)
            .tune(k)
            .unwrap()
    };
    let cold = tune(Budget::unlimited());
    assert!(cold.result.best_cycles < cold.result.default_cycles);
    let journal = || std::fs::read(dir.join("tuned.jsonl")).unwrap();
    let stored = journal();

    let cut = tune(Budget::probes(1));
    assert_eq!(cut.result.best_cycles, cut.result.default_cycles);
    assert_eq!(journal(), stored, "a cut probe replaced the stored winner");

    let warm = tune(Budget::unlimited());
    assert_eq!(warm.result.strategy, "warm");
    assert_eq!(warm.result.best, cold.result.best);
    assert_eq!(warm.result.best_cycles, cold.result.best_cycles);
    let _ = std::fs::remove_dir_all(&dir);
}

/// When FKO's defaults win a budgeted warm or transfer tune, the credit
/// is the seed's — the running strategy's — in the result and in the
/// record stored for the key: `warm` and `xfer` name a result only when
/// the stored point itself won.
#[test]
fn defaults_that_win_a_budgeted_warm_or_transfer_tune_keep_the_seeds_credit() {
    let dir = std::env::temp_dir().join(format!("ifko-seed-credit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tune = |op, budget| {
        TuneConfig::quick(1024)
            .tuned_db(&dir)
            .unwrap()
            .budget(budget)
            .tune(dk(op))
            .unwrap()
    };
    tune(BlasOp::Dot, Budget::unlimited());
    // Warm: ddot's own record; transfer: daxpy's nearest, ddot's.
    for op in [BlasOp::Dot, BlasOp::Axpy] {
        let out = tune(op, Budget::probes(1));
        assert_eq!(out.result.best_cycles, out.result.default_cycles, "{op:?}");
        assert_eq!(out.result.winner_strategy, "line", "{op:?}");
    }
    let db = TunedDb::open(&dir).unwrap();
    let finders: Vec<String> = db.records().into_iter().map(|r| r.strategy).collect();
    assert_eq!(finders, ["line", "line"], "ddot's and daxpy's records");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm starts do not bleed across machines: a winner stored for the P4E
/// is a miss on the Opteron, which searches afresh (and stores its own).
#[test]
fn warm_start_is_scoped_to_the_machine() {
    let dir = std::env::temp_dir().join(format!("ifko-warmdb-scope-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let k = dk(BlasOp::Swap);

    let _ = TuneConfig::quick(1024)
        .tuned_db(&dir)
        .unwrap()
        .tune(k)
        .unwrap();
    let other = TuneConfig::quick(1024)
        .machine(opteron())
        .tuned_db(&dir)
        .unwrap()
        .tune(k)
        .unwrap();
    assert_ne!(other.result.strategy, "warm", "p4e record answered opteron");
    assert_eq!(TunedDb::open(&dir).unwrap().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The portfolio races its members over one shared cache, tags every
/// probe with the member that proposed it, and credits the win to a
/// member — "portfolio" itself never appears as a winner.
#[test]
fn portfolio_attributes_probes_and_winner_to_members() {
    let sink = MemSink::new();
    let out = TuneConfig::quick(1024)
        .strategy(StrategySpec::Portfolio)
        .budget(Budget::probes(64))
        .trace(sink.clone())
        .tune(dk(BlasOp::Dot))
        .unwrap();
    let members = ["line", "random", "hillclimb", "anneal"];
    assert_eq!(out.result.strategy, "portfolio");
    assert!(
        members.contains(&out.result.winner_strategy.as_str()),
        "winner credited to {:?}, not a member",
        out.result.winner_strategy
    );
    let tags: std::collections::BTreeSet<String> = sink
        .evals()
        .iter()
        .filter(|e| !e.strategy.is_empty())
        .map(|e| e.strategy.clone())
        .collect();
    assert!(
        tags.len() >= 2,
        "portfolio ran fewer than two members: {tags:?}"
    );
    for t in &tags {
        assert!(members.contains(&t.as_str()), "unknown member tag {t}");
    }
    assert!(out.result.best_cycles <= out.result.default_cycles);
}
