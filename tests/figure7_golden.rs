//! The paper's Figure 7 at quick scale, as a golden file: the per-phase
//! decomposition of what the search gains over FKO's defaults, for every
//! suite kernel on each of the four sweeps, must stay byte-identical, so
//! a change that moves a phase's gain shows as a diff line here.
//!
//! The same run carries two of the paper's claims (the rest are in
//! `tests/reproduction.rs`), asserted over its rows so the quick tunes
//! are paid for once:
//!
//! 4. empirical tuning of prefetch distance is the largest average
//!    contributor out-of-cache (Figure 7's [WNT, PF DST, PF INS, UR, AE]
//!    = [2, 26, 3, 2, 5]%);
//! 5. accumulator expansion matters in-cache for the reductions (paper:
//!    41% of sasum's in-cache tuning gain).

use ifko::prelude::*;
use ifko_bench::{figure7, figure7_sweeps, ExpConfig, Experiment, Sweep};
use std::sync::OnceLock;

/// `figure7 --quick --no-cache`'s tunes (N=20 000 out of cache, 1024 in
/// L2, the paper seed), run once for every test here.
fn sweeps() -> &'static [Sweep] {
    static SWEEPS: OnceLock<Vec<Sweep>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        let cfg = ExpConfig {
            use_cache: false,
            ..ExpConfig::new(true)
        };
        figure7_sweeps(Experiment::with_config("figure7", cfg))
    })
}

/// The tune of `k` in the sweep of `machine` in `ctx`.
fn tune(machine: &str, ctx: Context, k: Kernel) -> &'static TuneOutcome {
    let sweep = sweeps()
        .iter()
        .find(|s| s.machine.name == machine && s.context == ctx)
        .unwrap();
    let row = sweep.rows.iter().find(|r| r.kernel == k).unwrap();
    row.tune.as_ref().unwrap()
}

/// `figure7 --quick --no-cache`'s stdout, rendered through the library,
/// equals the committed golden. Regenerate it with:
/// `cargo run --release --bin figure7 -- --quick --no-cache > tests/fixtures/figure7-quick.txt`
#[test]
fn figure7_quick_matches_the_golden() {
    let got = figure7(sweeps());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/figure7-quick.txt"
    );
    let want = std::fs::read_to_string(path).unwrap();
    assert_eq!(got, want, "Figure 7 drifted from {path}");
}

#[test]
fn claim4_prefetch_distance_dominates_out_of_cache() {
    // Average the Figure 7 phase gains over the reduction/streaming
    // kernels out-of-cache on the P4E: PF DST must contribute the most.
    let mut sums: std::collections::HashMap<Phase, f64> = Default::default();
    let kernels = [
        Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        },
        Kernel {
            op: BlasOp::Asum,
            prec: Prec::D,
        },
        Kernel {
            op: BlasOp::Scal,
            prec: Prec::S,
        },
        Kernel {
            op: BlasOp::Axpy,
            prec: Prec::D,
        },
    ];
    for k in kernels {
        let t = tune("P4E", Context::OutOfCache, k);
        for g in &t.result.gains {
            *sums.entry(g.phase).or_insert(0.0) += g.speedup() - 1.0;
        }
    }
    let pf = sums.get(&Phase::PfDist).copied().unwrap_or(0.0);
    for (p, v) in &sums {
        if *p == Phase::PfDist {
            continue;
        }
        assert!(
            pf >= *v,
            "PF DST ({pf:.3}) must dominate {p:?} ({v:.3}) out-of-cache"
        );
    }
    assert!(pf > 0.2, "PF DST should average a solid gain, got {pf:.3}");
}

#[test]
fn claim5_accumulator_expansion_matters_in_cache() {
    let k = Kernel {
        op: BlasOp::Asum,
        prec: Prec::S,
    };
    let t = tune("P4E", Context::InL2, k);
    assert!(
        t.result.best.accum_expand > 1,
        "sasum in-L2 should choose AE > 1 (got {:?})",
        t.result.best
    );
    let ae_gain = t
        .result
        .gains
        .iter()
        .find(|g| g.phase == Phase::Ae)
        .map(|g| g.speedup())
        .unwrap_or(1.0);
    assert!(
        ae_gain > 1.1,
        "AE should contribute >10% in-cache, got {ae_gain:.3}"
    );
}
