//! The `strategies` head-to-head at quick scale, as golden files: what
//! every search strategy finds on dswap and ddot — best cycles, speedup
//! over FKO defaults, evaluation counters and the winner's finder — must
//! stay byte-identical, with and without a probe budget. The unlimited
//! run covers the global strategies' default probe count and the
//! portfolio's shares after an unbudgeted line search; the budgeted run
//! covers truncation and the portfolio's per-member split.

use ifko::prelude::*;
use ifko_bench::{strategies, ExpConfig};

/// `strategies --quick --no-cache [--budget N]`'s stdout, rendered
/// through the library, against the committed golden at `name`.
fn check(budget: Budget, name: &str) {
    let mut cfg = ExpConfig {
        use_cache: false,
        ..ExpConfig::new(true)
    };
    cfg.tune.base = cfg.tune.base.budget(budget);
    let got = strategies(&cfg, &StrategySpec::all());
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap();
    assert_eq!(got, want, "the strategies table drifted from {path}");
}

/// Regenerate with:
/// `cargo run --release --bin strategies -- --quick --no-cache > tests/fixtures/strategies-quick.txt`
#[test]
fn strategies_quick_matches_the_golden() {
    check(Budget::unlimited(), "strategies-quick.txt");
}

/// Regenerate with:
/// `cargo run --release --bin strategies -- --quick --no-cache --budget 48 > tests/fixtures/strategies-quick-budget48.txt`
#[test]
fn strategies_quick_budget48_matches_the_golden() {
    check(Budget::probes(48), "strategies-quick-budget48.txt");
}
