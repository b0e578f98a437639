//! The paper's Figure 7 at quick scale, as a golden file: the per-phase
//! decomposition of what the search gains over FKO's defaults, for every
//! suite kernel on each of the four sweeps, must stay byte-identical, so
//! a change that moves a phase's gain shows as a diff line here.

use ifko_bench::{figure7, ExpConfig, Experiment};

/// `figure7 --quick --no-cache`'s stdout, rendered through the library,
/// equals the committed golden. Regenerate it with:
/// `cargo run --release --bin figure7 -- --quick --no-cache > tests/fixtures/figure7-quick.txt`
#[test]
fn figure7_quick_matches_the_golden() {
    let cfg = ExpConfig {
        use_cache: false,
        ..ExpConfig::new(true)
    };
    let got = figure7(Experiment::with_config("figure7", cfg));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/figure7-quick.txt"
    );
    let want = std::fs::read_to_string(path).unwrap();
    assert_eq!(got, want, "Figure 7 drifted from {path}");
}
