//! The paper's Table 3 at quick scale, as a golden file: the parameters
//! the empirical search selects for every suite kernel on each sweep must
//! stay byte-identical, so a change that moves a winner shows as a diff
//! line here instead of passing unnoticed.

use ifko_bench::{table3, ExpConfig, Experiment};

/// `table3 --quick`'s stdout, rendered through the library with no
/// persisted cache (as `--no-cache`), equals the committed golden.
/// Regenerate it with:
/// `cargo run --release --bin table3 -- --quick --no-cache > tests/fixtures/table3-quick.txt`
#[test]
fn table3_quick_matches_the_golden() {
    let cfg = ExpConfig {
        use_cache: false,
        ..ExpConfig::new(true)
    };
    let got = table3(Experiment::with_config("table3", cfg));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/table3-quick.txt"
    );
    let want = std::fs::read_to_string(path).unwrap();
    assert_eq!(got, want, "Table 3 drifted from {path}");
}
