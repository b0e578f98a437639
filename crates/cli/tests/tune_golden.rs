//! The stdout of a plain `ifko tune` of a shipped `.hil` kernel, with no
//! tuned-results database, as a golden file: the defaults' and the
//! winner's cycles, the evaluation counters, the strategy and its
//! finder, the winning point, the per-phase gains and the winner's
//! feature vector must stay byte-identical.

use std::process::Command;

/// `ifko tune kernels/waxpby.hil --n 1024`'s stdout equals the committed
/// golden. Regenerate it from the repository root with:
/// `cargo run --release --bin ifko -- tune kernels/waxpby.hil --n 1024 > crates/cli/tests/fixtures/waxpby-tune-n1024.txt`
#[test]
fn waxpby_tune_matches_the_golden() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_ifko"))
        .args(["tune", "kernels/waxpby.hil", "--n", "1024"])
        .current_dir(root)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/waxpby-tune-n1024.txt"
    );
    let want = std::fs::read_to_string(path).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "the tune's stdout drifted from {path}"
    );
}
