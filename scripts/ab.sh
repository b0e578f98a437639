#!/usr/bin/env bash
# In-process A/B of `Cpu::run`: REV's simulator, compiler and suite
# crates against the working tree's, linked into one harness
# (crates/ab) and alternated on one program set — 14 kernels x
# {defaults, UR 1/4/16, PF off, WNT} x both machines, out of cache at
# N = 20 000 and in L2 at N = 1024. Prints per context the median over
# rounds of base time / change time (above 1: the change is faster) and
# the A/A ratio of the base against a twin of itself, read in the same
# run. It refuses to time sides whose programs or counters differ.
#
#   scripts/ab.sh REV [ROUNDS]
#
# REV's crates are exported with `git archive` into a new temporary
# directory, removed on exit, and renamed `ifko-*-base`; nothing is
# written under .git and nothing is fetched. The harness builds in
# release.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:?usage: scripts/ab.sh REV [ROUNDS]}"
rounds="${2:-15}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
mkdir -p "$dir/base" "$dir/harness/src"
git -C "$repo" archive "$rev" crates/xsim crates/fko crates/hil crates/blas examples |
    tar -x -C "$dir/base"
for c in xsim fko hil blas; do
    sed -i "s/^name = \"ifko-$c\"/name = \"ifko-$c-base\"/" "$dir/base/crates/$c/Cargo.toml"
done

cat >"$dir/Cargo.toml" <<EOF
[workspace]
members = ["base/crates/*", "harness"]
resolver = "2"

[workspace.package]
version = "0.1.0"
edition = "2021"
license = "MIT OR Apache-2.0"

# REV's crates name each other as in the repo; here that is their -base copy.
[workspace.dependencies]
ifko-xsim = { path = "base/crates/xsim", package = "ifko-xsim-base" }
ifko-hil = { path = "base/crates/hil", package = "ifko-hil-base" }
ifko-fko = { path = "base/crates/fko", package = "ifko-fko-base" }
ifko-blas = { path = "base/crates/blas", package = "ifko-blas-base" }

[profile.release]
debug = "line-tables-only"
EOF

cat >"$dir/harness/Cargo.toml" <<EOF
[package]
name = "ab-harness"
version = "0.1.0"
edition = "2021"
publish = false

[dependencies]
ifko-ab = { path = "$repo/crates/ab" }
ifko-xsim-base = { path = "../base/crates/xsim" }
ifko-fko-base = { path = "../base/crates/fko" }
ifko-blas-base = { path = "../base/crates/blas" }
ifko-xsim = { path = "$repo/crates/xsim" }
ifko-fko = { path = "$repo/crates/fko" }
ifko-blas = { path = "$repo/crates/blas" }
EOF

cat >"$dir/harness/src/main.rs" <<EOF
ifko_ab::side!(base, ifko_xsim_base, ifko_fko_base, ifko_blas_base);
ifko_ab::side!(change, ifko_xsim, ifko_fko, ifko_blas);

fn main() -> std::process::ExitCode {
    let (set, rounds) = (ifko_ab::Set::full(), $rounds);
    let mut sides = (base::Side::default(), change::Side::default(), base::Side::default());
    match ifko_ab::ab(&set, rounds, &mut sides.0, &mut sides.1, &mut sides.2) {
        Ok(readings) => {
            print!("{}", ifko_ab::table(&readings, rounds));
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ab: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
EOF

echo "ab: $rev (base) vs the working tree (change)" >&2
cargo run --release --offline --quiet --manifest-path "$dir/Cargo.toml" -p ab-harness
