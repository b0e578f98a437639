#!/usr/bin/env bash
# The merge gate, and gates only: source greps, the panic and size
# ceilings, fmt, clippy, rustdoc, the release build, the full offline test
# suite and the benchmark/ package build. Every behaviour of a binary
# (each experiment, `ifko` subcommand and `ifkod`) is asserted by a
# Tier-1 test that runs it, not by a step here that greps its output, so
# this script runs no binary, writes nothing under results/ and gates no
# wall-clock number. Everything here must pass before a merge.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "no gated test targets"
# A `required-features` line lets plain `cargo test` skip a target without
# saying so; two property suites sat unrun behind one for a dozen PRs.
if grep -n 'required-features' crates/*/Cargo.toml; then
    echo "error: a crates/*/Cargo.toml gates a target behind required-features" >&2
    exit 1
fi

step "one argv reader"
# Every command reads its flags through the one table in ifko::flags;
# a second argv walk is how flags came to be dropped silently.
if grep -rln 'std::env::args' crates/*/src | grep -vx 'crates/core/src/flags.rs'; then
    echo "error: only crates/core/src/flags.rs may read std::env::args" >&2
    exit 1
fi

step "one JSON writer"
# Every trace line, journal record and wire frame is written by the
# object writer in ifko::json; a hand-spelled `\"key\":` elsewhere in
# shipping code (cut at the first #[cfg(test)], as scripts/size.sh cuts)
# is a second encoder that can drift from the reader.
json_literals="$(
    find crates/core/src crates/daemon/src crates/cli/src -name '*.rs' \
        ! -path crates/core/src/json.rs | sort | while IFS= read -r f; do
        awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep -E '\\"[A-Za-z_]+\\":' || true
)"
if [ -n "$json_literals" ]; then
    echo "$json_literals" >&2
    echo "error: JSON keys spelled by hand; write them with ifko::json::obj()" >&2
    exit 1
fi

step "one key writer"
# Every tuned-db key is spelled by ifko::key (`tuned_key` takes a typed
# precision and context); a second `db_key(` caller in shipping code
# (cut at the first #[cfg(test)]) is how a precision came to be keyed
# by its `{:?}` form at two sites.
key_calls="$(
    find crates/*/src -name '*.rs' ! -path crates/core/src/key.rs | sort |
        while IFS= read -r f; do
            awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
        done | grep -F 'db_key(' || true
)"
if [ -n "$key_calls" ]; then
    echo "$key_calls" >&2
    echo "error: only crates/core/src/key.rs may call db_key(; use ifko::key::tuned_key" >&2
    exit 1
fi

step "deleted names stay deleted"
# Flags, types and phases that were measured and deleted; a name that
# comes back in shipping code or the README is stale prose or a revived
# path. DESIGN.md, CHANGES.md and EXPERIMENTS.md keep their history.
# `ROADMAP item N` goes stale the same way (ROADMAP renumbers its items
# at every re-anchor): point at the DESIGN.md section instead.
deleted_names="$(
    grep -rnF -e '--model-prune' -e '--warm-start' -e SearchDriver \
        -e ChromeTraceSink -e XFER -e xfer -e nearest_by_features \
        -e lookup_or_nearest -e StaticFeatureVector -e 'ROADMAP item' \
        crates/*/src README.md || true
)"
if [ -n "$deleted_names" ]; then
    echo "$deleted_names" >&2
    echo "error: a deleted name is back in crates/*/src or README.md" >&2
    exit 1
fi

step "panic sites (scripts/panics.sh)"
# `.unwrap()` / `.expect(` / `panic!` / `unreachable!` in shipping code:
# a number that may only go down. Lower the ceiling whenever it does.
panic_ceiling=36
panic_sites="$(scripts/panics.sh | awk '{ print $1 }')"
echo "$panic_sites panic sites (ceiling $panic_ceiling)"
if [ "$panic_sites" -gt "$panic_ceiling" ]; then
    echo "error: $panic_sites panic sites, above the ceiling of $panic_ceiling" >&2
    scripts/panics.sh -v >&2
    exit 1
fi

step "shipping lines (scripts/size.sh)"
# Lines under crates/*/src, tests cut: a number that may only go down.
# Lower the ceiling whenever it does; a change that raises it says why
# in CHANGES.md.
size_ceiling=24449
size_total="$(scripts/size.sh | awk '{ print $1 }')"
echo "$size_total shipping lines (ceiling $size_ceiling)"
if [ "$size_total" -gt "$size_ceiling" ]; then
    echo "error: $size_total shipping lines, above the ceiling of $size_ceiling" >&2
    exit 1
fi

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "cargo build --release"
cargo build --release --workspace

step "cargo test"
cargo test --workspace --release -q

step "system benchmark package (benchmark/): offline build + quick test"
# benchmark/ is a workspace of its own that compiles against the public
# API of crates/*; the root build and tests never see it, so without this
# step an API change that breaks it first fails in the benchmark pipeline.
# This is the API-compatibility gate: it is what holds the public paths
# the benchmark names (`EvalEngine::eval_batch`, `search::{line_search_batched,
# SearchOptions}`, `generic::run_generic`, `runner::run_once`,
# `worker::{WorkerSpec::blas, WorkerPool, serve_stdio}`, `proto::esc`,
# `report::{parse_json, Json}`, `strategy::db::*`, `TuneConfig`, the
# fields `SearchResult.{evaluations, cache_hits, pruned}` and
# `EvalEvent.{params, cycles}`, ...) — see DESIGN.md, "One evaluation
# path" and "One record per probe".
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q

printf '\nAll checks passed.\n'
