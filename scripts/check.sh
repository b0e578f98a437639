#!/usr/bin/env bash
# The one-stop gate: formatting, lints, the full offline test suite, and
# end-to-end smokes that run each binary and grep its output. Every
# contract that can be checked in-process (determinism across jobs and
# workers, exact work counts, the daemon's warm path) is a Tier-1 test,
# not a step here: this script gates no wall-clock number. Everything
# here must pass before a merge.
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
deleted_names="$(
    grep -rnF -e '--model-prune' -e '--warm-start' -e SearchDriver \
        -e ChromeTraceSink -e XFER -e xfer -e nearest_by_features \
        -e lookup_or_nearest -e StaticFeatureVector \
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
size_ceiling=24115
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

step "ifko lint kernels/*.hil"
cargo run --release -p ifko-cli -- lint kernels/*.hil
cargo run --release -p ifko-cli -- lint kernels/*.hil --format json >/dev/null

step "harness smoke: table3 --quick (+trace +metrics)"
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
cargo run --release -p ifko-bench --bin table3 -- --quick \
    --trace "$obs_tmp/table3.jsonl" --metrics "$obs_tmp/table3-metrics.json" >/dev/null
test -s "$obs_tmp/table3.jsonl"
grep -q ifko_engine_evals_total "$obs_tmp/table3-metrics.json"

step "harness smoke: ifko report (trace analyzer)"
cargo run --release -p ifko-cli -- report "$obs_tmp/table3.jsonl" | grep -q "stage time attribution"
cargo run --release -p ifko-cli -- report "$obs_tmp/table3.jsonl" --format json >/dev/null

step "harness smoke: ifko explain + ifko report --format chrome"
cargo run --release -p ifko-cli -- tune kernels/ddot.hil --n 512 --jobs 2 \
    --trace "$obs_tmp/explain.jsonl" \
    --metrics "$obs_tmp/explain-metrics.json" >/dev/null
# A `.hil` tune goes through the same tune driver as a BLAS one, so it
# must count itself like one.
grep -q ifko_tune_runs_total "$obs_tmp/explain-metrics.json"
cargo run --release -p ifko-cli -- explain "$obs_tmp/explain.jsonl" \
    | grep -q "per-transform attribution"
cargo run --release -p ifko-cli -- explain "$obs_tmp/explain.jsonl" --format json >/dev/null
# The Chrome/Perfetto view is rendered from the trace after the fact.
cargo run --release -p ifko-cli -- report "$obs_tmp/explain.jsonl" --format chrome >/dev/null

step "harness smoke: strategies --db (tuned db)"
# What each strategy finds is tests/strategies_golden.rs's; this smoke
# checks only what the golden cannot see: winners persist into the db's
# one journal, and `ifko db stats` reads it.
cargo run --release -p ifko-bench --bin strategies -- --quick \
    --strategies line --budget 16 --db "$obs_tmp/db" > /dev/null
grep -q '"key"' "$obs_tmp/db/tuned.jsonl"
cargo run --release -p ifko-cli -- db stats --db "$obs_tmp/db" > "$obs_tmp/db-stats.txt"
grep -q 'live records' "$obs_tmp/db-stats.txt"

step "harness smoke: ifkod daemon (remote tune, warm hit, pack/install)"
daemon_sock="$obs_tmp/ifkod.sock"
cargo run --release -p ifko-daemon --bin ifkod -- \
    --socket "$daemon_sock" --db "$obs_tmp/daemondb" --quiet &
daemon_pid=$!
trap 'rm -rf "$obs_tmp"; kill "$daemon_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do [ -S "$daemon_sock" ] && break; sleep 0.1; done
cargo run --release -p ifko-cli -- daemon ping --socket "$daemon_sock"
# First remote tune is cold; the identical repeat must answer from the
# daemon's in-memory tuned-results index.
cargo run --release -p ifko-cli -- tune kernels/ddot.hil --n 1024 \
    --remote "$daemon_sock" > "$obs_tmp/remote-cold.txt"
grep -q 'warm start         : no' "$obs_tmp/remote-cold.txt"
cargo run --release -p ifko-cli -- tune kernels/ddot.hil --n 1024 \
    --remote "$daemon_sock" > "$obs_tmp/remote-warm.txt"
grep -q 'warm start         : yes' "$obs_tmp/remote-warm.txt"
cargo run --release -p ifko-cli -- daemon metrics --socket "$daemon_sock" \
    > "$obs_tmp/daemon-metrics.txt"
grep -qx 'ifkod_subjects 1' "$obs_tmp/daemon-metrics.txt"
grep -q ifkod_requests_total "$obs_tmp/daemon-metrics.txt"
# Pack the daemon's winners, re-verify them into a fresh results dir,
# and check the import warm-starts the next local tune there.
cargo run --release -p ifko-cli -- pack --socket "$daemon_sock" \
    --out "$obs_tmp/tunes.ifko"
cargo run --release -p ifko-cli -- install "$obs_tmp/tunes.ifko" \
    --db "$obs_tmp/freshdb" > "$obs_tmp/install.txt"
grep -q 'installed 1 record(s)' "$obs_tmp/install.txt"
cargo run --release -p ifko-cli -- tune kernels/ddot.hil --n 1024 \
    --db "$obs_tmp/freshdb" > "$obs_tmp/fresh-warm.txt"
grep -q 'strategy           : warm' "$obs_tmp/fresh-warm.txt"
cargo run --release -p ifko-cli -- db stats --db "$obs_tmp/freshdb" \
    > "$obs_tmp/freshdb-stats.txt"
grep -q 'live records : 1' "$obs_tmp/freshdb-stats.txt"
cargo run --release -p ifko-cli -- daemon stop --socket "$daemon_sock"
wait "$daemon_pid"
trap 'rm -rf "$obs_tmp"' EXIT

step "harness smoke: figure7 --quick (sample trace)"
cargo run --release -p ifko-bench --bin figure7 -- --quick >/dev/null
test -s results/traces/figure7-quick.jsonl

printf '\nAll checks passed.\n'
