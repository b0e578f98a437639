#!/usr/bin/env bash
# Pipeline-throughput regression gate.
#
# Runs the `pipeline` bench (candidates/sec through the full compile and
# compile+eval paths, per kernel x machine model) with
# `--compare BENCH_pipeline.json`: the binary compares every row against
# the committed baseline and fails when any pair's compile_cps or
# eval_cps drops more than IFKO_BENCH_TOL percent (default 10) below it,
# after normalizing both sides by the per-row `calib` machine-speed spin
# the bench records — so host-speed drift (shared runners, CPU steal,
# frequency scaling) cancels and the gate sees only changes in the
# pipeline itself. Faster-than-baseline is never an error. What is left
# here is the bounded re-bench loop.
#
#   scripts/bench_compare.sh                  # bench + compare
#   scripts/bench_compare.sh current.json     # compare an existing run
#   IFKO_BENCH_TOL=25 scripts/bench_compare.sh   # looser gate (noisy CI)
#
# The run lands in results/BENCH_pipeline.json (generated, not tracked).
# The baseline is refreshed by copying a trusted run over it:
#   IFKO_BENCH_SECS=0.5 cargo run --release -p ifko-bench --bin pipeline
#   cp results/BENCH_pipeline.json BENCH_pipeline.json
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_pipeline.json"
pipeline() { cargo run --release --quiet -p ifko-bench --bin pipeline -- --compare "$baseline" "$@"; }

if [[ $# -ge 1 ]]; then
    pipeline --current "$1"
    exit
fi

# Transient host slowdowns (CPU-steal bursts on shared runners) can fake
# a regression even after calib normalization; a real regression
# reproduces on every attempt. Exit 2 (unreadable file) is not retried.
attempts="${IFKO_BENCH_ATTEMPTS:-3}"
for ((i = 1; i <= attempts; i++)); do
    status=0
    pipeline --out results/BENCH_pipeline.json || status=$?
    [[ $status -eq 1 ]] || exit "$status"
    if ((i < attempts)); then
        echo "bench_compare: attempt $i/$attempts regressed; re-benching..."
    fi
done
echo "bench_compare: regressed on all $attempts attempts" >&2
exit 1
