#!/usr/bin/env bash
# Pipeline-throughput regression gate.
#
# Runs the `pipeline` bench (candidates/sec through the full compile and
# compile+eval paths, per kernel x machine model) and compares every row
# against the committed baseline `BENCH_pipeline.json`. Fails when any
# pair's compile_cps or eval_cps drops more than IFKO_BENCH_TOL percent
# (default 10) below the baseline, after normalizing both sides by the
# per-row `calib` machine-speed spin the bench records — so host-speed
# drift (shared runners, CPU steal, frequency scaling) cancels and the
# gate sees only changes in the pipeline itself. Both legs are gated by
# the same rule: the simulate leg runs on a pooled run context, so it no
# longer allocates a memory image and a cache model per candidate, which
# is what used to swing its rate ~20% run-to-run. Faster-than-baseline is
# never an error.
#
#   scripts/bench_compare.sh                  # bench + compare
#   scripts/bench_compare.sh current.json     # compare an existing run
#   IFKO_BENCH_TOL=25 scripts/bench_compare.sh   # looser gate (noisy CI)
#
# The baseline is refreshed by copying a trusted run over it:
#   IFKO_BENCH_SECS=0.5 cargo run --release -p ifko-bench --bin pipeline
#   cp results/BENCH_pipeline.json BENCH_pipeline.json
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_pipeline.json"
tol="${IFKO_BENCH_TOL:-10}"

if [[ $# -ge 1 ]]; then
    current="$1"
    attempts=1
else
    current="results/BENCH_pipeline.json"
    # Transient host slowdowns (CPU-steal bursts on shared runners) can
    # fake a regression even after calib normalization; a real regression
    # reproduces on every attempt.
    attempts="${IFKO_BENCH_ATTEMPTS:-3}"
fi

[[ -s $baseline ]] || { echo "bench_compare: missing baseline $baseline" >&2; exit 2; }

# Rows are one JSON object per line (hand-rolled writer, schema 1):
# extract kernel, machine, compile_cps, eval_cps, calib into
# "k m c e cal" lines. Baselines recorded before the calib field existed
# fall back to 1 (no normalization).
extract() {
    awk '
        /"kernel":/ {
            k = m = c = e = ""; cal = 1
            if (match($0, /"kernel": "[^"]*"/))  { k = substr($0, RSTART+11, RLENGTH-12) }
            if (match($0, /"machine": "[^"]*"/)) { m = substr($0, RSTART+12, RLENGTH-13) }
            if (match($0, /"compile_cps": [0-9.]+/)) { c = substr($0, RSTART+15, RLENGTH-15) }
            if (match($0, /"eval_cps": [0-9.]+/))    { e = substr($0, RSTART+12, RLENGTH-12) }
            if (match($0, /"calib": [0-9.]+/))       { cal = substr($0, RSTART+9, RLENGTH-9) }
            if (k != "" && m != "") print k, m, c, e, cal
        }
    ' "$1"
}

base_rows="$(extract "$baseline")"
[[ -n $base_rows ]] || { echo "bench_compare: no rows parsed from $baseline" >&2; exit 2; }

compare_once() {
cur_rows="$(extract "$current")"
[[ -n $cur_rows ]] || { echo "bench_compare: no rows parsed from $current" >&2; exit 2; }

# COMPILE/EVAL ratios are calib-normalized: (now_cps/now_calib) divided
# by (base_cps/base_calib).
printf '%-8s %-8s %12s %12s %9s %9s   %s\n' KERNEL MACHINE "BASE c/s" "NOW c/s" COMPILE EVAL VERDICT
fail=0
while read -r k m bc be bcal; do
    line="$(printf '%s\n' "$cur_rows" | awk -v k="$k" -v m="$m" '$1==k && $2==m {print; exit}')"
    if [[ -z $line ]]; then
        printf '%-8s %-8s %12s %12s %9s %9s   %s\n' "$k" "$m" "$bc" "-" "-" "-" "MISSING"
        fail=1
        continue
    fi
    read -r _ _ cc ce ccal <<<"$line"
    verdict="$(awk -v bc="$bc" -v cc="$cc" -v be="$be" -v ce="$ce" \
        -v bcal="$bcal" -v ccal="$ccal" -v tol="$tol" '
        BEGIN {
            floor = 1 - tol / 100.0
            if (cc / ccal < (bc / bcal) * floor || ce / ccal < (be / bcal) * floor)
                print "REGRESSED"
            else
                print "ok"
        }')"
    cratio="$(awk -v bc="$bc" -v cc="$cc" -v bcal="$bcal" -v ccal="$ccal" \
        'BEGIN { printf "%.2fx", (cc / ccal) / (bc / bcal) }')"
    eratio="$(awk -v be="$be" -v ce="$ce" -v bcal="$bcal" -v ccal="$ccal" \
        'BEGIN { printf "%.2fx", (ce / ccal) / (be / bcal) }')"
    printf '%-8s %-8s %12s %12s %9s %9s   %s\n' "$k" "$m" "$bc" "$cc" "$cratio" "$eratio" "$verdict"
    [[ $verdict == ok ]] || fail=1
done <<<"$base_rows"
return "$fail"
}

for ((i = 1; i <= attempts; i++)); do
    if [[ $# -lt 1 ]]; then
        cargo run --release -p ifko-bench --bin pipeline -- --out "$current" >/dev/null
    fi
    [[ -s $current ]] || { echo "bench_compare: missing current run $current" >&2; exit 2; }
    if compare_once; then
        echo
        echo "bench_compare: no regression beyond ${tol}% (baseline $baseline)"
        exit 0
    fi
    if ((i < attempts)); then
        echo
        echo "bench_compare: attempt $i/$attempts regressed; re-benching..."
    fi
done
echo
echo "bench_compare: pipeline throughput regressed more than ${tol}% vs $baseline on all $attempts attempts" >&2
exit 1
