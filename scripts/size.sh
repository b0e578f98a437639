#!/usr/bin/env bash
# The size figure simplicity PRs report: lines under crates/*/src, each
# file cut at its first `#[cfg(test)]` (unit tests sit at the bottom of a
# file, so what is counted is the code that ships). Prints one row per
# file named on the command line, then the total.
#
#   scripts/size.sh                       # total only
#   scripts/size.sh crates/core/src/eval.rs crates/core/src/report.rs
set -euo pipefail
cd "$(dirname "$0")/.."

count() { awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

for f in "$@"; do
    printf '%7d  %s\n' "$(count "$f")" "$f"
done
total=0
while IFS= read -r f; do
    total=$((total + $(count "$f")))
done < <(find crates/*/src -name '*.rs' | sort)
printf '%7d  total (crates/*/src, tests cut)\n' "$total"
