#!/usr/bin/env bash
# The panic-site count: `.unwrap()`, `.expect(`, `panic!(` and
# `unreachable!(` on non-comment lines of the shipping crates' sources,
# each file cut at its first `#[cfg(test)]` (unit tests sit at the bottom
# of a file). The HIL parser's own `expect(Tok…)` method returns a typed
# parse error, so its calls are not counted. `scripts/check.sh` fails if
# the total rises above its ceiling.
#
#   scripts/panics.sh          # total only
#   scripts/panics.sh -v       # one row per file with a site, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        /#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        {
            line = $0
            gsub(/\.expect\(Tok/, "", line)
            n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "", line)
        }
        END { print n + 0 }
    ' "$1"
}

total=0
while IFS= read -r f; do
    c=$(count "$f")
    if [ "${1:-}" = "-v" ] && [ "$c" -gt 0 ]; then
        printf '%5d  %s\n' "$c" "$f"
    fi
    total=$((total + c))
done < <(find crates/{core,daemon,fko,xsim,hil,cli}/src -name '*.rs' | sort)
printf '%5d  panic sites (crates/{core,daemon,fko,xsim,hil,cli}/src, tests cut)\n' "$total"
