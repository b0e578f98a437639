# Developer entry points. `just check` is the merge gate.

# Gates only: source greps, size/panic ceilings, fmt, clippy, rustdoc,
# release build, tests, benchmark/ package build
check:
    scripts/check.sh

# Lines under crates/*/src with each file cut at its first #[cfg(test)]
size *FILES:
    scripts/size.sh {{FILES}}

fmt:
    cargo fmt --all

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

test:
    cargo test --workspace --release -q

# Front end + analysis + IR verifier over the checked-in kernels
lint:
    cargo run --release -p ifko-cli -- lint kernels/*.hil

# Chaos smoke: tune one kernel under seeded fault injection; the search
# must recover from every fault and persist a winner
chaos:
    cargo run --release -p ifko-cli -- tune kernels/ddot.hil --n 1024 \
        --chaos 7 --max-retries 2 --db results/db

# Worker-pool smoke: tune with candidate evaluation dispatched to two
# `ifko worker` child processes (bit-identical to an in-process run)
workers:
    cargo run --release -p ifko-cli -- tune kernels/ddot.hil --n 1024 \
        --workers 2

# System benchmark package (own workspace under benchmark/): build it
# offline against this tree's crates and run its `run --quick` smoke
# test, so a public-API change that breaks it fails here first
bench-system-quick:
    cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Search-strategy head-to-head on swap/dot, persisting winners to the db
strategies:
    cargo run --release -p ifko-bench --bin strategies -- --db results/db

# Regenerate every paper table/figure at full scale (slow)
figures:
    for b in table1 table2 table3 figure2 figure3 figure4 figure4b figure5 figure6 figure7; do \
        cargo run --release -p ifko-bench --bin $b > results/$b.txt; \
    done

# Trace + metrics for a quick figure7 run, then analyze the trace
observe:
    mkdir -p results/traces
    cargo run --release -p ifko-bench --bin figure7 -- --quick \
        --trace results/traces/figure7-quick.jsonl \
        --metrics results/traces/figure7-quick-metrics.json
    cargo run --release -p ifko-cli -- report results/traces/figure7-quick.jsonl

# Tune one kernel with its trace on, then explain the winner
# (microarchitectural attribution + bottleneck classification) and
# render the trace for Chrome/Perfetto. Open the .chrome.json file in
# ui.perfetto.dev to browse the search timeline.
explain:
    mkdir -p results/traces
    cargo run --release -p ifko-cli -- tune kernels/ddot.hil --n 1024 --jobs 2 \
        --trace results/traces/ddot.jsonl
    cargo run --release -p ifko-cli -- explain results/traces/ddot.jsonl
    cargo run --release -p ifko-cli -- report results/traces/ddot.jsonl --format chrome \
        > results/traces/ddot.chrome.json

# Long-running tuning daemon on the conventional socket and db; clients
# reach it with `ifko tune ... --remote results/ifkod.sock` and the
# control plane with `ifko daemon <cmd>`. Stop with `just daemon-stop`.
serve:
    cargo run --release -p ifko-daemon --bin ifkod -- \
        --socket results/ifkod.sock --db results/db --cache results/cache

daemon-stop:
    cargo run --release -p ifko-cli -- daemon stop --socket results/ifkod.sock

# Tuned-results database statistics: live records, journal lines,
# dead-record ratio. `just db-compact` rewrites the journal.
db-stats:
    cargo run --release -p ifko-cli -- db stats

db-compact:
    cargo run --release -p ifko-cli -- db compact

# Export the tuned-results db as a checksummed tune-cache artifact
# (import elsewhere with `ifko install FILE` — records re-verify there)
pack out="results/tunes.ifko":
    cargo run --release -p ifko-cli -- pack --out {{out}}

# Drop the persistent evaluation cache and sample traces
clean-cache:
    rm -rf results/cache results/traces
