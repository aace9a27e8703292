#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")"

# Tier-1 leaves the tree as it found it (outside a git work tree both sides are empty).
tree_state() { git status --porcelain 2>/dev/null || true; }
tree_before=$(tree_state)

cargo build --release
cargo build --workspace --examples
# The end-to-end benchmark is its own workspace and calls the crates'
# public API: a change that breaks it must fail here, not at benchmark time.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# ... and its own unit tests (JSON, statistics, the A/B comparison).
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Docs build without a warning: a link to a deleted, narrowed or private
# name must fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Every public name without another production caller carries a reason
# on the allowlist, and no allowlist line is stale.
pub_report=$(tools/pub_callers.sh)
if grep -E 'UNLISTED|stale line' <<<"$pub_report"; then
    echo "tier1: tools/pub_callers.sh found names missing from, or stale lines in, tools/pub_callers.allow" >&2
    exit 1
fi

# The ablation table is deterministic: it must reproduce the recorded
# artifact byte for byte.
cargo run --release -q -p exaclim-bench --bin ablations | diff - artifacts/ablations.txt

# The Fig. 6 convergence runs are the one end-to-end pin of FP16 training
# (binary16 activations and weights through the FP32-accumulating GEMM):
# they must reproduce the recorded artifact byte for byte.
cargo run --release -q -p exaclim-bench --bin fig6_convergence | diff - artifacts/fig6.txt

# Horovod's coordination protocol has no trainer caller; its measuring bin
# panics if a round fails. Its message counts follow arrival timing, so
# the output is not compared.
cargo run --release -q -p exaclim-bench --bin control_plane > /dev/null

# The fault-injection example asserts every recovery invariant it prints
# (consistent replicas, bit-identical replays, complete staged shards).
cargo run --release -q --example fault_injection

# The storm-analytics, staging-comparison and time-lapse examples are
# deterministic: they must reproduce their recorded output byte for byte.
# The time-lapse example also rewrites the tracked out/timelapse_*.ppm
# frames, so the work-tree check below pins those too.
cargo run --release -q --example storm_analytics | diff - artifacts/example_storms.txt
cargo run --release -q --example staging_comparison | diff - artifacts/example_staging.txt
cargo run --release -q --example climate_timelapse | diff - artifacts/example_timelapse.txt

if [ "$tree_before" != "$(tree_state)" ]; then
    echo "tier1: the run dirtied the work tree (< before, > after):" >&2
    diff <(echo "$tree_before") <(tree_state) >&2 || true
    exit 1
fi
