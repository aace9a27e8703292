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
cargo test -q
cargo clippy --workspace -- -D warnings

# The ablation table is deterministic: it must reproduce the recorded
# artifact byte for byte.
cargo run --release -q -p exaclim-bench --bin ablations | diff - artifacts/ablations.txt

# Kernel results must be bit-identical at any pool width: rerun the
# tensor and nn suites with a 4-thread default pool.
EXACLIM_NUM_THREADS=4 cargo test -q -p exaclim-tensor -p exaclim-nn

# ... and with the buffer-recycling pool disabled: pooling trades
# allocator traffic, never numerics.
EXACLIM_POOL=0 cargo test -q -p exaclim-tensor -p exaclim-nn

# ... and with the SIMD micro-kernels disabled: the scalar fallback is
# the reference the vector paths are bit-compared against, so it must
# stay green on its own.
EXACLIM_SIMD=0 cargo test -q -p exaclim-tensor -p exaclim-nn

if [ "$tree_before" != "$(tree_state)" ]; then
    echo "tier1: the run dirtied the work tree (< before, > after):" >&2
    diff <(echo "$tree_before") <(tree_state) >&2 || true
    exit 1
fi
