#!/usr/bin/env bash
# Everything a change to the benchmark must keep green: it builds against
# the current tree, its unit tests pass, it measures with the code
# generation users get, and every workload runs end to end, plain and
# traced, emitting every metric BENCHMARK.json names (the binary itself
# refuses a name it does not know, a missing or non-finite value, and a
# failed output check: "correct" is then false and `run` exits non-zero
# for `--workload all`).
set -euo pipefail
cd "$(dirname "$0")/.."
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

# The benchmark's [profile.release] is the repository's, line for line.
profile() { awk '/^\[profile\.release\]/{on=1; print; next} /^\[/{on=0} on && NF && !/^#/' "$1"; }
diff <(profile Cargo.toml) <(profile benchmark/Cargo.toml)

# A tenth of the work, every workload, both modes.
"${bench[@]}" run --workload all --smoke --trace 0
"${bench[@]}" run --workload all --smoke --trace 1
echo "benchmark/check.sh: ok"
