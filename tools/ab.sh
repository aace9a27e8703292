#!/usr/bin/env bash
# Interleaved A/B of the end-to-end benchmark: a parent commit against this
# tree, by the rule in choosing-metrics §8.
#
#   tools/ab.sh <parent-ref> <workload>[,<workload>...] [pairs=10] [seed=1]
#
# Both sides are checked out with `git archive` into a throw-away directory
# (under $TMPDIR), each with its own cargo target dir, so what runs is what
# the benchmark driver runs: committed files, built from their own source,
# in a new directory. The change side is HEAD, or HEAD plus the staged and
# unstaged edits to tracked files when the tree is dirty (`git stash
# create`; `git add` new files first). The exact command from
# BENCHMARK.json runs on each side with `--trace 0`, alternating which side
# goes first (parent, change | change, parent | ...). Per end-to-end metric
# it prints each side's median and quartiles, the pairs the change won
# (ties count for neither), and whether the medians are further apart than
# the parent's own inter-quartile distance. A row reads `gain` only when the
# change wins at least nine tenths of the pairs *and* that holds, and `WORSE`
# when its median is worse than the parent's by more than the metric's bound.
#
# Reads BENCHMARK.json, edits nothing under benchmark/, and removes its
# directory on exit. Needs python3 for the JSON and the quartiles.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,6p' "$0" >&2; exit 2; }
parent_ref=$1 workloads=${2//,/ } pairs=${3:-10} seed=${4:-1}
command -v python3 >/dev/null || { echo "tools/ab.sh: python3 not found" >&2; exit 2; }

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
parent=$(git -C "$repo" rev-parse --verify "$parent_ref^{commit}")
change=$(git -C "$repo" stash create)
change=${change:-$(git -C "$repo" rev-parse HEAD)}

work=$(mktemp -d "${TMPDIR:-/tmp}/exaclim-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

# The contract is the change side's: a gain may not edit it anyway.
mapfile -t cmd < <(python3 -c 'import json, sys
print(*json.load(open(sys.argv[1]))["command"], sep="\n")' "$repo/BENCHMARK.json")
seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")

for side in parent change; do
    mkdir "$work/$side"
    git -C "$repo" archive "${!side}" | tar -x -C "$work/$side"
    echo "building $side (${!side})" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/.bench_build" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One run: the benchmark's closing JSON line, appended to the side's log.
run() {
    (cd "$work/$1" && CARGO_TARGET_DIR="$work/$1/.bench_build" \
        "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        | tail -n 1 >> "$work/$1.$workload.jsonl"
}

# The table for one workload, from both sides' logs.
report() {
    python3 - "$repo/BENCHMARK.json" "$work/parent.$workload.jsonl" "$work/change.$workload.jsonl" \
        "$workload" "$seed" "$parent" "$change" <<'PY'
import json, sys
from statistics import median, quantiles

contract, parent_log, change_log, workload, seed, parent, change = sys.argv[1:]
runs = {"parent": [json.loads(l) for l in open(parent_log)],
        "change": [json.loads(l) for l in open(change_log)]}
n = len(runs["parent"])
print(f"{workload}  seed {seed}  {n} pairs  parent {parent[:10]}  change {change[:10]}")
for side, rs in runs.items():
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    wrong = sum(not r["correct"] for r in rs)
    print(f"  {side}: {failed:.0f} of {attempted:.0f} operations failed, {wrong} of {n} runs incorrect")

def q(xs):
    q1, _, q3 = quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return q1, median(xs), q3

print(f"{'metric':<18}{'unit':<6}{'parent q1 / median / q3':<34}{'change q1 / median / q3':<34}"
      f"{'change/parent':<15}{'pairs won':<11}beyond parent IQR")
for m in json.load(open(contract))["end_to_end"]:
    a = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
    b = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
    sign = 1 if m["better"] == "higher" else -1
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    lost = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    (a1, am, a3), (b1, bm, b3) = q(a), q(b)
    apart = abs(bm - am) > a3 - a1
    worse_by = -sign * (bm - am) / am
    verdict = ("gain" if apart and worse_by < 0 and won >= 0.9 * n
               else f"WORSE by {worse_by:.0%} (bound {m['bound']:.0%})" if worse_by > m["bound"] else "")
    print(f"{m['name']:<18}{m['unit']:<6}{f'{a1:.4g} / {am:.4g} / {a3:.4g}':<34}"
          f"{f'{b1:.4g} / {bm:.4g} / {b3:.4g}':<34}{bm / am:<15.3f}"
          f"{f'{won}-{lost} of {n}':<11}{'yes' if apart else 'no':<5}{verdict}")
    print(f"  runs parent: {' '.join(f'{x:.4g}' for x in a)}")
    print(f"  runs change: {' '.join(f'{x:.4g}' for x in b)}")
PY
}

for workload in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        echo "$workload: pair $((i + 1))/$pairs" >&2
        if ((i % 2 == 0)); then run parent; run change; else run change; run parent; fi
    done
    report
done
