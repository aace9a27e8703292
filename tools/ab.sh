#!/usr/bin/env bash
# Interleaved A/B of the end-to-end benchmark: a parent commit against this
# tree, by the rule in choosing-metrics §8.
#
#   tools/ab.sh <parent-ref> <workload>[,<workload>...] [pairs=10] [seed=1] [layer-metric,...]
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
# (ties count for neither), whether the medians are further apart than the
# parent's own inter-quartile distance, and whether the runs separate
# completely (every change run better than every parent run). Quartiles are
# Python's default `statistics.quantiles(xs, n=4)` (the exclusive method),
# as in benchmark/src/stats.rs. A row reads `gain` only when the change wins
# at least nine tenths of the pairs *and* the medians are that far apart,
# and `WORSE` when its median is worse than the parent's by more than the
# metric's bound. A row also reads `SPREAD parent` / `SPREAD change` when
# that side's spread — its inter-quartile distance over its *own* median —
# exceeds the bound: the benchmark refuses such a row as too noisy to
# judge, however far apart the medians are.
#
# Under the run counts it reports the arithmetic as well as the speed: each
# run's `check` lines are kept beside its closing JSON, and per side it lists
# the distinct hashes those lines carry (`chunks_repeat_bitwise`: the final
# parameter hash; `frame_hash_stable`: the blended frame's) with the number of
# runs that printed each, any check that FAILED, and one verdict — `arithmetic
# identical`, or `arithmetic changed <old> → <new>` for a change that re-pins.
# More than one hash on a side is an error: that side does not repeat itself.
#
# With a fifth argument — per-layer metric names from BENCHMARK.json — each
# workload's pairs are followed by two `--trace 1` runs per side (parent,
# change, change, parent) and a `metric parent change ratio` table of those
# metrics, so where the saving sits comes from the same script, binaries and
# seed as the claim. Traced runs never enter the end-to-end table.
#
# Reads BENCHMARK.json, edits nothing under benchmark/, and removes its
# directory on exit. Needs python3 for the JSON and the quartiles.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,6p' "$0" >&2; exit 2; }
parent_ref=$1 workloads=${2//,/ } pairs=${3:-10} seed=${4:-1} layers=${5:-}
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
# A misspelt per-layer name should fail now, not after the runs.
python3 -c 'import json, sys
known = {m["name"] for m in json.load(open(sys.argv[1]))["per_layer"]}
unknown = [n for n in sys.argv[2].split(",") if n and n not in known]
if unknown: sys.exit("tools/ab.sh: not a per-layer metric of BENCHMARK.json: " + " ".join(unknown))' \
    "$repo/BENCHMARK.json" "$layers"

for side in parent change; do
    mkdir "$work/$side"
    git -C "$repo" archive "${!side}" | tar -x -C "$work/$side"
    echo "building $side (${!side})" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/.bench_build" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One run: the benchmark's closing JSON line, appended to the side's log
# (the traced log when the second argument is 1), and its `check` lines,
# appended to the side's .checks file.
run() {
    local trace=${2:-0}
    local log="$work/$1.$workload.trace$trace"
    (cd "$work/$1" && CARGO_TARGET_DIR="$work/$1/.bench_build" \
        "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") \
        > "$work/last.out"
    tail -n 1 "$work/last.out" >> "$log.jsonl"
    grep " check " "$work/last.out" >> "$log.checks" || true
}

# The table for one workload, from both sides' logs.
report() {
    python3 - "$repo/BENCHMARK.json" "$work/parent.$workload.trace0" "$work/change.$workload.trace0" \
        "$workload" "$seed" "$parent" "$change" <<'PY'
import json, re, sys
from collections import Counter
from statistics import median, quantiles

contract, parent_log, change_log, workload, seed, parent, change = sys.argv[1:]
logs = {"parent": parent_log, "change": change_log}
runs = {side: [json.loads(l) for l in open(log + ".jsonl")] for side, log in logs.items()}
n = len(runs["parent"])
print(f"{workload}  seed {seed}  {n} pairs  parent {parent[:10]}  change {change[:10]}")
for side, rs in runs.items():
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    wrong = sum(not r["correct"] for r in rs)
    print(f"  {side}: {failed:.0f} of {attempted:.0f} operations failed, {wrong} of {n} runs incorrect")

# The arithmetic: the hash each run's chunks_repeat_bitwise (final
# parameters) or frame_hash_stable (blended frame) line carries.
hashes = {}
for side, log in logs.items():
    checks = open(log + ".checks").read().splitlines()
    for line in checks:
        if " FAILED " in line:
            print(f"  {side}: {line}")
    hashes[side] = Counter(h for line in checks
                           if re.search(r" check (chunks_repeat_bitwise|frame_hash_stable) ", line)
                           for h in re.findall(r"\b[0-9a-f]{16}\b", line))
    found = ", ".join(f"{h} in {k} of {n} runs" for h, k in hashes[side].most_common())
    print(f"  {side}: hash {found or 'not printed by this workload'}")
    if len(hashes[side]) > 1:
        print(f"  ERROR: {side} does not repeat its own arithmetic ({len(hashes[side])} distinct hashes)")
if all(len(c) == 1 for c in hashes.values()):
    (old,), (new,) = hashes["parent"], hashes["change"]
    print("  arithmetic identical" if old == new else f"  arithmetic changed {old} → {new}")

def q(xs):
    q1, _, q3 = quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, median(xs), q3

print(f"{'metric':<18}{'unit':<6}{'parent q1 / median / q3':<34}{'change q1 / median / q3':<34}"
      f"{'change/parent':<15}{'pairs won':<11}{'beyond IQR':<12}{'separate':<10}verdict")
for m in json.load(open(contract))["end_to_end"]:
    a = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
    b = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
    sign = 1 if m["better"] == "higher" else -1
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    lost = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    (a1, am, a3), (b1, bm, b3) = q(a), q(b)
    apart = abs(bm - am) > a3 - a1
    separate = min(sign * y for y in b) > max(sign * x for x in a)
    worse_by = -sign * (bm - am) / am
    verdict = ("gain" if apart and worse_by < 0 and won >= 0.9 * n
               else f"WORSE by {worse_by:.0%} (bound {m['bound']:.0%})" if worse_by > m["bound"] else "")
    for side, (s1, sm, s3) in (("parent", (a1, am, a3)), ("change", (b1, bm, b3))):
        spread = (s3 - s1) / abs(sm) if sm else 0.0
        if spread > m["bound"]:
            verdict += f"  SPREAD {side} {spread:.1%} > {m['bound']:.0%}"
    print(f"{m['name']:<18}{m['unit']:<6}{f'{a1:.4g} / {am:.4g} / {a3:.4g}':<34}"
          f"{f'{b1:.4g} / {bm:.4g} / {b3:.4g}':<34}{bm / am:<15.3f}"
          f"{f'{won}-{lost} of {n}':<11}{'yes' if apart else 'no':<12}"
          f"{'yes' if separate else 'no':<10}{verdict}")
    print(f"  runs parent: {' '.join(f'{x:.4g}' for x in a)}")
    print(f"  runs change: {' '.join(f'{x:.4g}' for x in b)}")
PY
}

# The per-layer table for one workload, from both sides' traced logs.
report_layers() {
    python3 - "$work/parent.$workload.trace1.jsonl" "$work/change.$workload.trace1.jsonl" \
        "$workload" "$layers" <<'PY'
import json, sys
from statistics import mean

parent_log, change_log, workload, layers = sys.argv[1:]
runs = {side: [json.loads(l)["metrics"] for l in open(log)]
        for side, log in (("parent", parent_log), ("change", change_log))}
print(f"{workload}  per layer, --trace 1, mean of {len(runs['parent'])} runs a side (each run in brackets)")
print(f"{'metric':<38}{'unit':<9}{'parent':<50}{'change':<50}change/parent")
for name in layers.split(","):
    a = [r[name]["value"] for r in runs["parent"]]
    b = [r[name]["value"] for r in runs["change"]]
    cell = lambda xs: f"{mean(xs):.10g} [{' '.join(f'{x:.10g}' for x in xs)}]"
    ratio = f"{mean(b) / mean(a):.3f}" if mean(a) else "-"
    print(f"{name:<38}{runs['parent'][0][name]['unit']:<9}{cell(a):<50}{cell(b):<50}{ratio}")
PY
}

for workload in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        echo "$workload: pair $((i + 1))/$pairs" >&2
        if ((i % 2 == 0)); then run parent; run change; else run change; run parent; fi
    done
    report
    if [ -n "$layers" ]; then
        echo "$workload: traced runs" >&2
        run parent 1; run change 1; run change 1; run parent 1
        report_layers
    fi
done
