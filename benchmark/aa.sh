#!/usr/bin/env bash
# A/A calibration: how far do two measurements of the *same* build differ?
#
#   benchmark/aa.sh [SETS] [RUNS]   (defaults: 2 sets of 10, as the driver)
#
# Builds once, then makes SETS x RUNS rounds, alternating between the sets
# (A1 B1 A2 B2 ...) so every set spans the whole session; run i of every
# set uses seed 1985 + i. A round is five invocations, one workload each,
# exactly as the validation driver runs the command: the workloads
# BENCHMARK.json gates, then the two it leaves ungated (so the table shows
# why). One more round runs a seed no set used. Prints, as markdown, for
# every (workload, end-to-end metric): the per-set medians, the widest
# within-set spread (distance between the quartiles as a share of the
# median, over the set's seeds), the largest gap between two set medians,
# and the metric's bound from BENCHMARK.json. AA.md holds the output.
set -euo pipefail
cd "$(dirname "$0")/.."
sets=${1:-2} runs=${2:-10}
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/ft-benchmark"
cpu=$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
python3 - "$bin" "$sets" "$runs" "$(nproc)" "$cpu" "$(rustc --version)" "$commit" <<'PY'
import json, statistics, subprocess, sys, time

exe, sets, runs, nproc, cpu, rustc, commit = sys.argv[1:]
sets, runs = int(sets), int(runs)
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}
seconds = str(spec["run_seconds"])
gated = [w["name"] for w in spec["workloads"]]
names = gated + [w for w in ("shard_run", "serve_pipelined") if w not in gated]
walls = []


def invoke(seed):
    """One round: {workload: {metric: value}}."""
    got = {}
    for w in names:
        t = time.time()
        out = subprocess.run(
            [exe, "--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout
        walls.append(time.time() - t)
        doc = json.loads(out.splitlines()[-1])
        assert doc["correct"] and doc["failed"] == 0, (seed, w, doc)
        got[w] = {k: v["value"] for k, v in doc["metrics"].items()}
    return got


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


started = time.strftime("%Y-%m-%d %H:%M")
results = [[None] * runs for _ in range(sets)]
for i in range(runs):
    for s in range(sets):
        results[s][i] = invoke(1985 + i)
        print(f"set {chr(65 + s)} run {i + 1} done", file=sys.stderr)
unused_seed = 424242
unused = invoke(unused_seed)

print(f"- host: nproc = {nproc}, {cpu}; {rustc}; commit {commit}; started {started} UTC")
print(f"- protocol: {sets} sets x {runs} rounds of one build, alternating; a round is five")
print(f"  invocations, one workload each, `--seconds {seconds} --trace 0`; run i of every set")
print("  uses seed 1985 + i. `spread` = distance between the quartiles of a set's")
print("  values as a share of their median (widest set shown); `gap` = largest")
print("  difference between two set medians as a share of the smaller one.")
print(f"- an invocation took {statistics.median(walls):.1f} s (median; longest {max(walls):.1f} s)")
print("- a bound holds if `gap` and `spread` stay inside it; it is comfortable")
print("  when `spread` is under a third of it. Workloads marked *ungated* are not in")
print("  `BENCHMARK.json`; the bound beside them is the one they would have to hold.\n")
print("| workload | metric | set medians | spread | gap | bound |")
print("|---|---|---|---|---|---|")
worst = {}
for w in names:
    for m, meta in bounds.items():
        per_set = [[results[s][i][w][m] for i in range(runs)] for s in range(sets)]
        meds = [statistics.median(v) for v in per_set]
        sp = max(spread(v) for v in per_set)
        gap = (max(meds) - min(meds)) / min(meds)
        if w in gated:
            worst[m] = max(worst.get(m, 0.0), sp, gap)
        cells = " / ".join(f"{x:.6g}" for x in meds)
        label = w if w in gated else f"{w} *(ungated)*"
        print(f"| {label} | {m} ({meta['unit']}) | {cells} | {100 * sp:.2f} % | {100 * gap:.2f} % | {100 * meta['bound']:.0f} % |")
print("\nWidest `spread` or `gap` per metric over the gated workloads:\n")
for m, v in worst.items():
    print(f"- `{m}`: {100 * v:.2f} % (bound {100 * bounds[m]['bound']:.0f} %)")

print(f"\n### One round on a seed no set used ({unused_seed})\n")
print("`cycles` (and the result fingerprints) change with the seed; the timings")
print("stay inside the bounds of the set medians above.\n")
print("| workload | metric | value | vs. median of set A |")
print("|---|---|---|---|")
for w in names:
    for m in bounds:
        base = statistics.median(results[0][i][w][m] for i in range(runs))
        v = unused[w][m]
        print(f"| {w} | {m} | {v:.6g} | {100 * (v - base) / base:+.2f} % |")
PY
