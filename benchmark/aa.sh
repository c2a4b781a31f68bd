#!/usr/bin/env bash
# A/A check: the same commit measured as two interleaved sets of runs.
#
#   bash benchmark/aa.sh [runs-per-set] [workload ...] > benchmark/AA.md
#
# Every workload (or the ones named) is run `runs-per-set` times (default
# 10) in each of two sets, in the order A B B A A B B A ..., untraced, for
# `run_seconds` of BENCHMARK.json. Run i of either set uses seed i, so the
# sets see the same ten inputs. For every workload × end-to-end metric it
# prints both medians, the quartiles, the spread (Q3 − Q1) ÷ median of
# each set against the metric's bound, and the gap between the two medians
# against the same bound. It exits non-zero when a spread or a gap exceeds
# its bound, when a run reports a failed operation, or when the counters
# of two runs of one seed differ. The last column holds the same spreads
# and gap against the bound issue 14 asked for, which is tighter than the
# one BENCHMARK.json declares; it does not change the exit code.
# Raw outputs are kept under benchmark/out/aa/.

set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/.." && pwd)"
cd "$ROOT"

RUNS=10
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
  RUNS="$1"
  shift
fi
if [ "$RUNS" -lt 2 ]; then
  echo "aa.sh: quartiles need at least 2 runs per set" >&2
  exit 2
fi
WORKLOADS=("$@")
if [ "${#WORKLOADS[@]}" -eq 0 ]; then
  mapfile -t WORKLOADS < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

LOGS="$HERE/out/aa"
rm -rf "$LOGS"
mkdir -p "$LOGS"

for w in "${WORKLOADS[@]}"; do
  for ((i = 1; i <= RUNS; i++)); do
    # A B B A A B B A ...: neither set always runs first.
    if (((i % 2) == 1)); then order="A B"; else order="B A"; fi
    for set in $order; do
      echo "aa.sh: $w set $set seed $i" >&2
      bash "$HERE/run.sh" --workload "$w" --seed "$i" --seconds "$SECONDS_PER_RUN" --trace 0 \
        >"$LOGS/$w.$set.$i.log"
    done
  done
done

python3 - "$LOGS" "$RUNS" "${WORKLOADS[@]}" <<'PY'
import json
import os
import statistics
import sys

logs, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
metrics = spec["end_to_end"]
failures = []
# What issue 14 asked the bounds to be (README, "Noise").
ISSUE_BOUNDS = {"setup_s": 0.10, "answer_s": 0.10, "work_per_s": 0.10, "peak_rss_mib": 0.05}
issue_misses = 0


def read(workload, which, i):
    lines = open(os.path.join(logs, f"{workload}.{which}.{i}.log")).read().splitlines()
    result = json.loads(lines[-1])
    counters = next(l for l in lines if l.startswith("counters "))[len("counters "):]
    return result, counters


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


nproc = os.cpu_count()
mem_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
print("# A/A check of the benchmark")
print()
print(f"Two interleaved sets of {runs} untraced runs per workload on one commit, "
      f"`--seconds {spec['run_seconds']}`, seeds 1..{runs} in both sets; "
      f"host: {nproc} cores, {mem_gib:.1f} GiB RAM.")
print()
print("`spread` is (Q3 − Q1) ÷ median of a set's values; `gap` is how much worse set B's "
      "median is than set A's (negative: better). Both are shares of the median and are "
      "held to the metric's `bound`; the aim for a spread is a third of it.")
print()
print("| workload | metric | median A | Q1..Q3 A | spread A | median B | Q1..Q3 B | spread B | gap B vs A | bound | verdict | issue's bound |")
print("|---|---|---|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    results = {}
    for which in "AB":
        results[which] = []
        for i in range(1, runs + 1):
            result, counters = read(w, which, i)
            results[which].append((result, counters))
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{w} set {which} seed {i}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
    for i, (a, b) in enumerate(zip(results["A"], results["B"]), start=1):
        if a[1] != b[1]:
            failures.append(f"{w} seed {i}: counters differ between the sets")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        stats = {}
        for which in "AB":
            values = [r["metrics"][name]["value"] for r, _ in results[which]]
            q1, q2, q3 = quartiles(values)
            stats[which] = (q1, q2, q3, (q3 - q1) / q2)
        med_a, med_b = stats["A"][1], stats["B"][1]
        gap = (med_b - med_a) / med_a
        if m["better"] == "higher":
            gap = -gap
        verdict = "ok"
        worst_spread = max(stats["A"][3], stats["B"][3])
        if worst_spread > bound:
            verdict = "SPREAD OVER BOUND"
        elif abs(gap) > bound:
            verdict = "GAP OVER BOUND"
        elif worst_spread > bound / 3:
            verdict = "ok (spread over a third of bound)"
        if verdict.isupper():
            failures.append(f"{w}/{name}: {verdict.lower()}")
        cells = [w, f"`{name}`"]
        for which in "AB":
            q1, q2, q3, spread = stats[which]
            cells += [f"{q2:.6g}", f"{q1:.6g}..{q3:.6g}", f"{100 * spread:.2f}%"]
        asked = ISSUE_BOUNDS[name]
        met = worst_spread <= asked and abs(gap) <= asked
        issue_misses += not met
        cells += [f"{100 * gap:+.2f}%", f"{100 * bound:.0f}%", verdict,
                  f"{100 * asked:.0f}%: {'met' if met else 'NOT MET'}"]
        print("| " + " | ".join(cells) + " |")
print()
print(f"Counters compared between the two runs of each seed: "
      f"{'all equal' if not any('counters' in f for f in failures) else 'DIFFERENT'}.")
print()
print(f"Against the bounds issue 14 asked for, {issue_misses} of {len(workloads) * len(metrics)} "
      f"rows are not met.")
if failures:
    print()
    print("Failures:")
    for f in failures:
        print(f"- {f}")
    sys.exit(1)
print()
print("Every spread and every gap is within its bound.")
PY
