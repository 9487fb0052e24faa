#!/usr/bin/env python3
"""Parent-vs-change comparator for the tcbench benchmark.

Run alternating pairs (parent first on even pairs, change first on odd
ones) from two checkouts, then judge them:

    python3 tcbench/compare.py run --parent ../parent --change . \\
        --pairs 10 --out pairs.json
    python3 tcbench/compare.py judge pairs.json

`judge` applies the rules of the benchmark to every (end-to-end metric,
workload) pair, using the bounds in BENCHMARK.json:

* gain: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the parent's interquartile range;
* regression: the change's median is worse than the parent's by more than
  the metric's bound;
* unresolved: the parent's own spread (IQR / median) exceeds the bound, so
  a regression cannot be ruled out -- unless every change run is better
  than every parent run;
* otherwise: no regression.

It also compares the failed-operation shares of the two sides; a change
that fails more operations gets no gain. When any run of a workload, on
either side, failed its output checks (`correct` false), every pair of that
workload is judged "incorrect". `judge` exits 1 when any pair is incorrect,
regressed or is unresolved. Pair i runs with seed 1000 + i; every workload
in the change's BENCHMARK.json is run, and `judge` takes the bounds from
the BENCHMARK.json next to this directory.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
SEED_BASE = 1000
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """First quartile, median and third quartile (statistics.quantiles,
    exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def judge_metric(parent, change, direction, bound):
    """Verdict for one (metric, workload) pair over paired runs."""
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    if len(parent) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, got {len(parent)}")
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    gap = (pmed - cmed) if direction == "lower" else (cmed - pmed)
    iqr = p3 - p1
    worse_share = -gap / pmed if pmed else 0.0
    spread = iqr / pmed if pmed else 0.0
    out = {
        "parent_median": pmed,
        "change_median": cmed,
        "parent_iqr": iqr,
        "wins": wins,
        "pairs": len(parent),
        "worse_share": worse_share,
        "bound": bound,
    }
    if wins >= WIN_SHARE * len(parent) and gap > iqr:
        out["verdict"] = "gain"
    elif spread > bound:
        all_better = all(better(c, p, direction)
                         for c in change for p in parent)
        out["verdict"] = "better (every run)" if all_better else "unresolved"
    elif worse_share > bound:
        out["verdict"] = "regression"
    else:
        out["verdict"] = "no regression"
    return out


def judge(runs, benchmark):
    """runs: {workload: {"parent": [result...], "change": [result...]}},
    results as the benchmark prints them (index i of each side is pair i).
    Returns (rows, ok)."""
    rows = []
    ok = True
    for workload, sides in sorted(runs.items()):
        parent, change = sides["parent"], sides["change"]
        failed_share = {}
        for side, results in (("parent", parent), ("change", change)):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            failed_share[side] = failed / attempted if attempted else 0.0
        more_failures = failed_share["change"] > failed_share["parent"]
        incorrect = not all(r["correct"] for r in parent + change)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = judge_metric([r["metrics"][name]["value"] for r in parent],
                               [r["metrics"][name]["value"] for r in change],
                               metric["better"], metric["bound"])
            if incorrect:
                row["verdict"] = "incorrect"
            elif row["verdict"] == "gain" and more_failures:
                row["verdict"] = "no gain (more failed operations)"
            row.update(workload=workload, metric=name,
                       failed_share=failed_share)
            ok = ok and row["verdict"] not in ("incorrect", "regression",
                                               "unresolved")
            rows.append(row)
    return rows, ok


def run_pairs(parent, change, pairs, seconds, workloads):
    """Alternating pairs from two checkouts; seeds differ per pair."""
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for workload in workloads:
            for side, root in order:
                proc = subprocess.run(
                    [sys.executable, "tcbench/run.py", "--workload", workload,
                     "--seed", str(SEED_BASE + i), "--seconds", str(seconds),
                     "--trace", "0"],
                    cwd=root, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if not lines:
                    raise RuntimeError(f"{side} {workload} pair {i}: no result"
                                       f"\n{proc.stderr[-2000:]}")
                runs[workload][side].append(json.loads(lines[-1]))
    return runs


def main():
    parser = argparse.ArgumentParser(description="parent-vs-change comparator")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run alternating pairs")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--out", required=True)
    jud = sub.add_parser("judge", help="judge recorded pairs")
    jud.add_argument("pairs")
    args = parser.parse_args()

    if args.cmd == "run":
        if args.pairs < MIN_PAIRS:
            parser.error(f"--pairs must be at least {MIN_PAIRS}")
        benchmark = json.loads(
            (Path(args.change) / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in benchmark["workloads"]]
        runs = run_pairs(args.parent, args.change, args.pairs,
                         benchmark["run_seconds"], workloads)
        Path(args.out).write_text(json.dumps(runs, indent=1))
        return 0

    benchmark = json.loads(BENCHMARK.read_text())
    rows, ok = judge(json.loads(Path(args.pairs).read_text()), benchmark)
    print(f"{'workload':14} {'metric':20} {'parent':>12} {'change':>12} "
          f"{'wins':>6} {'worse':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:14} {r['metric']:20} "
              f"{r['parent_median']:12.5g} {r['change_median']:12.5g} "
              f"{r['wins']:>3}/{r['pairs']:<2} {r['worse_share']:7.3f} "
              f"{r['bound']:6.2f}  {r['verdict']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
