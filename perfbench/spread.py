#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and set-to-set drift.

Usage, from the repository root:

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--sets N] [--seconds S]

Runs `perfbench/run.py` once per seed and prints, for every end-to-end
metric, the median of the runs and the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of that
median, next to the metric's bound from BENCHMARK.json: "steady" under a
third of the bound, "within" under the bound, "WIDE" above it. With
`--sets N` it runs N sets back to back, each on the next block of seeds
(1-10, 11-20, ...), and prints how far each later set's median moved
from the first set's in the metric's worse direction: "agree" when that
is within the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload, seed_list, seconds):
    """The end-to-end metrics of one run per seed, or None on a failure."""
    runs = []
    for seed in seed_list:
        command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(command, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return None
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
            return None
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        line = " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items())
        print(f"seed {seed}: ops={result['attempted']} {line}", flush=True)
    return runs


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    first = seeds(args.seeds)
    medians = []
    for k in range(args.sets):
        seed_list = [s + k * len(first) for s in first]
        print(f"set {k + 1}: seeds {seed_list[0]}-{seed_list[-1]}", flush=True)
        runs = run_set(args.workload, seed_list, args.seconds)
        if runs is None:
            return 1
        print(f"{'metric':18} {'median':>10} {'spread':>8} {'bound':>6}  verdict")
        set_medians = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"{name:18} {median:10.4g} {spread:8.3f} {bound:6.2f}  {verdict}", flush=True)
            set_medians[name] = median
        medians.append(set_medians)

    for k in range(1, len(medians)):
        print(f"set {k + 1} against set 1 (positive = worse)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = medians[0][name], medians[k][name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            print(f"{name:18} {a:10.4g} {b:10.4g} {worse:+8.3f} {bound:6.2f}  "
                  f"{'agree' if worse <= bound else 'DRIFT'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
