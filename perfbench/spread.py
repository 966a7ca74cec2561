#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ...

Each run is an untraced run of BENCHMARK.json's run_seconds. For every
metric it prints the median over the runs and the quartile spread,
(Q3 - Q1) / median with Python's statistics.quantiles(values, n=4): the
figure the benchmark's end-to-end bounds are checked against. Runs are
sequential. spread_test.py checks quartile_spread on hand-computed cases.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNNER = HERE / "run.py"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def quartile_spread(values):
    """(Q3 - Q1) / |median| of `values`; 0 for fewer than two or a zero median."""
    median = statistics.median(values) if values else 0
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args()
    seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUNNER), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)

    print(f"{'metric':32} {'median':>16} {'spread':>10}")
    for name in runs[0]:
        values = [run[name]["value"] for run in runs]
        print(f"{name:32} {statistics.median(values):16.6g} {quartile_spread(values):10.4f}"
              f"  ({len(set(values))} distinct values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
