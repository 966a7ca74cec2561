#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. The first call configures and builds the
simulator and the benchmark (Release, at most 4 compile jobs) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
re-check the configuration and rebuild only what changed. Build output goes
to stderr. The arithmetic self-test runs before every benchmark run. The
benchmark's stdout passes through unchanged, so its last line is the JSON
result; traced runs also write their spans to the build directory. The exit
status is the benchmark's, or non-zero without a result when building or the
self-test fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet-attest", "pal-sessions", "vtpm-tenants")
BUILD_JOBS = "4"


def build(source: Path, build_dir: Path) -> bool:
    steps = [
        ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", BUILD_JOBS,
         "--target", "perfbench", "perfbench_selftest"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(source, build_dir):
        return 2
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: arithmetic self-test failed", file=sys.stderr)
        return 2

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace == 1:
        command += ["--spans_out",
                    str(build_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
