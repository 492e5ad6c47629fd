#!/usr/bin/env python3
"""Session-level benchmark of the factor-window engine.

Builds the benchmark (perfbench/CMakeLists.txt, compiling the
library from ../src) into .bench_build/perfbench, runs one workload, and
prints every metric by name with its unit. The last line of standard
output is one JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

A header line above it names the workload and the seed.

Run from the repository root:

    python3 perfbench/run.py --workload paper_dense --seed 1 \
        --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
runs the traced per-layer ledger and writes its spans to .bench_out/.
Exit codes: 0 success, 1 a correctness or operation failure (the JSON
line is still printed), 2 bad arguments, 3 the build failed. See
perfbench/README.md for the workloads, metrics and seeds.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_dense", "fleet_sharded", "durable_churn")
DEFAULT_SEED = 1
HOLDOUT_SEED = 1009
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Session-level benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in 1..600")
    return args


def build(build_dir):
    """Configures and builds the benchmark; returns its path or None."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        result = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if result.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
        stdout=log, stderr=log)
    if result.returncode != 0:
        return None
    return build_dir / "perfbench"


def main(argv):
    args = parse_args(argv)
    binary = build(ROOT / ".bench_build" / "perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    work_dir = ROOT / ".bench_work"
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work_dir),
             "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
