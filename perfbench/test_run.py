#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The C++ measurement code (percentile rule, heap baseline subtraction,
fingerprint order-insensitivity, closing-event attribution) is tested by
perfbench_selftest, which these tests build and run.
"""

import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def run_py(args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def has_json_line(stdout):
    return any(line.startswith("{") for line in stdout.splitlines())


class ArgumentTest(unittest.TestCase):
    BAD = [
        [],
        ["--workload", "nope", "--seconds", "1", "--trace", "0"],
        ["--workload", "paper_dense", "--seconds", "0", "--trace", "0"],
        ["--workload", "paper_dense", "--seconds", "x", "--trace", "0"],
        ["--workload", "paper_dense", "--seconds", "1", "--trace", "2"],
        ["--workload", "paper_dense", "--seconds", "1", "--trace", "0",
         "--seed", "-3"],
        ["--workload", "paper_dense", "--seconds", "1", "--trace", "0",
         "--seed", "1.5"],
        ["--workload", "paper_dense", "--seconds", "1", "--trace", "0",
         "--bogus", "1"],
        # No prefix matching: --work is not --workload.
        ["--work", "paper_dense", "--seconds", "1", "--trace", "0"],
    ]

    def test_run_py_rejects_bad_arguments(self):
        for args in self.BAD:
            with self.subTest(args=args):
                result = run_py(args)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertFalse(has_json_line(result.stdout))

    def test_default_seed(self):
        args = run.parse_args(["--workload", "fleet_sharded", "--seconds",
                               "3", "--trace", "1"])
        self.assertEqual(args.seed, run.DEFAULT_SEED)
        self.assertNotEqual(run.DEFAULT_SEED, run.HOLDOUT_SEED)


class BuiltTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = ROOT / ".bench_build" / "perfbench"
        cls.binary = run.build(cls.build_dir)
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def test_selftest(self):
        result = subprocess.run([str(self.build_dir / "perfbench_selftest")],
                                capture_output=True, text=True, timeout=300)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_binary_rejects_bad_arguments(self):
        good = ["--workload", "paper_dense", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--work-dir", ".bench_work",
                "--out-dir", ".bench_out"]
        cases = [
            good[:-2],                       # --out-dir missing
            good[:1],                        # value missing
            good[:1] + ["nope"] + good[2:],  # unknown workload
            good[:3] + ["1x"] + good[4:],    # trailing garbage in --seed
            good[:5] + ["0"] + good[6:],     # --seconds 0
            good[:7] + ["3"] + good[8:],     # --trace 3
            good + ["--extra", "1"],
        ]
        for args in cases:
            with self.subTest(args=args):
                result = subprocess.run([str(self.binary)] + args, cwd=ROOT,
                                        capture_output=True, text=True,
                                        timeout=60)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertEqual(result.stdout, "")


class LoneCheckoutTest(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        # Only BENCHMARK.json and perfbench/: the build must fail, fast,
        # and print no result.
        lone = ROOT / ".bench_build" / "lone_checkout"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(BENCH_DIR, lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
        try:
            result = run_py(["--workload", "paper_dense", "--seconds", "1",
                             "--trace", "0"], cwd=lone,
                            script=lone / "perfbench" / "run.py")
            self.assertNotEqual(result.returncode, 0)
            self.assertFalse(has_json_line(result.stdout))
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
