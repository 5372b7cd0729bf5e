#!/usr/bin/env python3
"""Smoke test of the VO benchmark.

Runs every workload briefly (run.py --smoke) in both trace modes on the
development and the held-out seed of manifest.json, and asserts that:

* the last line is the result object, correct, with no failed iteration;
* every end-to-end (--trace 0) or per-layer (--trace 1) metric that
  BENCHMARK.json names is printed, with the unit BENCHMARK.json gives;
* the driver's correctness checks and, when traced, its transparency
  checks passed;
* the workload parameters the driver ran match manifest.json.

It also checks that run.py fails without printing a result when the
library sources are missing. Run from anywhere:

    python3 vobench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(cwd, workload, seed, trace, env=None):
    return subprocess.run(
        [sys.executable, "vobench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.manifest = json.loads((BENCH_DIR / "manifest.json").read_text())

    def test_workloads_print_every_metric_and_pass_checks(self):
        seeds = self.manifest["seeds"]
        for workload in self.spec["workloads"]:
            name = workload["name"]
            for seed in (seeds["development"], seeds["held_out"]):
                for trace in (0, 1):
                    with self.subTest(workload=name, seed=seed, trace=trace):
                        self.check_run(name, seed, trace)

    def check_run(self, name, seed, trace):
        done = run_bench(ROOT, name, seed, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

        report = json.loads(
            next(line for line in lines if line.startswith("report "))[7:])
        self.assertEqual(report["violations"], 0)
        self.assertIs(report["digest_stable"], True)
        if trace:
            self.assertIs(report["traced_digest_matches"], True)
            self.assertEqual(report["shadow_mismatches"], 0)
            self.assertGreaterEqual(report["span_coverage"], 0.95)
        self.assertEqual(report["params"], self.manifest["workloads"][name])

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "vobench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = run_bench(tmp, "amp-steady", 1, 0, env=env)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
