#!/usr/bin/env python3
"""The benchmark's own test: every workload end to end at toy size.

    python3 perfbench/test_perfbench.py      (from the root of a checkout)

For each workload it runs the smoke configuration untraced and traced on
one seed and checks that the result line has exactly the contract's keys,
that every metric BENCHMARK.json names is printed with its unit (end-to-end
metrics untraced, per-layer metrics traced), that no request failed
(failed_frac == 0) and every answer checked out, that end-to-end values are
never 0, and that the traced run's sampled answers are the untraced run's.
Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3
# Runnable by name but not listed in BENCHMARK.json (see README.md).
UNLISTED = ["table_serve"]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d failed (exit %d):\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # failed_frac == 0
        for metric in declared:
            printed = result["metrics"].get(metric["name"])
            self.assertIsNotNone(printed, metric["name"])
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_workloads(self):
        for workload in [w["name"] for w in self.spec["workloads"]] + UNLISTED:
            with self.subTest(workload=workload):
                info, result = run(workload, 0)
                self.check_metrics(result, self.spec["end_to_end"])
                for metric in self.spec["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][metric["name"]]["value"], 0,
                        metric["name"])
                self.assertEqual(info["workload"], workload)
                for key in ("nproc", "cpu_model", "l2", "l3", "build_type",
                            "phast_arch", "phast_tracing"):
                    self.assertIn(key, info["host"])
                for key in ("n", "m", "levels", "gplus_arcs"):
                    self.assertIn(key, info["instance"])
                self.assertEqual(info["mismatches"], 0)
                self.assertGreater(info["verified"], 0)

                traced_info, traced = run(workload, 1)
                self.check_metrics(traced, self.spec["per_layer"])
                self.assertIn("trace_overhead_frac", traced["metrics"])
                self.assertEqual(traced_info["answers_digest"],
                                 info["answers_digest"])


if __name__ == "__main__":
    unittest.main()
