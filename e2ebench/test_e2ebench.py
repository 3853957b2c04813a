#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark in its tiny-scale smoke mode.

Run from the root of a source checkout (builds the benchmark on first use):

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

Checks that a clean run of every workload passes with zero failed
operations and prints every metric BENCHMARK.json names, with its unit,
and that an injected wrong body and a never-observed generation are each
counted as failed operations.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_bench(workload, trace="0", inject=None, seconds="1"):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", seconds,
               "--trace", trace, "--smoke"]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output; stderr:\n{done.stderr[-2000:]}")
    return done.returncode, json.loads(lines[-1]), done.stdout


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def assert_metrics(self, result, section):
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_clean_runs_pass_and_print_every_metric(self):
        for workload in self.workloads:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = run_bench(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, section)

    def test_wrong_body_is_counted(self):
        for workload in ("ingest-longtail", "serve-churn"):
            with self.subTest(workload=workload):
                code, result, out = run_bench(workload, inject="wrong-body")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("body differs from the reference render", out)

    def test_lost_generation_is_counted(self):
        for workload in ("ingest-head", "serve-churn"):
            with self.subTest(workload=workload):
                code, result, out = run_bench(workload,
                                              inject="lost-generation")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("was never observed", out)


if __name__ == "__main__":
    unittest.main()
