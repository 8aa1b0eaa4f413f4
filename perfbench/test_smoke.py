#!/usr/bin/env python3
"""Smoke-size checks of the benchmark itself. Run from the checkout root:

    python3 perfbench/test_smoke.py

Takes about a minute after the first build: every declared metric is
emitted with its declared unit, the known-answer gate trips on a wrong
expected state count, and the benchmark refuses to run without the
repository's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench


def run(args, cwd=ROOT):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, result, p.stdout + p.stderr


class Smoke(unittest.TestCase):
    def assert_metrics(self, result, specs):
        want = {m["name"]: m["unit"] for m in specs}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_end_to_end_metrics_emitted(self):
        for w in declared()["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result, out = run(["--workload", w["name"], "--seed", "1",
                                       "--seconds", "1", "--trace", "0"])
                self.assertEqual(rc, 0, out)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, declared()["end_to_end"])

    def test_per_layer_metrics_emitted(self):
        rc, result, out = run(["--workload", "design_par", "--seed", "2",
                               "--seconds", "1", "--trace", "1", "--smoke"])
        self.assertEqual(rc, 0, out)
        self.assertTrue(result["correct"])
        self.assert_metrics(result, declared()["per_layer"])
        self.assertEqual(result["metrics"]["failed_frac"]["value"], 0)

    def test_known_answer_gate_trips(self):
        rc, result, out = run(["--workload", "relay_par", "--seed", "1",
                               "--seconds", "1", "--trace", "0",
                               "--expect-states", "1188099"])
        self.assertNotEqual(rc, 0, out)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("MISMATCH", out)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in declared()["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            rc, result, out = run(["--workload", "relay_par", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=bare)
            self.assertNotEqual(rc, 0, out)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
