#!/usr/bin/env python3
"""Tests of the benchmark itself: output shape, metric names, and a
ci-scale smoke run of every workload, traced and untraced.

    python3 perfbench/tests/test_perfbench.py

The traced smoke runs include the replay-fidelity gate, so a replay
that drifts from sim::System fails here. Seed 1 also checks every
simulation against perfbench/expected.txt. Takes about a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ["graph-sweep", "suite-thp", "tenant-node"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def drive(*args):
    """Run the built program; returns (returncode, stdout lines)."""
    done = subprocess.run([run.BINARY] + list(args), capture_output=True,
                          text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.spec = spec()
        cls.results = {}
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                code, lines = drive("--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", trace,
                                    "--scale", "ci")
                cls.results[(workload, trace)] = (code, lines)

    def test_metric_names(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)

    def test_output_shape(self):
        for (workload, trace), (code, lines) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed",
                                  "metrics"])
                section = "per_layer" if trace == "1" else "end_to_end"
                declared = self.spec[section]
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in declared])
                for m in declared:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(sorted(got), ["unit", "value"])
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))
                self.assertIsInstance(result["attempted"], int)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertTrue(any(line.startswith("conditions {")
                                    for line in lines))

    def test_smoke_runs_are_correct(self):
        # Untraced: invariants, round-to-round equality, expected values
        # and (graph-sweep) 2-worker == serial. Traced: the replay gate.
        for (workload, trace), (code, lines) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                result = json.loads(lines[-1])
                failures = [l for l in lines if l.startswith("FAILED")]
                self.assertEqual(result["failed"], 0, failures)
                self.assertTrue(result["correct"])

    def test_end_to_end_values_nonzero(self):
        for workload in WORKLOADS:
            result = json.loads(self.results[(workload, "0")][1][-1])
            for name, metric in result["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_bad_arguments_fail_without_result(self):
        for args in (["--workload", "nope"],
                     ["--workload", "graph-sweep", "--seed", "x"],
                     ["--workload", "graph-sweep", "--bogus", "1"]):
            with self.subTest(args=args):
                code, lines = drive(*args)
                self.assertNotEqual(code, 0)
                self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
