#!/usr/bin/env python3
"""The benchmark's own test, at smoke sizes (a few seconds per run).

    python3 perfbench/test_perfbench.py

Checks that
  * every metric named in BENCHMARK.json is printed, with its unit, by
    the untraced (end-to-end) and the traced (per-layer) runs;
  * two runs at one seed print the same schedule digest and the same
    deterministic counts, and a held-out seed a different schedule that
    also passes every gate;
  * an answer perturbed through QueryService::Options::answer_tap makes
    the correctness gates fail, on every workload;
  * the summariser's self time subtracts exactly the covered part of a
    span.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import summarise  # noqa: E402

WORKLOADS = ("serving", "analytic", "churn")
SEED, HELD_OUT_SEED = 11, 12


def run(workload, seed, trace=0, fault=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--scale", "smoke"]
    if fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def deterministic(lines):
    """The schedule digest and the deterministic counts of a report."""
    return [l.strip() for l in lines
            if l.strip().startswith(("schedule_digest", "deterministic"))]


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in WORKLOADS:
            for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                code, lines, result = run(workload, SEED, trace)
                self.assertEqual(code, 0, lines[-5:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
                for m in wanted:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    printed = [l for l in lines[:-1] if l.split()[:1] == [m["name"]]]
                    self.assertEqual(len(printed), 1, m["name"])
                    self.assertEqual(printed[0].split()[-1], m["unit"])
                if trace == 0:
                    for m in wanted:
                        self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])


class DeterminismTest(unittest.TestCase):
    def test_counts_repeat_at_a_seed_and_a_held_out_seed_differs(self):
        for workload in WORKLOADS:
            first = run(workload, SEED)
            second = run(workload, SEED)
            other = run(workload, HELD_OUT_SEED)
            for code, lines, result in (first, second, other):
                self.assertEqual(code, 0, lines[-5:])
                self.assertTrue(result["correct"])
            self.assertTrue(deterministic(first[1]))
            self.assertEqual(deterministic(first[1]), deterministic(second[1]), workload)
            self.assertNotEqual(deterministic(first[1])[0], deterministic(other[1])[0], workload)


class FaultInjectionTest(unittest.TestCase):
    def test_a_perturbed_answer_fails_the_gates(self):
        for workload in WORKLOADS:
            code, lines, result = run(workload, SEED, fault=True)
            self.assertEqual(code, 1, workload)
            self.assertFalse(result["correct"], workload)
            self.assertTrue(any("GATE FAILED" in l for l in lines), workload)


class SummariseTest(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans = [
            {"name": "op", "id": 0, "parent": -1, "request": 0, "start_ns": 0, "end_ns": 100,
             "arg": 0, "label": ""},
            {"name": "a", "id": 1, "parent": 0, "request": 0, "start_ns": 10, "end_ns": 40,
             "arg": 0, "label": ""},
            {"name": "b", "id": 2, "parent": 0, "request": 0, "start_ns": 30, "end_ns": 60,
             "arg": 0, "label": ""},
            {"name": "c", "id": 3, "parent": 0, "request": 0, "start_ns": 90, "end_ns": 120,
             "arg": 0, "label": ""},
        ]
        selfs = summarise.self_times(spans)
        # Children cover [10, 60) and [90, 100) of the op's [0, 100).
        self.assertAlmostEqual(selfs[0], 40 / 1e6)
        self.assertAlmostEqual(selfs[1], 30 / 1e6)


if __name__ == "__main__":
    unittest.main(verbosity=2)
