#!/usr/bin/env python3
"""Tests of perf_gate.verdict, the paired gate's decision rule.

    python3 tools/test_perf_gate.py
"""

import copy
import json
import os
import unittest

import perf_gate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCHMARK = {
    "workloads": [{"name": "run"}, {"name": "serve"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "requests_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "ok_frac", "unit": "ratio", "better": "higher",
         "bound": 0.01},
    ],
}


def result(wall_s=1.0, requests_per_s=10.0, correct=True, failed=0):
    values = {"wall_s": wall_s, "requests_per_s": requests_per_s,
              "ok_frac": 1.0}
    return {"correct": correct, "attempted": 20, "failed": failed,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def runs(**kwargs):
    return {w["name"]: [result(**kwargs) for _ in range(5)]
            for w in BENCHMARK["workloads"]}


class VerdictTest(unittest.TestCase):
    def decide(self, change, parent=None, benchmark=BENCHMARK):
        rows, failures = perf_gate.verdict(parent or runs(), change,
                                           benchmark)
        return {(r[0], r[1]): r for r in rows}, failures

    def test_identical_inputs_pass(self):
        rows, failures = self.decide(runs())
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 6)
        self.assertTrue(all(r[6] == 1.0 and r[7] == "ok"
                            for r in rows.values()))

    def test_identical_inputs_pass_on_the_repository_benchmark(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        metrics = {m["name"]: {"value": 1.0}
                   for m in benchmark["end_to_end"]}
        same = {w["name"]: [{"correct": True, "failed": 0,
                             "metrics": metrics}] * 5
                for w in benchmark["workloads"]}
        rows, failures = perf_gate.verdict(same, same, benchmark)
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), len(benchmark["workloads"]) *
                         len(benchmark["end_to_end"]))

    def test_lower_is_better_30_percent_worse_fails(self):
        rows, failures = self.decide(runs(wall_s=1.3))
        self.assertEqual(rows[("run", "wall_s")][7], "WORSE")
        self.assertEqual(len(failures), 2)
        self.assertIn("wall_s", failures[0])

    def test_requests_per_s_30_percent_lower_fails(self):
        rows, failures = self.decide(runs(requests_per_s=7.0))
        self.assertEqual(rows[("serve", "requests_per_s")][7], "WORSE")
        self.assertEqual(len(failures), 2)

    def test_20_percent_change_passes(self):
        for change in (runs(wall_s=1.2, requests_per_s=8.0),
                       runs(wall_s=0.8, requests_per_s=12.0)):
            self.assertEqual(self.decide(change)[1], [])

    def test_the_median_pair_decides(self):
        change = runs()
        change["run"][0] = result(wall_s=3.0)
        change["run"][1] = result(wall_s=3.0)
        self.assertEqual(self.decide(change)[1], [])
        change["run"][2] = result(wall_s=3.0)
        self.assertEqual(len(self.decide(change)[1]), 1)

    def test_incorrect_run_fails(self):
        change = runs()
        change["serve"][3] = result(correct=False)
        _, failures = self.decide(change)
        self.assertEqual(len(failures), 1)
        self.assertIn("serve change run 4", failures[0])

    def test_failed_operations_fail(self):
        parent = runs()
        parent["run"][0] = result(failed=1)
        _, failures = self.decide(runs(), parent=parent)
        self.assertEqual(len(failures), 1)
        self.assertIn("run parent run 1", failures[0])

    def test_run_without_a_result_line_fails(self):
        change = runs()
        change["run"][0] = {"correct": False, "error": "exit 1"}
        _, failures = self.decide(change)
        self.assertEqual(len(failures), 2)

    def test_new_workload_is_reported_and_not_compared(self):
        benchmark = copy.deepcopy(BENCHMARK)
        benchmark["workloads"].append({"name": "fresh"})
        change = runs()
        change["fresh"] = [result(wall_s=100.0)] * 5
        rows, failures = self.decide(change, benchmark=benchmark)
        self.assertEqual(failures, [])
        self.assertEqual(rows[("fresh", "")][7], "new")
        self.assertNotIn(("fresh", "wall_s"), rows)


if __name__ == "__main__":
    unittest.main()
