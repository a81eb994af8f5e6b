"""Tests of run.py's result checks and of BENCHMARK.json itself.

    python3 -m unittest discover -s perfbench/tests       # from the repo root

The end-to-end case (every workload, both modes, emits exactly the metric
set BENCHMARK.json declares) builds and runs the benchmark, a few
minutes on four cores; it runs only with PERFBENCH_E2E=1.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_with(metrics, **over):
    r = {"correct": True, "attempted": 3, "failed": 0,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                     metrics.items()}}
    r.update(over)
    return r


class Validate(unittest.TestCase):
    expected = {"setup_s": "s", "work_per_s": "1/s"}

    def test_exact_set_passes(self):
        r = result_with({"setup_s": (0.5, "s"), "work_per_s": (10.0, "1/s")})
        self.assertEqual(run.validate(r, self.expected), [])

    def test_missing_and_extra_metrics_fail(self):
        r = result_with({"setup_s": (0.5, "s"), "other": (1.0, "s")})
        problems = run.validate(r, self.expected)
        self.assertTrue(any("missing metrics: work_per_s" in p
                            for p in problems))
        self.assertTrue(any("undeclared metrics: other" in p
                            for p in problems))

    def test_unit_zero_and_nonfinite_values_fail(self):
        r = result_with({"setup_s": (0.0, "s"),
                         "work_per_s": (float("nan"), "ops")})
        problems = run.validate(r, self.expected)
        self.assertTrue(any("setup_s: value is 0" in p for p in problems))
        self.assertTrue(any("not a finite number" in p for p in problems))
        self.assertTrue(any("unit 'ops'" in p for p in problems))

    def test_result_keys_and_counts(self):
        r = result_with({"setup_s": (1.0, "s"), "work_per_s": (1.0, "1/s")})
        r["extra"] = 1
        self.assertTrue(run.validate(r, self.expected))
        r = result_with({"setup_s": (1.0, "s"), "work_per_s": (1.0, "1/s")},
                        attempted=0)
        self.assertTrue(any("at least 1" in p
                            for p in run.validate(r, self.expected)))


class BenchmarkFile(unittest.TestCase):
    def test_names_units_and_limits(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in b[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


@unittest.skipUnless(os.environ.get("PERFBENCH_E2E") == "1",
                     "set PERFBENCH_E2E=1 to build and run every workload")
class EveryWorkloadEmitsTheDeclaredSet(unittest.TestCase):
    def test_both_modes(self):
        b = load_benchmark()
        for trace in (0, 1):
            expected = set(run.declared(b, trace))
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    p = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", w,
                         "--seed", "1", "--seconds", "1", "--trace",
                         str(trace)],
                        cwd=ROOT, capture_output=True, text=True,
                        timeout=900)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    result = json.loads(p.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]), expected)


if __name__ == "__main__":
    unittest.main()
