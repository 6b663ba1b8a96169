"""Self-tests of the benchmark driver (run.py) and of BENCHMARK.json.

Run with `python3 perfbench/run.py --selftest`, or alone with
`python3 -m unittest discover -s perfbench/tests`.
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def cpp_table(name):
    """(name, unit) rows of a MetricDef table in harness.hpp."""
    text = (HERE.parent / "harness.hpp").read_text()
    block = re.search(name + r"\[\] = \{(.*?)\n\};", text, re.S).group(1)
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', block)


def metric(value, unit="s"):
    return {"value": value, "unit": unit}


class ValidateTest(unittest.TestCase):
    expected = {"plan_s": "s", "replay_qps": "queries/s"}

    def test_good_metrics_pass(self):
        metrics = {"plan_s": metric(0.5),
                   "replay_qps": metric(1e6, "queries/s")}
        self.assertEqual(run.validate(metrics, self.expected, True), [])

    def test_bad_name_and_missing_unit(self):
        metrics = {"plan_s": {"value": 0.5},
                   "replay qps": metric(1.0, "queries/s")}
        problems = run.validate(metrics, self.expected, True)
        self.assertTrue(any("bad metric name" in p for p in problems))
        self.assertTrue(any("missing or bad unit" in p for p in problems))
        self.assertTrue(any("missing metric replay_qps" in p
                            for p in problems))

    def test_unit_mismatch_zero_and_nan(self):
        metrics = {"plan_s": metric(0.0, "ms"),
                   "replay_qps": metric(float("nan"), "queries/s")}
        problems = run.validate(metrics, self.expected, True)
        self.assertTrue(any("expected 's'" in p for p in problems))
        self.assertTrue(any("non-finite" in p for p in problems))
        metrics["plan_s"] = metric(0.0)
        self.assertTrue(any("value is 0" in p for p in
                            run.validate(metrics, self.expected, True)))
        # Per-layer values may be 0 (a layer the workload never runs).
        metrics["replay_qps"] = metric(1.0, "queries/s")
        self.assertEqual(run.validate(metrics, self.expected, False), [])

    def test_overhead_is_traced_minus_untraced(self):
        untraced = {"metrics": {name: metric(1.0) for name in run.OVERHEAD}}
        traced = {"metrics": {name: metric(1.25) for name in run.OVERHEAD}}
        traced["metrics"]["lp.solve_s"] = metric(0.0)
        result = run.per_layer_result(untraced, traced)
        self.assertEqual(result["overhead.plan_s"]["value"], 0.25)
        self.assertIn("lp.solve_s", result)
        self.assertNotIn("plan_s", result)


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(tuple(names), run.WORKLOADS)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_every_metric_has_name_unit_direction(self):
        seen = set()
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                self.assertRegex(m["name"], run.NAME_RE)
                self.assertRegex(m["unit"], run.UNIT_RE)
                self.assertIn(m["better"], ("higher", "lower"))
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = bounds.pop("setup_s")
        self.assertTrue(all(b < setup for b in bounds.values()))

    def test_matches_program_tables(self):
        e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        self.assertEqual(e2e, cpp_table("kEndToEnd"))
        units = dict(e2e)
        per_layer = cpp_table("kPerLayer") + [
            ("overhead." + name, units[name]) for name in run.OVERHEAD]
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         per_layer)


if __name__ == "__main__":
    unittest.main()
