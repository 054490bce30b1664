#!/usr/bin/env python3
"""Tests of compare.py (stdlib unittest; run: python3 test_compare.py)."""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "qps", "unit": "req/s", "better": "higher", "bound": 0.1},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}
QPS = BENCHMARK["end_to_end"][0]
P50 = BENCHMARK["end_to_end"][1]


def write_runs(root, qps, p50, trace=False):
    """One result file per run, seeds 1..n, in root/run<seed>/w.json."""
    for seed, (q, p) in enumerate(zip(qps, p50), start=1):
        d = os.path.join(root, f"run{seed:02d}")
        os.makedirs(d, exist_ok=True)
        name = "w.traced.json" if trace else "w.json"
        with open(os.path.join(d, name), "w") as fh:
            json.dump({"workload": "w", "seed": seed, "trace": trace,
                       "metrics": {"qps": {"value": q, "unit": "req/s"},
                                   "p50_ms": {"value": p, "unit": "ms"}}},
                      fh)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, med, q3 = compare.quartiles(v)
        self.assertEqual([q1, med, q3], statistics.quantiles(v, n=4))

    def test_single_value(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(compare.spread([7.0]), 0.0)


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_ok(self):
        self.assertEqual(compare.verdict([100, 101, 99], [95, 96, 94], QPS)[0],
                         "ok")

    def test_worse_beyond_bound_is_regression(self):
        self.assertEqual(compare.verdict([100, 101, 99], [80, 81, 79], QPS)[0],
                         "REGRESSION")
        self.assertEqual(compare.verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19],
                                         P50)[0], "REGRESSION")

    def test_direction_follows_better(self):
        # A higher p50 is worse; a higher qps is better.
        self.assertEqual(compare.verdict([1.0, 1.01, 0.99], [0.8, 0.81, 0.79],
                                         P50)[0], "better")
        self.assertEqual(compare.verdict([100, 101, 99], [130, 131, 129],
                                         QPS)[0], "better")

    def test_wide_base_spread_is_unresolved(self):
        base = [60, 100, 140, 80, 120]
        self.assertGreater(compare.spread(base), QPS["bound"])
        self.assertEqual(compare.verdict(base, [70, 75, 72], QPS)[0],
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = [60, 100, 140, 80, 120]
        self.assertEqual(compare.verdict(base, [150, 160, 155], QPS)[0],
                         "better")


class ClaimTest(unittest.TestCase):
    def runs(self, values):
        return [{"seed": s, "metrics": {"qps": {"value": v}}}
                for s, v in enumerate(values, start=1)]

    def test_met(self):
        base = self.runs([100 + (i % 3) for i in range(10)])
        new = self.runs([120 + (i % 3) for i in range(10)])
        met, _ = compare.claim(base, new, QPS)
        self.assertTrue(met)

    def test_needs_ten_pairs(self):
        met, why = compare.claim(self.runs([100] * 9), self.runs([120] * 9),
                                 QPS)
        self.assertFalse(met)
        self.assertIn("10", why)

    def test_needs_nine_in_ten_wins(self):
        base = self.runs([100] * 10)
        new = self.runs([120] * 8 + [90, 90])
        met, why = compare.claim(base, new, QPS)
        self.assertFalse(met)
        self.assertIn("won 8 of 10", why)

    def test_ties_count_for_neither(self):
        base = self.runs([100] * 10)
        new = self.runs([120] * 8 + [100, 100])
        self.assertFalse(compare.claim(base, new, QPS)[0])

    def test_gap_must_exceed_base_quartile_distance(self):
        base = self.runs([90, 95, 100, 105, 110, 90, 95, 100, 105, 110])
        new = self.runs([v + 1 for v in
                         [90, 95, 100, 105, 110, 90, 95, 100, 105, 110]])
        met, why = compare.claim(base, new, QPS)
        self.assertFalse(met)
        self.assertIn("quartile distance", why)

    def test_pairs_by_seed(self):
        base = self.runs([100] * 10)
        new = list(reversed(self.runs([120] * 10)))
        self.assertEqual(len(compare.pairs_by_seed(base, new, "qps")), 10)


class CliTest(unittest.TestCase):
    def run_main(self, base_qps, new_qps, extra=()):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as fh:
                json.dump(BENCHMARK, fh)
            base = os.path.join(tmp, "base")
            new = os.path.join(tmp, "new")
            write_runs(base, base_qps, [1.0] * len(base_qps))
            write_runs(new, new_qps, [1.0] * len(new_qps))
            # Traced results next to the untraced ones must be ignored.
            write_runs(new, [1.0] * len(new_qps), [9.0] * len(new_qps),
                       trace=True)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main([base, new, "--benchmark", bench,
                                     *extra])
            return code, out.getvalue()

    def test_no_regression_exits_zero(self):
        code, text = self.run_main([100, 101, 99], [99, 100, 98])
        self.assertEqual(code, 0, text)
        self.assertIn("ok", text)

    def test_regression_exits_one(self):
        code, text = self.run_main([100, 101, 99], [70, 71, 69])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", text)

    def test_claim_reported(self):
        code, text = self.run_main([100] * 10, [130] * 10,
                                   ["--claim", "w:qps"])
        self.assertEqual(code, 0, text)
        self.assertIn("claim w:qps: met", text)


if __name__ == "__main__":
    unittest.main()
