"""Tests of the parent-vs-change comparator on synthetic runs.

    python3 -m unittest discover -s tcbench -p 'test_*.py'
"""

import unittest

import compare


def result(value, failed=0, attempted=100, name="latency", correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "ms"}}}


BENCH = {"end_to_end": [
    {"name": "latency", "unit": "ms", "better": "lower", "bound": 0.1}]}

PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


class JudgeMetricTest(unittest.TestCase):
    def test_clear_gain(self):
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(
            compare.judge_metric(PARENT, change, "lower", 0.1)["verdict"],
            "gain")

    def test_gain_needs_nine_of_ten_wins(self):
        change = [v * 0.8 for v in PARENT[:8]] + [120, 120]
        row = compare.judge_metric(PARENT, change, "lower", 0.1)
        self.assertEqual(row["wins"], 8)
        self.assertNotEqual(row["verdict"], "gain")

    def test_gain_needs_gap_beyond_parent_iqr(self):
        # Wins every pair, but by less than the parent's own spread.
        change = [v - 0.5 for v in PARENT]
        row = compare.judge_metric(PARENT, change, "lower", 0.1)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "no regression")

    def test_ties_count_for_neither_side(self):
        row = compare.judge_metric(PARENT, list(PARENT), "lower", 0.1)
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["verdict"], "no regression")

    def test_regression_beyond_bound(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(
            compare.judge_metric(PARENT, change, "lower", 0.1)["verdict"],
            "regression")

    def test_small_slowdown_within_bound(self):
        change = [v * 1.05 for v in PARENT]
        self.assertEqual(
            compare.judge_metric(PARENT, change, "lower", 0.1)["verdict"],
            "no regression")

    def test_higher_is_better(self):
        change = [v * 1.3 for v in PARENT]
        self.assertEqual(
            compare.judge_metric(PARENT, change, "higher", 0.1)["verdict"],
            "gain")
        self.assertEqual(
            compare.judge_metric(change, PARENT, "higher", 0.1)["verdict"],
            "regression")

    def test_wide_spread_is_unresolved(self):
        parent = [50, 150, 80, 120, 60, 140, 100, 90, 110, 100]
        change = [v * 1.05 for v in parent]
        self.assertEqual(
            compare.judge_metric(parent, change, "lower", 0.1)["verdict"],
            "unresolved")

    def test_wide_spread_but_every_run_better(self):
        # The parent's IQR (130) exceeds the median gap (~103), so no gain
        # is claimed, but no change run is worse than any parent run.
        parent = [100, 300, 120, 280, 140, 260, 160, 240, 180, 220]
        change = [95, 96, 97, 98, 99, 95, 96, 97, 98, 99]
        row = compare.judge_metric(parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "better (every run)")

    def test_needs_ten_pairs(self):
        with self.assertRaises(ValueError):
            compare.judge_metric(PARENT[:9], PARENT[:9], "lower", 0.1)


class JudgeTest(unittest.TestCase):
    def test_more_failures_cancel_a_gain(self):
        runs = {"w": {"parent": [result(v) for v in PARENT],
                      "change": [result(v * 0.8, failed=1) for v in PARENT]}}
        rows, ok = compare.judge(runs, BENCH)
        self.assertEqual(rows[0]["verdict"],
                         "no gain (more failed operations)")
        self.assertTrue(ok)

    def test_failed_output_check_makes_the_workload_incorrect(self):
        # A clear gain on the figures, but one change run failed its checks.
        change = [result(v * 0.8) for v in PARENT]
        change[3] = result(PARENT[3] * 0.8, correct=False)
        runs = {"w": {"parent": [result(v) for v in PARENT],
                      "change": change}}
        rows, ok = compare.judge(runs, BENCH)
        self.assertEqual(rows[0]["verdict"], "incorrect")
        self.assertFalse(ok)

    def test_failed_check_on_the_parent_side_counts_too(self):
        parent = [result(v) for v in PARENT]
        parent[0] = result(PARENT[0], correct=False)
        runs = {"w": {"parent": parent,
                      "change": [result(v) for v in PARENT]}}
        rows, ok = compare.judge(runs, BENCH)
        self.assertEqual(rows[0]["verdict"], "incorrect")
        self.assertFalse(ok)

    def test_regression_fails_the_comparison(self):
        runs = {"w": {"parent": [result(v) for v in PARENT],
                      "change": [result(v * 1.5) for v in PARENT]}}
        rows, ok = compare.judge(runs, BENCH)
        self.assertEqual(rows[0]["verdict"], "regression")
        self.assertFalse(ok)

    def test_each_workload_judged_on_its_own(self):
        runs = {"a": {"parent": [result(v) for v in PARENT],
                      "change": [result(v * 0.8) for v in PARENT]},
                "b": {"parent": [result(v) for v in PARENT],
                      "change": [result(v * 1.5) for v in PARENT]}}
        rows, ok = compare.judge(runs, BENCH)
        verdicts = {r["workload"]: r["verdict"] for r in rows}
        self.assertEqual(verdicts, {"a": "gain", "b": "regression"})
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()
