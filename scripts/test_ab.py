#!/usr/bin/env python3
"""Tests for ab.py: its statistics and verdicts on synthetic runs, and the
plumbing that needs no benchmark run (schedule, build step, result line).

    python3 scripts/test_ab.py
"""

import io
import json
import os
import tempfile
import unittest

import ab

BENCH = {
    "command": ["cargo", "run", "--release", "--manifest-path", "perfbench/Cargo.toml", "--"],
    "run_seconds": 55,
    "workloads": [{"name": "paper"}, {"name": "edge"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "max_rate_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def run(correct=True, attempted=100, failed=0, **metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


def pairs(base, change, name="setup_s"):
    return [(run(**{name: b}), run(**{name: c})) for b, c in zip(base, change)]


def verdict(base, change, better="lower", bound=0.25):
    return ab.compare(pairs(base, change), "setup_s", better, bound)


class StatisticsTest(unittest.TestCase):
    def test_quartiles_interpolate(self):
        self.assertEqual(ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_counts_and_ratio(self):
        row = verdict([10, 10, 10, 10], [5, 10, 20, 4])
        self.assertEqual((row["wins"], row["ties"], row["losses"]), (2, 1, 1))
        self.assertEqual(row["ratio"], 0.75)  # median of 0.5, 1, 2, 0.4
        self.assertEqual(row["n"], 4)

    def test_higher_is_better_flips_the_sign(self):
        row = ab.compare(pairs([100] * 10, [130] * 9 + [90], "max_rate_rps"),
                         "max_rate_rps", "higher", 0.25)
        self.assertEqual((row["wins"], row["losses"]), (9, 1))
        self.assertEqual(row["verdict"], "gain")

    def test_zero_base_ratio(self):
        self.assertEqual(ab.ratio(0, 0), 1.0)
        self.assertEqual(ab.ratio(1, 0), float("inf"))

    def test_missing_metric_is_skipped(self):
        self.assertIsNone(ab.compare(pairs([1], [1]), "absent", "lower", 0.1))

    def test_a_pair_without_the_change_value_counts_as_lost(self):
        runs = pairs([0.2] * 10, [0.03] * 10)
        runs[3] = (runs[3][0], {"error": "exit 101: panicked"})
        row = ab.compare(runs, "setup_s", "lower", 0.25)
        self.assertEqual((row["n"], row["wins"], row["ties"], row["losses"]), (10, 9, 0, 1))


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_tenths_of_the_pairs(self):
        base = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
        self.assertEqual(verdict(base, [5] * 10)["verdict"], "gain")
        # 8/10 won: the same medians are no longer a gain.
        self.assertEqual(verdict(base, [5] * 8 + [20, 20])["verdict"], "unresolved")

    def test_gain_counts_the_pairs_whose_change_run_failed(self):
        # 9 of the 9 complete pairs won, but only 9 of the 10 pairs run, and
        # a second failed run leaves 8/10: no longer a gain.
        runs = pairs([10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [5] * 10)
        runs[0] = (runs[0][0], {"error": "exit 101: panicked"})
        self.assertEqual(ab.compare(runs, "setup_s", "lower", 0.25)["verdict"], "gain")
        runs[1] = (runs[1][0], {"error": "exit 101: panicked"})
        self.assertEqual(ab.compare(runs, "setup_s", "lower", 0.25)["verdict"], "unresolved")

    def test_gain_needs_a_gap_wider_than_the_base_iqr(self):
        # Every pair won, but by less than the base's own spread.
        base = [10, 20, 10, 20, 10, 20, 10, 20, 10, 20]
        change = [b - 1 for b in base]
        row = verdict(base, change)
        self.assertEqual(row["wins"], 10)
        self.assertNotEqual(row["verdict"], "gain")

    def test_regression_beyond_the_bound(self):
        self.assertEqual(verdict([10] * 10, [13] * 10)["verdict"], "regression")
        self.assertEqual(verdict([10] * 10, [12] * 10)["verdict"], "unchanged")
        row = ab.compare(pairs([100] * 10, [70] * 10, "max_rate_rps"),
                         "max_rate_rps", "higher", 0.25)
        self.assertEqual(row["verdict"], "regression")

    def test_identical(self):
        self.assertEqual(verdict([0.9] * 10, [0.9] * 10)["verdict"], "identical")

    def test_wide_spread_is_unresolved(self):
        base = [5, 15, 5, 15, 5, 15, 5, 15, 5, 15]
        change = [15, 5, 15, 5, 15, 5, 15, 5, 15, 5]
        self.assertEqual(verdict(base, change)["verdict"], "unresolved")


class PlumbingTest(unittest.TestCase):
    def test_schedule_alternates_and_seeds_each_pair(self):
        plan = ab.schedule(4, 100)
        self.assertEqual([seed for _, seed, _ in plan], [100, 101, 102, 103])
        self.assertEqual([order[0] for _, _, order in plan],
                         ["base", "change", "base", "change"])

    def test_build_command_drops_the_run_args(self):
        self.assertEqual(ab.build_command(BENCH["command"]),
                         ["cargo", "build", "--release", "--manifest-path",
                          "perfbench/Cargo.toml"])
        self.assertIsNone(ab.build_command(["./bench.sh"]))

    def test_result_line_is_the_last_json_line(self):
        out = "progress\nmeta {\"seed\":1}\n" + json.dumps(run(setup_s=1.0)) + "\n\n"
        self.assertEqual(ab.result_line(out)["metrics"]["setup_s"]["value"], 1.0)
        self.assertIsNone(ab.result_line("panicked\n"))
        self.assertIsNone(ab.result_line(""))

    def test_run_args(self):
        self.assertEqual(ab.run_args("edge", 7, 55),
                         ["--workload", "edge", "--seed", "7", "--seconds", "55"])


class ReportTest(unittest.TestCase):
    def records(self, change_failed=0, change_correct=True):
        out = []
        for pair in range(10):
            out.append({"workload": "paper", "pair": pair, "side": "base",
                        "result": run(setup_s=0.2 + pair * 0.001, max_rate_rps=100)})
            out.append({"workload": "paper", "pair": pair, "side": "change",
                        "result": run(correct=change_correct, failed=change_failed,
                                      setup_s=0.03, max_rate_rps=100)})
        return out

    def analyse(self, records):
        out = io.StringIO()
        return ab.analyse(records, BENCH, out), out.getvalue()

    def test_report_prints_each_metric_and_passes(self):
        ok, text = self.analyse(self.records())
        self.assertTrue(ok)
        self.assertIn("### paper: 10 pairs", text)
        self.assertIn("| 10/0/0 | gain |", text)
        self.assertIn("| 0/10/0 | identical |", text)
        self.assertNotIn("### edge", text)

    def test_a_rising_failed_share_or_a_failed_check_fails(self):
        self.assertFalse(self.analyse(self.records(change_failed=1))[0])
        self.assertFalse(self.analyse(self.records(change_correct=False))[0])

    def test_an_errored_change_run_is_a_lost_pair_and_fails_the_report(self):
        records = self.records()
        records[7]["result"] = {"error": "exit 101: panicked"}  # pair 3, change
        ok, text = self.analyse(records)
        self.assertFalse(ok)
        self.assertIn("| 9/0/1 | gain |", text)
        self.assertIn("runs failing their checks: base 0, change 1", text)

    def test_report_reads_a_raw_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            raw = os.path.join(tmp, "raw.jsonl")
            with open(raw, "w") as handle:
                for record in self.records():
                    handle.write(json.dumps(record) + "\n")
            ok, text = self.analyse(ab.read_raw(raw))
        self.assertTrue(ok)
        self.assertEqual(text, self.analyse(self.records())[1])


if __name__ == "__main__":
    unittest.main()
