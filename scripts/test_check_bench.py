#!/usr/bin/env python3
"""Tests for check_bench.py: the committed datapoints pass, and each kind
of broken report is rejected with exit 1 and a message naming the gate.

    python3 scripts/test_check_bench.py
"""

import contextlib
import copy
import glob
import io
import json
import os
import tempfile
import unittest

import check_bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def committed(kind):
    with open(os.path.join(ROOT, f"BENCH_{kind}.json")) as handle:
        return json.load(handle)


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, report):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as handle:
            json.dump(report, handle)
        return path

    def run_check(self, kind, *paths):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = check_bench.main(["check_bench.py", kind, *paths])
        return code, err.getvalue()

    def assert_rejected(self, kind, report, names):
        code, err = self.run_check(kind, self.write("broken.json", report))
        self.assertEqual(code, 1, err)
        self.assertIn(names, err)

    def gate(self, report, name):
        return next(g for g in report["gates"] if g["name"] == name)

    def test_every_committed_report_passes(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        self.assertEqual(len(paths), len(check_bench.REQUIRED_GATES))
        for path in paths:
            with open(path) as handle:
                kind = json.load(handle)["bench"]
            code, err = self.run_check(kind, path)
            self.assertEqual(code, 0, f"{path}: {err}")

    def test_a_fresh_run_is_compared_with_the_committed_headline(self):
        for kind in ("serve", "online"):
            path = os.path.join(ROOT, f"BENCH_{kind}.json")
            code, err = self.run_check(kind, path, path)
            self.assertEqual(code, 0, err)

    def test_a_failing_gate_is_rejected(self):
        report = committed("serve")
        gate = self.gate(report, "requests_failed")
        gate["value"], gate["pass"] = 3, False
        self.assert_rejected("serve", report, "gate requests_failed failed")

    def test_a_pass_flag_that_disagrees_with_its_gate_is_rejected(self):
        report = committed("router")
        self.gate(report, "delta_max_ratio")["value"] = 0.5
        self.assert_rejected("router", report, "gate delta_max_ratio says pass=True")

    def test_a_missing_required_gate_is_rejected(self):
        report = committed("fleet")
        report["gates"] = [g for g in report["gates"] if g["name"] != "promotions"]
        self.assert_rejected("fleet", report, "missing required gate(s) promotions")

    def test_a_null_value_fails_its_gate(self):
        report = committed("online")
        gate = self.gate(report, "train_wall_ms_min")
        gate["value"], gate["pass"] = None, False
        self.assert_rejected("online", report, "gate train_wall_ms_min failed")
        gate["pass"] = True
        self.assert_rejected("online", report, "gate train_wall_ms_min says pass=True")

    def test_a_headline_below_the_noise_floor_is_rejected(self):
        base = committed("online")
        fresh = copy.deepcopy(base)
        fresh["headline"]["value"] = base["headline"]["value"] * 0.4
        code, err = self.run_check(
            "online", self.write("fresh.json", fresh), self.write("committed.json", base)
        )
        self.assertEqual(code, 1, err)
        self.assertIn("headline warm_events_per_sec", err)

    def test_a_malformed_report_is_rejected(self):
        report = committed("train")
        report["extra"] = 1
        self.assert_rejected("train", report, "top-level keys")
        self.assert_rejected("serve", committed("train"), "bench kind 'train' is not 'serve'")


if __name__ == "__main__":
    unittest.main()
