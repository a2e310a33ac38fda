#!/usr/bin/env python3
"""Checks scripts/bench_diff on the committed BENCH ledgers and on small
synthetic google-benchmark files. Run: python3 tests/scripts/bench_diff_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TOOL = os.path.join(ROOT, "scripts", "bench_diff")


def bench_diff(old, new):
    p = subprocess.run([sys.executable, TOOL, old, new],
                       capture_output=True, text=True)
    flagged = {line.split()[0] for line in p.stdout.splitlines()
               if line.endswith("REGRESSION")}
    return p.returncode, flagged


def entry(name, real_time, unit="ns", aggregate=None):
    e = {"name": name, "run_name": name, "real_time": real_time,
         "cpu_time": real_time, "time_unit": unit,
         "run_type": "aggregate" if aggregate else "iteration"}
    if aggregate:
        e["name"] = name + "_" + aggregate
        e["aggregate_name"] = aggregate
    return e


class BenchDiffTest(unittest.TestCase):
    def write(self, entries):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        json.dump({"context": {}, "benchmarks": entries}, f)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_flags_the_known_ledger_regressions(self):
        code, flagged = bench_diff(os.path.join(ROOT, "BENCH_PR5.json"),
                                   os.path.join(ROOT, "BENCH_PR10.json"))
        self.assertEqual(code, 1)
        self.assertIn("BM_Sta/1000", flagged)       # 15.6 -> 46.2 us
        self.assertIn("BM_SvcThroughput", flagged)  # 2.41 -> 4.47 ms
        self.assertNotIn("BM_DualVth/500", flagged)  # got faster

    def test_compares_medians_across_time_units(self):
        # The mean moved 50% but the median only 8%: not a regression.
        old = self.write([entry("BM_A", 1000.0, "ns"),
                          entry("BM_A", 1000.0, "ns", "median"),
                          entry("BM_A", 1000.0, "ns", "mean")])
        new = self.write([entry("BM_A", 1.08, "us", "median"),
                          entry("BM_A", 1.5, "us", "mean")])
        self.assertEqual(bench_diff(old, new), (0, set()))
        slower = self.write([entry("BM_A", 0.00112, "ms", "median")])
        self.assertEqual(bench_diff(old, slower), (1, {"BM_A"}))

    def test_real_time_rows_pair_with_their_earlier_names(self):
        old = self.write([entry("BM_C/15", 1000.0)])
        new = self.write([entry("BM_C/15/real_time", 1200.0)])
        self.assertEqual(bench_diff(old, new), (1, {"BM_C/15"}))

    def test_median_of_repetitions_without_aggregates(self):
        old = self.write([entry("BM_B", t) for t in (10.0, 10.0, 90.0)])
        new = self.write([entry("BM_B", t) for t in (10.5, 50.0, 10.5)])
        self.assertEqual(bench_diff(old, new), (0, set()))


if __name__ == "__main__":
    unittest.main()
