#!/usr/bin/env python3
"""Checks scripts/bench_ab against two stub bench_perf programs that emit
fixed JSON. Run: python3 tests/scripts/bench_ab_test.py
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TOOL = os.path.join(ROOT, "scripts", "bench_ab")


def load_tool():
    loader = importlib.machinery.SourceFileLoader("bench_ab", TOOL)
    spec = importlib.util.spec_from_loader("bench_ab", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


# A stand-in for bench/bench_perf: lists its rows, or "runs" the rows the
# filter selects by writing fixed times to --benchmark_out and logging the
# run (side, row, NANO_EXEC_THREADS, pinned CPU count) to LOG.
STUB = textwrap.dedent("""\
    #!{python}
    import json, os, re, sys
    SIDE = {side!r}
    ROWS = {rows!r}
    LOG = {log!r}
    args = dict(a.split("=", 1) for a in sys.argv[1:])
    picked = [r for r in ROWS if re.search(args["--benchmark_filter"], r)]
    if args.get("--benchmark_list_tests") == "true":
        print("\\n".join(picked))
        sys.exit(0)
    with open(LOG, "a") as log:
        for row in picked:
            log.write(" ".join([SIDE, row, os.environ["NANO_EXEC_THREADS"],
                                str(len(os.sched_getaffinity(0)))]) + "\\n")
    with open(args["--benchmark_out"], "w") as out:
        json.dump({{"context": {{"side": SIDE}}, "benchmarks": [
            {{"name": r, "run_name": r, "run_type": "iteration",
              "real_time": ROWS[r], "cpu_time": ROWS[r], "time_unit": "ns"}}
            for r in picked]}}, out)
    """)

OLD_ROWS = {"BM_A": 100.0, "BM_B/8": 100.0, "BM_OnlyOld": 1.0,
            "Other": 1.0}
# BM_B gained UseRealTime() and got 50% slower.
NEW_ROWS = {"BM_A": 105.0, "BM_B/8/real_time": 150.0, "BM_OnlyNew": 1.0,
            "Other": 1.0}


class BenchAbTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.log = os.path.join(self.tmp.name, "runs.log")
        self.builds = {}
        for side, rows in (("old", OLD_ROWS), ("new", NEW_ROWS)):
            build = os.path.join(self.tmp.name, side)
            os.makedirs(os.path.join(build, "bench"))
            stub = os.path.join(build, "bench", "bench_perf")
            with open(stub, "w") as f:
                f.write(STUB.format(python=sys.executable, side=side,
                                    rows=rows, log=self.log))
            os.chmod(stub, 0o755)
            self.builds[side] = build
        self.proc = subprocess.run(
            [sys.executable, TOOL, self.builds["old"], self.builds["new"],
             "BM_"], cwd=self.tmp.name, capture_output=True, text=True)

    def merged(self, side):
        with open(os.path.join(self.tmp.name, f"bench_ab_{side}.json")) as f:
            return json.load(f)

    def test_alternates_which_build_goes_first(self):
        rounds = load_tool().ROUNDS
        with open(self.log) as f:
            runs = [line.split() for line in f]
        expected = []
        for row in ("BM_A", "BM_B/8"):
            for rnd in range(rounds):
                order = ("old", "new") if rnd % 2 == 0 else ("new", "old")
                for side in order:
                    name = row + "/real_time" \
                        if side == "new" and row == "BM_B/8" else row
                    expected.append([side, name, "1", "1"])
        self.assertEqual(runs, expected)

    def test_merges_every_round_into_one_file_per_build(self):
        rounds = load_tool().ROUNDS
        for side, rows in (("old", OLD_ROWS), ("new", NEW_ROWS)):
            merged = self.merged(side)
            self.assertEqual(merged["context"], {"side": side})
            names = [e["name"] for e in merged["benchmarks"]]
            b_row = "BM_B/8/real_time" if side == "new" else "BM_B/8"
            self.assertEqual(names, ["BM_A"] * rounds + [b_row] * rounds)
            for e in merged["benchmarks"]:
                self.assertEqual(e["real_time"], rows[e["name"]])

    def test_reports_bench_diff_verdict(self):
        self.assertEqual(self.proc.returncode, 1, self.proc.stderr)
        flagged = {line.split()[0] for line in self.proc.stdout.splitlines()
                   if line.endswith("REGRESSION")}
        self.assertEqual(flagged, {"BM_B/8"})


if __name__ == "__main__":
    unittest.main()
