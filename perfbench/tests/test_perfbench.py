"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests -v

Covers the compare tool (quartiles, pairs won, verdicts), builds and
runs the C++ harness tests (tests/test_harness.cc), and smoke-runs
every workload at a tiny scale, untraced and traced, through run.py.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402

# Small enough for seconds per run; cells-scale0.02.tsv pins it.
SMOKE_SCALE = "0.02"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        q1, med, q3 = compare.quartiles(v)
        self.assertEqual([q1, med, q3], statistics.quantiles(v, n=4))
        self.assertEqual(med, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(compare.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(compare.spread([4.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        v = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, med, q3 = compare.quartiles(v)
        self.assertAlmostEqual(compare.spread(v), (q3 - q1) / med)


class Verdicts(unittest.TestCase):
    BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]

    def test_pairs_won_counts_ties_for_neither(self):
        self.assertEqual(compare.pairs_won([1, 2, 3], [0, 2, 4], "lower"),
                         1 / 3)
        self.assertEqual(compare.pairs_won([1, 2, 3], [0, 2, 4], "higher"),
                         1 / 3)

    def test_clear_gain_is_better(self):
        new = [v * 0.8 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "better")
        self.assertEqual(compare.verdict(self.BASE, new, "higher", 0.1),
                         "worse")

    def test_loss_beyond_bound_is_worse(self):
        new = [v * 1.3 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "worse")

    def test_loss_within_bound_is_unchanged(self):
        new = [v * 1.02 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "unchanged")
        self.assertEqual(
            compare.verdict(self.BASE, list(self.BASE), "lower", 0.1),
            "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.verdict(self.BASE, noisy, "lower", 0.1),
                         "unresolved")

    def test_wide_spread_but_always_better_is_better(self):
        noisy_fast = [5.0, 7.0, 6.0, 8.0, 9.0, 5.5, 6.5, 7.5, 8.5, 9.5]
        self.assertEqual(
            compare.verdict(self.BASE, noisy_fast, "lower", 0.1), "better")


class Reports(unittest.TestCase):
    def write(self, path, scale_by):
        with open(path, "w") as f:
            for i, v in enumerate(Verdicts.BASE):
                for traced in (False, True):
                    metrics = {m["name"]: {"value": v * scale_by,
                                           "unit": m["unit"]}
                               for m in spec()["end_to_end" if not traced
                                               else "per_layer"]}
                    f.write(json.dumps({"workload": "lineup-serial",
                                        "traced": traced, "seed": i,
                                        "metrics": metrics}) + "\n")

    def test_one_set_and_two_sets(self):
        import io
        import tempfile
        from contextlib import redirect_stdout
        with tempfile.TemporaryDirectory() as d:
            base = os.path.join(d, "base.jsonl")
            new = os.path.join(d, "new.jsonl")
            self.write(base, 1.0)
            self.write(new, 1.5)
            out = io.StringIO()
            with redirect_stdout(out):
                compare.main([base])
            self.assertIn("per-layer medians", out.getvalue())
            out = io.StringIO()
            with redirect_stdout(out):
                compare.main([base, new])
            text = out.getvalue()
            self.assertIn("lineup-serial    wall_s", text)
            self.assertIn("worse", text)
            self.assertIn("+50.0%", text)


def run_bench(workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.1",
           "--trace", str(trace), "--scale", SMOKE_SCALE]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build("pf_perfbench_tests") or not run.build():
            raise unittest.SkipTest("harness build failed")

    def test_cpp_unit_tests(self):
        exe = os.path.join(run.BUILD_DIR, "pf_perfbench_tests")
        r = subprocess.run([exe], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_smoke_every_workload(self):
        s = spec()
        for w in s["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run_bench(w["name"], trace)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    last = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(last), {"correct", "attempted", "failed",
                                    "metrics"})
                    self.assertTrue(last["correct"], r.stderr)
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(set(last["metrics"]),
                                     {m["name"] for m in s[key]})
                    for m in s[key]:
                        self.assertEqual(last["metrics"][m["name"]]["unit"],
                                         m["unit"])

    def test_fails_without_the_repository(self):
        bare = os.path.join(run.BUILD_ROOT, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = run_bench("lineup-serial", 0, root=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
