#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

They run run.py on a three-campaign slice of fig04 (sha: PVF av64/WD,
SVF, uarch ax72/RF), which takes a few seconds per run.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SLICE = {
    "rep_seconds": 1,
    "uarch_faults": 120,
    "arch_faults": 360,
    "sw_faults": 360,
    "campaigns": [
        {"layer": "pvf", "workload": "sha", "isa": "av64", "fpm": "WD"},
        {"layer": "svf", "workload": "sha"},
        {"layer": "uarch", "workload": "sha", "core": "ax72",
         "structure": "RF"},
    ],
}
# The slice's entries in the committed reference store (seed 42).
SLICE_ENTRIES = ("pvf_v1_av64_sha_WD_n360_seed42.json",
                 "svf_v1_sha_n360_seed42.json",
                 "uarch_v1_ax72_sha_RF_n120_seed42.json")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-tests-", dir=base)
        cls.plan = os.path.join(cls.tmp, "slice.json")
        with open(cls.plan, "w") as f:
            json.dump(SLICE, f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def bench(self, *args, seconds=1):
        """Run run.py on the slice: (exit code, meta, result)."""
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--plan",
             self.plan, "--seconds", str(seconds), *args],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines, proc.stderr[-2000:])
        meta = json.loads(next(l for l in lines
                               if l.startswith("perfbench-meta: "))
                          .split(": ", 1)[1])
        return proc.returncode, meta, json.loads(lines[-1])

    def reference_copy(self):
        ref = tempfile.mkdtemp(dir=self.tmp)
        for name in SLICE_ENTRIES:
            shutil.copy(os.path.join(ROOT, "results", name), ref)
        return ref

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, _, result = self.bench("--seed", "7", "--trace", trace)
            self.assertEqual(code, 0)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
        self.assertEqual([n for n, _ in run.END_TO_END],
                         [m["name"] for m in spec["end_to_end"]])
        self.assertEqual([n for n, _ in run.PER_LAYER],
                         [m["name"] for m in spec["per_layer"]])

    def test_traced_and_untraced_fold_identical_outcomes(self):
        code, meta, result = self.bench("--seed", "7", "--trace", "1",
                                        seconds=4)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertIn("traced == untraced suite", meta["checks"])
        self.assertIn("untraced == same seed's first repetition",
                      meta["checks"])

    def test_reference_gate(self):
        ref = self.reference_copy()
        code, meta, result = self.bench("--seed", "42", "--reference", ref)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertTrue(any(c.startswith("untraced == reference")
                            for c in meta["checks"]))

        path = os.path.join(ref, SLICE_ENTRIES[2])
        with open(path) as f:
            entry = json.load(f)
        entry["outcomes"]["masked"] -= 1
        entry["outcomes"]["sdc"] += 1
        with open(path, "w") as f:
            json.dump(entry, f)
        code, meta, result = self.bench("--seed", "42", "--reference", ref)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], SLICE["uarch_faults"])
        self.assertGreater(meta["error_frac"], 0)

    def test_error_frac_counts_a_quarantined_sample(self):
        # One worker, and the failpoint fires on the first two sample
        # attempts: the first sample and its one retry, so exactly that
        # sample is quarantined.
        code, meta, result = self.bench(
            "--seed", "7", "--jobs", "1",
            "--failpoints", "driver.sample.simerr=2")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(meta["error_frac"], 1 / result["attempted"])

    def test_tail_percentile_leaves_ten_beyond(self):
        self.assertEqual(run.tail(range(70))[0::2], (85, 10))
        self.assertEqual(run.tail(range(200))[0::2], (95, 10))
        self.assertEqual(run.tail(range(13200))[0::2], (99.9, 13))


if __name__ == "__main__":
    unittest.main()
