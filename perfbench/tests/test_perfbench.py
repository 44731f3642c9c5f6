#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Builds ndpbench if needed (like run.py), then checks that a perturbed
output record fails its fingerprint, that every metric run.py prints
is declared in BENCHMARK.json with the same unit, and that a short
fixed-seed run of each workload completes with zero failed operations.
Takes about two minutes (the traced pass dominates).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

SEED = 1


def run_bench(*args):
    """run.py as BENCHMARK.json's command runs it; returns its last
    stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_perturbed_report_fails_fingerprint(self):
        rec = run.run_rep(self.exe, "fleet-day", SEED)
        expected = run.load_fingerprints()["fleet-day"][str(SEED)]
        self.assertEqual(run.check_rep(rec, expected), [])
        for i in range(len(rec["fields"])):
            bad = json.loads(json.dumps(rec))
            name, bits = bad["fields"][i]
            flipped = int(bits, 16) ^ 1
            bad["fields"][i] = [name, f"{flipped:016x}"]
            self.assertTrue(run.check_rep(bad, expected),
                            f"flipping the low bit of {name} went unnoticed")

    def test_end_to_end_runs_are_correct_and_declared(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.E2E_WORKLOADS))
        # serve-spike has no end-to-end slot in BENCHMARK.json but still
        # runs in the traced pass, so it is checked here too.
        for wl in run.WORKLOADS:
            with self.subTest(workload=wl):
                out = run_bench("--workload", wl, "--seed", str(SEED),
                                "--seconds", "1", "--trace", "0")
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in out["metrics"].items()},
                    declared)
                for k, v in out["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_pass_prints_every_declared_layer_metric(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER)
        out = run_bench("--workload", "fleet-day", "--seed", str(SEED),
                        "--seconds", "1", "--trace", "1")
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                         declared)

    def test_bare_benchmark_directory_fails(self):
        # Without the repo's sources there is nothing to build: the
        # benchmark must exit non-zero without printing a result.
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fleet-day", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
