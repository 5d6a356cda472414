#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; builds the binary like run.py does and
writes only under .bench_build/. Short runs of the cheapest workload.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

SCRATCH = os.path.join(".bench_build", "perfbench-test")
REFERENCE_DIR = os.path.join("perfbench", "reference")


def build_binary():
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", run.BENCH_DIR)
    return run.build(build_dir)


BINARY = None


def drive(workload, seed, trace=0, seconds=0.5, extra=()):
    """Runs the binary; returns (exit code, stdout lines, final object)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", "."] + list(extra)
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    return out.returncode, lines, final


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = build_binary()
        with open("BENCHMARK.json") as f:
            cls.bench = json.load(f)

    def test_statistics_helper(self):
        out = subprocess.run([BINARY, "--self-test"], capture_output=True,
                             text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_reference_seed_is_correct_and_complete(self):
        code, _, final = drive("func_mc", 1)
        self.assertEqual(code, 0)
        self.assertEqual(set(final), {"correct", "attempted", "failed",
                                      "metrics"})
        self.assertTrue(final["correct"])
        self.assertEqual(final["failed"], 0)
        self.assertGreaterEqual(final["attempted"], 1)
        names = [m["name"] for m in self.bench["end_to_end"]]
        self.assertEqual(list(final["metrics"]), names)
        for m in self.bench["end_to_end"]:
            got = final["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertGreater(got["value"], 0, m["name"])

    def test_traced_run_prints_every_per_layer_metric(self):
        code, lines, final = drive("func_mc", 2, trace=1, seconds=1.0)
        self.assertEqual(code, 0)
        self.assertTrue(final["correct"], "\n".join(lines[-40:]))
        expected = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        got = [(k, v["unit"]) for k, v in final["metrics"].items()]
        self.assertEqual(got, expected)
        self.assertEqual(final["metrics"]["fault.faults_injected"]["value"],
                         drive("func_mc", 2, trace=1, seconds=1.0)[2]
                         ["metrics"]["fault.faults_injected"]["value"])

    def test_corrupted_reference_raises_fail_frac(self):
        corrupt = os.path.join(SCRATCH, "reference")
        shutil.rmtree(corrupt, ignore_errors=True)
        shutil.copytree(REFERENCE_DIR, corrupt)
        path = os.path.join(corrupt, "func_mc.ref")
        with open(path) as f:
            lines = f.read().splitlines()
        # Change the last key value of the first call by one ulp-ish step.
        row = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        fields = lines[row].split()
        value = float.fromhex(fields[-1])
        fields[-1] = float.hex(value * (1 + 1e-15) if value else 1e-300)
        lines[row] = " ".join(fields)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

        code, out, final = drive("func_mc", 1,
                                 extra=["--reference-dir", corrupt])
        self.assertEqual(code, 0)
        self.assertFalse(final["correct"])
        self.assertGreater(final["failed"], 0)
        record = json.loads(next(l for l in out if l.startswith('{"record"')))
        self.assertGreater(record["record"]["fail_frac"], 0)

    def test_fails_without_the_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in self.bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path))
        out = subprocess.run(
            [sys.executable] + self.bench["command"][1:] +
            ["--workload", "func_mc", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
            env={k: v for k, v in os.environ.items()
                 if k != "CARGO_TARGET_DIR"})
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
