#!/usr/bin/env python3
"""Self-test of the repository benchmark, at smoke size.

    python3 perfbench/test_perfbench.py      # from the repository root

- Every workload, untraced and traced, prints every metric BENCHMARK.json
  declares for that mode, with its unit, and fails no operation.
- A tampered expected digest (analysis workload) and a tampered serving
  oracle each drive the failure count above zero, so the output checks
  can fail.

Builds through perfbench/run.py like a benchmark run does.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "2", "--trace", str(trace),
         "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class AllMetricsPrinted(unittest.TestCase):
    def check(self, workload, trace):
        res = run(workload, trace)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for m in declared:
            with self.subTest(metric=m["name"]):
                self.assertIn(m["name"], res["metrics"])
                self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        self.assertEqual(len(res["metrics"]), len(declared))
        self.assertTrue(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], 0)
        if trace:
            self.assertEqual(res["metrics"]["bench.failed_frac"]["value"], 0)
        else:
            for m in SPEC["end_to_end"]:
                self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                   m["name"])


for _w in SPEC["workloads"]:
    for _trace in (0, 1):
        setattr(AllMetricsPrinted,
                f"test_{_w['name'].replace('-', '_')}_trace{_trace}",
                (lambda w, t: lambda self: self.check(w, t))(_w["name"],
                                                             _trace))


class ChecksCanFail(unittest.TestCase):
    def tampered_reference(self, workload):
        """A copy of expected.txt whose entry for the smoke run of
        workload at seed 1 carries a wrong digest."""
        with open(os.path.join(HERE, "expected.txt")) as f:
            lines = f.read().splitlines()
        key = f"{workload}/smoke 1 "
        hits = [i for i, l in enumerate(lines) if l.startswith(key)]
        self.assertEqual(len(hits), 1, f"no checked-in entry for {key}")
        fields = lines[hits[0]].split()
        fields[2] = format(int(fields[2], 16) ^ 1, "016x")
        lines[hits[0]] = " ".join(fields)
        tmp = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
        tmp.write("\n".join(lines) + "\n")
        tmp.close()
        self.addCleanup(os.unlink, tmp.name)
        return tmp.name

    def test_checked_in_reference_passes(self):
        res = run("analyze-mahjong", 0)
        self.assertEqual(res["failed"], 0)

    def test_tampered_digest_fails_analyze_mahjong(self):
        res = run("analyze-mahjong", 0, "--expected",
                  self.tampered_reference("analyze-mahjong"))
        self.assertGreater(res["failed"], 0)
        self.assertFalse(res["correct"])

    def test_tampered_oracle_fails_serving(self):
        for workload in ("serve-hot", "serve-swap"):
            with self.subTest(workload=workload):
                res = run(workload, 0, "--tamper-oracle")
                self.assertGreater(res["failed"], 0)
                self.assertFalse(res["correct"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
