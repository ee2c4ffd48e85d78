#!/usr/bin/env python3
"""Planted-fault test of the benchmark's output checks.

    python3 perfbench/test_perfbench.py

Runs each workload briefly through perfbench/run.py, once clean and once
with --plant-fault, which corrupts one value of one PageRank, BFS or CC
result before it is checked. The clean runs must pass with no
failed operation; every planted run must report correct=false and count
the corrupted operation as failed. Takes about two minutes.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, fault=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
    if fault:
        cmd += ["--plant-fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PlantedFaults(unittest.TestCase):
    CASES = (("pagerank-dense", "pagerank"), ("traverse-sparse", "bfs"),
             ("traverse-sparse", "cc"))

    def test_clean_runs_pass(self):
        for workload in sorted({w for w, _ in self.CASES}):
            with self.subTest(workload=workload):
                result = run(workload)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_planted_faults_fail_the_run(self):
        for workload, fault in self.CASES:
            with self.subTest(workload=workload, fault=fault):
                result = run(workload, fault)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
