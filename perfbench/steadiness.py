#!/usr/bin/env python3
"""Run-to-run steadiness of the GPSA benchmark.

    python3 perfbench/steadiness.py [--seeds 1-10] [--traced-seeds 1-3]

Runs perfbench/run.py once per (workload, seed), untraced, for every
workload of BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against the metric's bound. A spread above a third of
the bound is flagged: such a metric cannot tell a regression of that size
from noise.

With --traced-seeds it also makes traced runs and prints the median of
every per-layer metric plus the tracing overhead: the median over those
seeds of the traced job_s (trace.job_s) minus the untraced job_s of the
same seed, run just before it. Traced seeds should be among --seeds.

Seeds 1-10 are the tuning seeds; seed 1000 is held out for checking
claims (README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: run failed (exit {proc.returncode}); "
              "last stderr lines:", flush=True)
        for line in proc.stderr.strip().splitlines()[-6:]:
            print(f"    {line}", flush=True)
        return None
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--traced-seeds", type=seed_range, default=[])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        by_seed, traced = {}, {}
        for s in sorted(set(args.seeds) | set(args.traced_seeds)):
            # A traced run right after the untraced run of its seed, so
            # the overhead they give is not mixed with the host's drift.
            if s in args.seeds:
                by_seed[s] = run_once(workload, s, seconds, 0)
            if s in args.traced_seeds:
                traced[s] = run_once(workload, s, seconds, 1)
        runs = [r for r in by_seed.values() if r]
        if len(runs) < 2:
            print(f"{workload}: too few successful runs")
            steady = False
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            med, q1, q3, spread = summarize(
                [r["metrics"][m["name"]]["value"] for r in runs])
            flag = ""
            if spread > m["bound"] / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {m['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f} {m['bound']:>6}{flag}")
        done = [r for r in traced.values() if r]
        if done:
            print(f"  per-layer medians over {len(done)} traced runs:")
            for m in spec["per_layer"]:
                vals = [r["metrics"][m["name"]]["value"] for r in done]
                print(f"    {m['name']:<30} {statistics.median(vals):>14.6g} "
                      f"{m['unit']}")
            pairs = [(t["metrics"]["trace.job_s"]["value"],
                      by_seed[s]["metrics"]["job_s"]["value"])
                     for s, t in traced.items() if t and by_seed.get(s)]
            if pairs:
                diff = statistics.median(t - u for t, u in pairs)
                print(f"  tracing overhead over {len(pairs)} seeds: job_s "
                      f"traced - untraced, median {diff:+.6g} s "
                      f"(traced {statistics.median(t for t, _ in pairs):.6g}, "
                      f"untraced {statistics.median(u for _, u in pairs):.6g})")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
