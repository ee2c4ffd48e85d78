#!/usr/bin/env python3
"""GPSA end-to-end benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the GPSA libraries from ../src) into
.bench_build/, then runs the two phases of gpsa_perfbench as separate
processes:

  prepare  seeded input, oracle, and the timed set-up (setup_s);
  measure  the workload for --seconds against the prepared CSR, every
           output checked against the oracle.

Keeping them apart lets the measure process report its own peak RSS: the
benchmark's edge list and oracle computation live and die in prepare.

Prints, as the last line of stdout, one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1). A
phase that crashes or times out fails the run: no result line, exit 1.
With --trace 1 the spans of both phases are merged into a Chrome
trace-event file under .bench_build/traces/ (open it in Perfetto).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "gpsa_perfbench")
PHASE_TIMEOUT_S = 150
# Span categories: the GPSA modules the benchmark calls, and its own code.
LAYERS = ("graph", "io", "storage", "core", "actor", "service", "bench")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(["cmake", "--build", cmake_dir, "-j4",
                    "--target", "gpsa_perfbench"],
                   stdout=sys.stderr, check=True, timeout=800)


def phase_env():
    # The program runs with its defaults: GPSA_* settings of the caller
    # would change what is measured. Scratch files stay in the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPSA_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_phase(mode, args, work, extra=()):
    cmd = [BINARY, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--dir", work, "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=phase_env(),
                              timeout=PHASE_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{mode} phase timed out after {PHASE_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        how = (f"signal {-proc.returncode}" if proc.returncode < 0
               else f"exit code {proc.returncode}")
        log(f"{mode} phase failed ({how}); see its last phase marker above")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_time_ms(events):
    """Mean self time (duration minus the children's) of a span, per layer.

    A mean per span, not a sum, so that it does not grow with the length
    of the time-boxed parts of the run (the timed loop, the service probe).
    """
    child = {}
    for e in events:
        key = (e["pid"], e["args"]["parent"])
        child[key] = child.get(key, 0.0) + e["dur"]
    own = {cat: [] for cat in LAYERS}
    for e in events:
        own.setdefault(e["cat"], []).append(
            e["dur"] - child.get((e["pid"], e["args"]["span"]), 0.0))
    return {f"{cat}.self_ms_per_span": sum(us) / len(us) / 1e3 if us else 0.0
            for cat, us in own.items()}


def merge_traces(work, args):
    events = []
    for name in ("prepare.trace.json", "measure.trace.json"):
        path = os.path.join(work, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                events.extend(json.load(f)["traceEvents"])
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    log(f"trace written to {os.path.relpath(path, ROOT)}")
    return self_time_ms(events)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault",
                        choices=("pagerank", "bfs", "cc"),
                        help="corrupt one output value to show the check fails")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        log(f"build failed: {err}")
        return 1

    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        prepared = run_phase("prepare", args, work)
        if prepared is None:
            return 1
        extra = ["--seconds", str(args.seconds)]
        if args.plant_fault:
            extra += ["--plant-fault", args.plant_fault]
        measured = run_phase("measure", args, work, extra)
        if measured is None:
            return 1
        metrics = {**prepared["metrics"], **measured["metrics"]}
        if args.trace:
            metrics.update(merge_traces(work, args))
            metrics["trace.job_s"] = measured["metrics"]["job_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"metrics not produced: {', '.join(missing)}")
        return 1
    result = {
        "correct": bool(prepared["correct"] and measured["correct"]),
        "attempted": prepared["attempted"] + measured["attempted"],
        "failed": prepared["failed"] + measured["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
