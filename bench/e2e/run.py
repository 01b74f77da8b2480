#!/usr/bin/env python3
"""End-to-end host benchmark: build, run every workload, report.

Builds bench/e2e (its own CMake project linking the repository's `nmo`
library) into bench/e2e/build/, runs one process per workload, prints every
metric with its unit, and ends stdout with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

where metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1, a traced run).  Exit status is non-zero
when the build fails, a check or operation fails, or a metric is missing.

    python3 bench/e2e/run.py --workload capture_stream --seed 7
    python3 bench/e2e/run.py --workload all --trace bench/e2e/out   # traced
    python3 bench/e2e/run.py --workload all --repeat 5 --json bench/e2e/baseline.json
    python3 bench/e2e/run.py --smoke                                 # tiny sizes

See README.md for the workloads, the metrics and how to compare commits.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "nmo-e2e")
WORKLOADS = ["capture_stream", "capture_cfd", "store_query", "fleet_sessions", "paper_sweep"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def host_threads():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def scratch_env():
    """Environment for the build and the runs: temporary files stay in BUILD."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures once and builds the benchmark binary; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          env=scratch_env()).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    make = ["cmake", "--build", BUILD, "--target", "nmo-e2e", "-j", str(host_threads())]
    return subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr,
                          env=scratch_env()).returncode == 0


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace_dir, smoke, corrupt):
    """Runs one workload process; returns its report (None without a result)."""
    work = os.path.join(BUILD, "work", workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--work", work,
           "--seconds", "0" if smoke else str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if corrupt:
        cmd += ["--corrupt", corrupt]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--traced", "--trace-out", os.path.join(trace_dir, workload + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, env=scratch_env())
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1], parse_constant=lambda c: float("nan"))
    except (IndexError, ValueError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return None
    # The binary's own summary goes first; the result line is ours to print.
    print("\n".join(lines[:-1]))
    report["exit_code"] = proc.returncode
    return report


def validate(report, names, units, positive):
    """Problems with the BENCHMARK.json metrics of this report."""
    problems = []
    metrics = report["metrics"]
    for name in names:
        if name not in metrics:
            problems.append(f"{report['workload']}: metric {name} missing")
            continue
        value = metrics[name]["value"]
        if metrics[name]["unit"] != units[name]:
            problems.append(f"{report['workload']}: {name} unit {metrics[name]['unit']} "
                            f"!= {units[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{report['workload']}: {name} is not a finite number")
        elif positive and value <= 0:
            problems.append(f"{report['workload']}: {name} = {value} (must be > 0)")
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_facts():
    facts = {"nproc": os.cpu_count(), "host_threads": host_threads(),
             "machine": platform.machine(), "compiler": "unknown", "commit": "unknown"}
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            match = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", f.read(), re.M)
        if match:
            out = subprocess.run([match.group(1), "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            facts["compiler"] = out.stdout.splitlines()[0] if out.stdout else match.group(1)
    git = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if git.returncode == 0:
        facts["commit"] = git.stdout.strip()
    return facts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="one of %s, or all" % WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; must equal BENCHMARK.json run_seconds, which the "
                             "round counts are sized for")
    parser.add_argument("--trace", default="0",
                        help="0 = plain run (end-to-end metrics); 1 = traced run (per-layer "
                             "metrics, Chrome traces in bench/e2e/out/); or a directory for "
                             "the traced run's Chrome traces")
    parser.add_argument("--json", help="write the full report (every metric) to this file")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; the report holds median and quartiles")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every check on")
    parser.add_argument("--corrupt", choices=["mirror", "query"],
                        help="damage a mirror or a query result; the checks must fail")
    args = parser.parse_args()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads) or args.repeat < 1:
        parser.error(f"unknown workload {args.workload}")
    trace_dir = None
    if args.trace not in ("0", ""):
        trace_dir = os.path.join(HERE, "out") if args.trace == "1" else os.path.abspath(args.trace)

    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    seconds = bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g}: runs are {seconds} s (BENCHMARK.json)")
    wanted = bench["per_layer"] if trace_dir else bench["end_to_end"]
    names = [m["name"] for m in wanted]
    units = {m["name"]: m["unit"] for m in wanted}

    if not build():
        log("build failed")
        return 1

    problems = []
    attempted = failed = 0
    runs = {w: [] for w in workloads}
    for w in workloads:
        for i in range(args.repeat):
            report = run_workload(w, args.seed, seconds, trace_dir, args.smoke, args.corrupt)
            if report is None:
                problems.append(f"{w}: run {i} produced no result")
                continue
            attempted += report["attempted"]
            failed += report["failed"]
            if report["exit_code"] != 0 and report["failed"] == 0:
                problems.append(f"{w}: exit code {report['exit_code']}")
            problems += validate(report, names, units, positive=not trace_dir)
            runs[w].append(report)
    for p in problems:
        log("PROBLEM: " + p)

    metrics = {}
    summary = {"benchmark": "bench/e2e", "seed": args.seed, "seconds": seconds,
               "traced": bool(trace_dir), "smoke": args.smoke, "repeat": args.repeat,
               "host": host_facts(), "workloads": {}}
    for w, reports in runs.items():
        if not reports:
            continue
        stats = {}
        for name in reports[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]
            q1, q2, q3 = quartiles(values)
            stats[name] = {"unit": reports[0]["metrics"][name]["unit"], "median": q2,
                           "q1": q1, "q3": q3, "values": values}
        summary["workloads"][w] = {"attempted": sum(r["attempted"] for r in reports),
                                   "failed": sum(r["failed"] for r in reports),
                                   "metrics": stats}
        for name in names:
            if name in stats:
                key = name if len(workloads) == 1 else f"{w}/{name}"
                metrics[key] = {"value": stats[name]["median"], "unit": units[name]}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")

    # A run without a result or with a bad metric counts as one more failed
    # attempt, so `correct` and the counts always agree.
    attempted += len(problems)
    failed += len(problems)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
