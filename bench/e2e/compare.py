#!/usr/bin/env python3
"""Paired parent/change comparator for the end-to-end host benchmark.

Runs the benchmark of two checkouts in alternating pairs - pair i uses seed
SEED_BASE+i on both sides, and the side that runs first alternates - at the
run length of each side's BENCHMARK.json, then judges every metric of every
workload.

The end-to-end metrics of BENCHMARK.json, with its bounds (a share of the
parent's median):

  gain          the change wins >= 9 in 10 pairs (ties count for neither)
                and the medians differ by more than the parent's IQR;
  regression    the change's median is worse than the parent's by more than
                the metric's bound;
  loss          within the bound, but the mirror of a gain: the change loses
                >= 9 in 10 pairs and the medians differ by more than the
                parent's IQR (paired runs cancel the host drift the bound
                has to allow for; reported, not blocking);
  unresolved    a side's spread (IQR / median) is wider than the bound, and
                not every change run beats (or loses to) every parent run;
  within bound  none of the above.

The workload metrics of WORKLOAD_METRICS, which BENCHMARK.json cannot bound
because not every workload reports them.  The exact ones repeat for a seed,
so each pair is compared on its own: a regression when any pair's change is
worse than its parent by more than the bound, a gain when every pair's is
better by more than it.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10] [--workload W]
    python3 bench/e2e/compare.py --from pairs.jsonl          # re-judge a record

Advisory by default (exit 0); --strict exits 1 on any regression,
incorrect run or missing data.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["capture_stream", "capture_cfd", "store_query", "fleet_sessions", "paper_sweep"]
MIN_PAIRS = 10
# Seeds no development run used, so a claim is checked on fresh inputs.
SEED_BASE = 101

# name -> (better, bound, exact).  exact: deterministic for a seed, bound in
# the metric's own unit; otherwise the bound is a share of the parent median.
WORKLOAD_METRICS = {
    "accuracy_pct": ("higher", 0.05, True),   # capture_*, paper_sweep
    "overhead_pct": ("lower", 0.05, True),    # capture_*, paper_sweep
    "error_rate": ("lower", 0.0, True),       # every workload
    "ingest_msamples_per_s": ("higher", 0.10, False),  # store_query
    "query_p99_ms": ("lower", 0.10, False),            # store_query
    "scan_msamples_per_s": ("higher", 0.10, False),    # store_query
}


def run_side(checkout, workload, seed):
    """One run of one side; its metrics are every metric the run reported."""
    report_path = os.path.join(checkout, "bench", "e2e", "build", "compare-run.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = ["python3", os.path.join("bench", "e2e", "run.py"), "--workload", workload,
           "--seed", str(seed), "--json", report_path]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(report_path) as f:
            full = json.load(f)["workloads"][workload]["metrics"]
        result["metrics"] = {name: {"value": m["median"], "unit": m["unit"]}
                             for name, m in full.items()}
    except (IndexError, KeyError, OSError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["correct"] = result.get("correct", False) and proc.returncode == 0
    return result


def collect(args):
    records = []
    out = open(args.record, "w") if args.record else None
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = run_side(checkout, w, seed)
                record = {"workload": w, "pair": i, "side": side, "seed": seed,
                          "correct": result["correct"], "metrics": result["metrics"]}
                records.append(record)
                if out:
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                print(f"{w} pair {i} {side}: {'ok' if record['correct'] else 'INCORRECT'}",
                      file=sys.stderr, flush=True)
    if out:
        out.close()
    return records


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, better, bound):
    """Verdict and win count for one metric's paired values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if better == "higher":
        all_better, all_worse = min(change) > max(parent), max(change) < min(parent)
    else:
        all_better, all_worse = max(change) < min(parent), min(change) > max(parent)
    if spread > bound and not all_better and not all_worse:
        verdict = "unresolved"
    elif wins >= 0.9 * len(parent) and sign * (cm - pm) > (p3 - p1):
        verdict = "gain"
    elif sign * (cm - pm) < -bound * abs(pm):
        verdict = "regression"
    elif losses >= 0.9 * len(parent) and sign * (pm - cm) > (p3 - p1):
        verdict = "loss"
    else:
        verdict = "within bound"
    return verdict, wins, (p1, pm, p3), (c1, cm, c3)


def judge_exact(parent, change, better, bound):
    """Verdict for a metric that repeats exactly for a seed, pair by pair."""
    sign = 1.0 if better == "higher" else -1.0
    deltas = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(1 for d in deltas if d > 0)
    if any(d < -bound for d in deltas):
        verdict = "regression"
    elif all(d > bound for d in deltas):
        verdict = "gain"
    else:
        verdict = "within bound"
    return verdict, wins, quartiles(parent), quartiles(change)


def report(records, bench):
    specs = {m["name"]: (m["better"], m["bound"], False, m["unit"]) for m in bench["end_to_end"]}
    for name, (better, bound, exact) in WORKLOAD_METRICS.items():
        specs[name] = (better, bound, exact, None)
    blocking = False
    for w in [w for w in WORKLOADS if any(r["workload"] == w for r in records)]:
        pairs = {}
        for r in records:
            if r["workload"] == w:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if "parent" in p and "change" in p]
        incorrect = sum(1 for p in complete for side in p.values() if not side["correct"])
        if len(complete) < MIN_PAIRS:
            print(f"{w}: only {len(complete)} complete pairs; at least {MIN_PAIRS} are required")
            blocking = True
            continue
        rows = []
        for name, (better, bound, exact, unit) in specs.items():
            usable = [p for p in complete if name in p["parent"]["metrics"]
                      and name in p["change"]["metrics"]]
            if unit is None and not any(name in side["metrics"] for p in complete
                                        for side in p.values()):
                continue  # a workload metric neither side reports here
            if len(usable) < MIN_PAIRS:
                rows.append((name, "missing", 0, None, None, bound, exact, unit))
                continue
            parent = [p["parent"]["metrics"][name]["value"] for p in usable]
            change = [p["change"]["metrics"][name]["value"] for p in usable]
            unit = usable[0]["parent"]["metrics"][name]["unit"]
            verdict, wins, pq, cq = (judge_exact if exact else judge)(parent, change, better,
                                                                      bound)
            rows.append((name, verdict, wins, pq, cq, bound, exact, unit))
        verdicts = [r[1] for r in rows]
        print(f"{w}: {len(complete)} pairs, {incorrect} incorrect runs; "
              + ", ".join(f"{verdicts.count(v)} {v}" for v in
                          ("gain", "within bound", "loss", "unresolved", "regression",
                           "missing")
                          if verdicts.count(v)))
        for name, verdict, wins, pq, cq, bound, exact, unit in rows:
            if pq is None:
                print(f"   {name:22s} {verdict}")
                continue
            delta = (cq[1] - pq[1]) / pq[1] * 100.0 if pq[1] else float("nan")
            limit = f"bound {bound:g} {unit} per pair" if exact else f"bound {bound:.0%}"
            print(f"   {name:22s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {unit}  "
                  f"{delta:+.2f}%  wins {wins}/{len(complete)}  {limit}  -> {verdict}")
        blocking = blocking or incorrect > 0 or "regression" in verdicts or "missing" in verdicts
    return blocking


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", nargs="?", help="checkout of the change")
    parser.add_argument("--from", dest="source", help="judge a saved pair record (JSON lines)")
    parser.add_argument("--record", help="save the pair record (JSON lines) here")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on a regression, an incorrect run or missing data")
    args = parser.parse_args()

    if args.source:
        with open(args.source) as f:
            records = [json.loads(line) for line in f if line.strip()]
    elif args.parent and args.change:
        if args.pairs < MIN_PAIRS:
            parser.error(f"--pairs must be at least {MIN_PAIRS}")
        if args.workload != "all" and args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload}")
        records = collect(args)
    else:
        parser.error("give PARENT and CHANGE checkouts, or --from a record")

    # Bounds come from the parent's BENCHMARK.json when it has one (the
    # definition the change is judged by), else from this checkout's.
    here = os.path.dirname(os.path.abspath(__file__))
    candidates = [os.path.join(args.parent, "BENCHMARK.json")] if args.parent else []
    candidates.append(os.path.join(here, "..", "..", "BENCHMARK.json"))
    path = next((p for p in candidates if os.path.exists(p)), None)
    if path is None:
        parser.error("no BENCHMARK.json found for the bounds")
    with open(path) as f:
        bench = json.load(f)

    blocking = report(records, bench)
    if blocking:
        print("comparison found a regression, an incorrect run or missing data"
              + ("" if args.strict else " (advisory; --strict makes this blocking)"))
    return 1 if blocking and args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
