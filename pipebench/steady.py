#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

    python3 pipebench/steady.py [--runs N] [--workloads a,b] [--seconds S]

Run from the repository root.  Runs every workload of BENCHMARK.json in two
sets of N untraced runs each (default 10), interleaved A, B, A, B, ... with
a distinct seed per run (set A seeds 1..N, set B seeds 101..100+N).  For
each workload and end-to-end metric it prints both sets' median and
quartiles, the spread (q3 - q1) / median, and whether

  * each set's spread is within the metric's bound (setup_s excepted),
  * the spread is below a third of the bound (the target for a steady
    metric),
  * set B's median is no worse than set A's by more than the bound,

and whether both sets failed the same share of operations.  Exits 1 when
any run fails or any check does not hold.  --out FILE also writes every
run's result line as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_one(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall
    try:
        return json.loads(lines[-1]), wall
    except json.JSONDecodeError:
        return None, wall


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in opts.workloads.split(",") if n in names]
    metrics = bench["end_to_end"]

    results = {n: {"A": [], "B": []} for n in names}
    ok = True
    for i in range(opts.runs):
        for name in names:
            for label, seed in (("A", 1 + i), ("B", 101 + i)):
                res, wall = run_one(cmd, name, seed, seconds)
                status = "ok" if res and res.get("correct") else "FAILED"
                print(f"[{label}] {name:14s} seed {seed:4d} {wall:6.1f} s "
                      f"{status}", flush=True)
                if not res or not res.get("correct"):
                    ok = False
                    continue
                results[name][label].append(res)

    print()
    for name in names:
        sets = results[name]
        print(f"== {name}")
        shares = {}
        for label in ("A", "B"):
            runs = sets[label]
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            shares[label] = [r["failed"] / r["attempted"] for r in runs]
            print(f"   set {label}: {len(runs)} runs, {fail} of {att} "
                  f"operations failed")
        same_share = len(set(shares["A"] + shares["B"])) <= 1
        print(f"   failed share identical in every run: "
              f"{'yes' if same_share else 'NO'}")
        ok = ok and same_share
        print(f"   {'metric':14s} {'set':3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
        for m in metrics:
            meds = {}
            for label in ("A", "B"):
                vals = [r["metrics"][m["name"]]["value"]
                        for r in sets[label] if m["name"] in r["metrics"]]
                if not vals:
                    print(f"   {m['name']:14s} {label:3s} missing")
                    ok = False
                    continue
                q1, med, q3 = quartiles(vals)
                meds[label] = med
                spread = (q3 - q1) / med if med else float("inf")
                if m["name"] == "setup_s":
                    verdict = "spread not gated"
                elif spread > m["bound"]:
                    verdict = "OVER BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    verdict = "within bound, above a third"
                else:
                    verdict = "steady"
                print(f"   {m['name']:14s} {label:3s} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {m['bound']:6.2f}  {verdict}")
            both = [r["metrics"][m["name"]]["value"]
                     for label in ("A", "B") for r in sets[label]
                     if m["name"] in r["metrics"]]
            if len(both) >= 2:
                q1, med, q3 = quartiles(both)
                spread = (q3 - q1) / med if med else float("inf")
                print(f"   {m['name']:14s} all {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {m['bound']:6.2f}")
            if len(meds) == 2:
                w = worse_by(meds["A"], meds["B"], m["better"])
                agree = w <= m["bound"]
                ok = ok and agree
                print(f"   {m['name']:14s} B vs A: {100 * w:+.1f}% worse "
                      f"-> {'agree' if agree else 'DISAGREE'}")
        print()
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(results, f, indent=1)
    print("steady: " + ("all checks hold" if ok else "SOME CHECKS FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
