#!/usr/bin/env python3
"""Steadiness check for the agent-system benchmark.

Runs every workload repeatedly at BENCHMARK.json's run_seconds, in two
separate sets one after the other (seeds 1.. and 1001..), prints the median,
quartiles and spread ((q3 - q1) / median) of every end-to-end metric per set,
and reports whether

  * each spread is within the metric's bound (setup_s's spread is printed but
    not held to its bound: each run times one cold set-up, and only the
    medians of setup_s are compared),
  * the two sets' medians differ by no more than the bound, in either
    direction, for every metric, setup_s included, and
  * the share of failed operations is the same in both sets,

with the bounds taken from BENCHMARK.json. Run from the checkout root:

    python3 agentbench/steady.py --runs 10
    python3 agentbench/steady.py --runs 5 --workloads build

Exits 0 when every check holds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SET_SEEDS = (1, 1001)  # first seed of each set


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set (at least 2)")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    raw = {w: [[] for _ in SET_SEEDS] for w in workloads}
    for s, first_seed in enumerate(SET_SEEDS):
        for w in workloads:
            for i in range(args.runs):
                seed = first_seed + i
                result = run_once(spec["command"], w, seed, seconds)
                raw[w][s].append(result)
                print(f"set {s + 1} {w} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':14s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        medians = []
        for s, runs in enumerate(raw[w]):
            medians.append({})
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians[s][name] = med
                spread = (q3 - q1) / med if med else float("inf")
                if name == "setup_s":
                    flag = "  (spread not gated)"
                elif spread > m["bound"]:
                    flag = "  SPREAD OVER BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    flag = "  (over a third of the bound)"
                else:
                    flag = ""
                print(f"  {name:14s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.3f} {m['bound']:6.2f}{flag}")
            if not all(r["correct"] for r in runs):
                print(f"  set {s + 1}: correctness checks failed")
                ok = False
        for name, m in metrics.items():
            a, b = medians[0][name], medians[1][name]
            change = (b - a) / a if a else float("inf")
            diff = abs(change)
            verdict = "ok" if diff <= m["bound"] else "SETS DISAGREE"
            ok = ok and diff <= m["bound"]
            print(f"  set 2 vs set 1 {name:14s} {100 * change:+7.2f}% "
                  f"(bound ±{100 * m['bound']:.0f}%) {verdict}")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in raw[w]]
        print(f"  failed share per set: {shares[0]} {shares[1]}")
        if len(shares[0]) != 1 or shares[0] != shares[1]:
            print("  failed shares differ")
            ok = False
    print("\nsteady: " + ("all checks hold" if ok else "SOME CHECKS FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
