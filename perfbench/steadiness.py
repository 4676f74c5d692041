#!/usr/bin/env python3
"""Steadiness report: runs every workload several times and prints, for
every metric, its median and interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json
gives it.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1] [--workloads a,b] [--json FILE]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed+1, ...), as a comparison of two commits would.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
            result = json.loads(lines[-1])
            if len(lines) > 1:
                result["summary"] = json.loads(lines[-2])
            runs.append(result)
            print("%s seed %d: correct=%s failed=%d/%d" % (
                workload, seed, result["correct"], result["failed"], result["attempted"]),
                file=sys.stderr)
        report[workload] = runs
        print("\n%s (%d runs, %d s each)" % (workload, len(runs), args.seconds))
        print("  %-28s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, rel = spread(values)
            bound = bounds.get(name)
            print("  %-28s %14.6g %10.4f %8s" % (
                name, median, rel, "-" if bound is None else "%.2f" % bound))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
