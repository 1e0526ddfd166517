#!/usr/bin/env python3
"""Steadiness check for the served benchmark.

Runs servebench/run.py once per seed on each workload and reports, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. A metric is steady when its spread is below a third of its
bound in BENCHMARK.json (setup_s is reported but not held to it). With
--compare, it also checks that no median got worse than the earlier
summary's by more than the bound.

    python3 servebench/steadiness.py --runs 10
    python3 servebench/steadiness.py --workloads storm_replay --runs 5 --first-seed 11
    python3 servebench/steadiness.py --runs 10 --compare .bench_build/servebench/steadiness-1.json

The summary is written to .bench_build/servebench/steadiness-<first seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--compare", help="earlier summary to check drift against")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    summary = {}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for name, value in run(workload, seed, args.seconds).items():
                values[name].append(value)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}"
              f"  status")
        summary[workload] = {}
        for name, metric in metrics.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median if median else float("inf")
            status = "ok"
            if name != "setup_s" and spread >= metric["bound"] / 3:
                status = "SPREAD"
                steady = False
            if earlier is not None:
                drift = worse(metric, earlier[workload][name]["median"], median)
                if drift > metric["bound"]:
                    status += f" DRIFT {drift:+.3f}"
                    steady = False
            print(f"  {name:<16} {median:>12.6g} {spread:>8.4f} "
                  f"{metric['bound']:>6.3f}  {status}")
            summary[workload][name] = {"median": median, "spread": spread,
                                       "values": values[name]}
    out = os.path.join(ROOT, ".bench_build", "servebench",
                       f"steadiness-{args.first_seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"summary: {out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
