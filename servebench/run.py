#!/usr/bin/env python3
"""Builds and runs the served end-to-end benchmark (see README.md).

    python3 servebench/run.py --workload route_serve --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --workload all          # every workload in turn

Run from anywhere inside a checkout of the repository. The first run
configures and builds servebench/ (which compiles the riskroute libraries
from src/) into .bench_build/servebench; later runs rebuild incrementally.
Build output goes to stderr. The last stdout line is the run's JSON
result: correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). Each run also writes a full
record under .bench_build/servebench/records/, and traced runs write their
spans under .bench_build/servebench/spans/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("route_serve", "storm_replay", "ensemble_whatif")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "serve_bench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds serve_bench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no riskroute sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "serve_bench"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, commit):
    """Runs one workload; returns (exit code, parsed result or None)."""
    for sub in ("run", "records", "spans"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    command = [
        BINARY, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--commit", commit,
        "--work-dir", os.path.relpath(os.path.join(BUILD, "run"), ROOT),
        "--record", os.path.join(BUILD, "records", tag + ".json"),
    ]
    if trace:
        command += ["--spans", os.path.join(BUILD, "spans", tag + ".jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log(f"{workload} printed no result (exit code {done.returncode})")
        return done.returncode or 1, None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    commit = source_id()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    results = {}
    for workload in workloads:
        rc, result = run_one(workload, args.seed, args.seconds, args.trace,
                             commit)
        if result is None:
            return rc
        code = code or rc
        results[workload] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return code


if __name__ == "__main__":
    sys.exit(main())
