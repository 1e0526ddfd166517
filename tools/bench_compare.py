#!/usr/bin/env python3
"""Run the core performance benchmarks and gate on speedup regressions.

Runs each supplied bench binary with google-benchmark's JSON writer, pairs
every legacy-path benchmark with its optimized counterpart, and computes
the speedup ratio legacy/new. Ratios are compared within one run on one
host, so they are insensitive to absolute machine speed and background
load.

The tool then:
  1. writes a ``BENCH_perf.json`` report (raw times + speedups),
  2. fails if any speedup is below its pair's target floor scaled by
     ``--floor-scale`` (or the uniform ``--min-speedup`` override),
  3. if a baseline report exists (``--baseline``), fails if any speedup
     regressed by more than ``--regression-threshold`` relative to it, or
     if a gated pair has no entry in it (an unbaselined pair has no
     regression gate at all),
  4. collects the obs:: metrics sidecar each bench harness drops (via
     ``RISKROUTE_METRICS_OUT``) next to the report as
     ``<output stem>_<binary stem>_metrics.json`` and fails — never
     silently skips — if one is missing or does not validate against
     ``tools/metrics_schema.json``,
  5. fails on orphaned sidecars: a ``<output stem>_*_metrics.json`` file
     next to the report whose bench binary was not part of this run is a
     stale leftover (a deleted pair, or a binary dropped from the ctest
     wiring) and would misrepresent the report's provenance.

Every pair is bound to the bench binary (by basename) that registers its
benchmarks; pass ``--binary`` once per binary. A pair whose binary was not
supplied, or whose binary is missing from disk, is a hard error — pairs
are the regression surface, so dropping one silently would hide exactly
the regressions this gate exists to catch.

Because the benchmarked binaries carry the obs:: instrumentation compiled
in, the speedup floors in step 2 double as the instrumentation-overhead
gate: if metric sites ever slow a hot loop enough to push a pair below its
floor, this tool fails.

Wired as the ``bench_compare`` CTest target; also usable standalone:

    python3 tools/bench_compare.py \\
        --binary build/bench/bench_perf_core \\
        --binary build/bench/bench_ensemble
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import validate_metrics

# Pair key -> (bench binary basename, legacy benchmark, optimized
# benchmark, development-target speedup floor). Floors differ per pair:
# the KDE pairs replaced trig-heavy inner loops (3x), the all-pairs route
# sweep replaced an already-lean templated Dijkstra with the CSR engine
# (2x), the greedy scan replaced a full re-sweep per candidate with the
# incremental identity (3x), and the ensemble pair replaced per-pair
# allocating Dijkstras with hash-set failure checks by frozen-CSR overlay
# sweeps (3x), and the continental-scale pair replaced full per-source
# Dijkstra sweeps with per-pair landmark-guided A* on sparse target sets
# (3x). The ctest wiring scales every floor by --floor-scale to
# tolerate noisy shared hosts; run standalone for the strict targets.
PAIRS = {
    "evaluate": ("bench_perf_core",
                 "BM_KdeEvaluateLegacy", "BM_KdeEvaluateBatch", 3.0),
    "raster": ("bench_perf_core",
               "BM_KdeRasterLegacy", "BM_KdeRasterParallel", 3.0),
    "bandwidth_cv": ("bench_perf_core",
                     "BM_BandwidthCVLegacy", "BM_BandwidthCV", 3.0),
    "route_allpairs": ("bench_perf_core",
                       "BM_RouteAllPairsLegacy", "BM_RouteAllPairsEngine", 2.0),
    "greedy_scan": ("bench_perf_core",
                    "BM_GreedyScanLegacy", "BM_GreedyScanEngine", 3.0),
    "ensemble": ("bench_ensemble",
                 "BM_EnsembleLegacy", "BM_EnsembleBatched", 3.0),
    "scale_mtm": ("bench_scale",
                  "BM_ScaleManyToManyDijkstra", "BM_ScaleManyToManyAlt", 3.0),
    # Not a kernel rewrite but a boot amortization: the warm daemon pays
    # one wire round trip where the cold CLI re-parses the ALT-ready
    # engine snapshot per query (and the cold side is not even charged
    # for process spawn, so the real gap is wider).
    "server_route": ("bench_server",
                     "BM_ColdCliRoute", "BM_WarmServerRoute", 10.0),
    # Streaming re-route: one rolling StreamingReroute session ingesting
    # an advisory (footprint raster + overlay sweeps over affected pairs
    # only) against a full per-advisory rebuild (forecast plane + engine
    # refreeze + every-pair sweep). The answers are bitwise identical
    # (tests/streaming_test.cpp); only the work per advisory differs.
    "stream_reroute": ("bench_stream",
                       "BM_StreamFullRebuild", "BM_StreamIncremental", 5.0),
    # Surrogate-triaged ensemble: a full exact run over a 100k-scenario
    # universe against TriagedEnsemble's pilot-fit + flag/audit/importance
    # -sample run over the same universe (identical draws, identical
    # engine). The triaged side pays features for every scenario but
    # exact overlay sweeps only for the ~1% it keeps.
    "ensemble_triage": ("bench_ensemble",
                        "BM_EnsembleExactFull", "BM_EnsembleTriaged", 5.0),
}


def resolve_binaries(supplied: list[pathlib.Path]) -> dict[str, pathlib.Path]:
    """Maps each PAIRS binary basename to its supplied path, or dies."""
    by_stem = {path.name: path for path in supplied}
    missing = []
    for key, (stem, _, _, _) in PAIRS.items():
        if stem not in by_stem:
            missing.append(f"pair '{key}' needs --binary .../{stem}")
        elif not by_stem[stem].exists():
            missing.append(f"pair '{key}': no such binary: {by_stem[stem]}")
    if missing:
        raise SystemExit("bench_compare: " + "; ".join(missing))
    return {stem: by_stem[stem]
            for stem, _, _, _ in PAIRS.values()}


def run_benchmarks(binary: pathlib.Path, names: list[str], min_time: float,
                   metrics_out: pathlib.Path) -> dict:
    """Runs the benchmark binary, returns the parsed google-benchmark JSON.

    The bench harness writes its obs:: metrics sidecar to ``metrics_out``
    (pointed there via the RISKROUTE_METRICS_OUT environment variable).
    """
    # The bench harness prints a human banner to stdout, so the JSON must go
    # through --benchmark_out rather than --benchmark_format=json.
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = pathlib.Path(tmp.name)
    cmd = [
        str(binary),
        f"--benchmark_filter=^({'|'.join(sorted(names))})$",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    env = dict(os.environ, RISKROUTE_METRICS_OUT=str(metrics_out))
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=env)
        return json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)


def check_metrics_sidecar(sidecar: pathlib.Path) -> list[str]:
    """Validates the bench metrics sidecar against the checked-in schema."""
    if not sidecar.exists():
        return [f"metrics sidecar {sidecar} was not written by the bench "
                f"harness (RISKROUTE_METRICS_OUT plumbing broken?)"]
    schema = json.loads(validate_metrics.default_schema_path().read_text())
    doc = json.loads(sidecar.read_text())
    errors = [f"metrics sidecar: {e}"
              for e in validate_metrics.validate(doc, schema)]
    if not doc.get("stable", {}).get("counters"):
        errors.append("metrics sidecar: stable counter section is empty — "
                      "the instrumented hot paths recorded nothing")
    return errors


def check_orphan_sidecars(output: pathlib.Path,
                          expected: list[pathlib.Path]) -> list[str]:
    """Hard-fails on sidecars this run did not produce.

    A ``<output stem>_*_metrics.json`` file beside the report whose bench
    binary is not part of the current PAIRS/--binary set means a pair was
    removed without cleaning up its artifacts; left in place it would read
    as fresh output of this run.
    """
    known = {sidecar.resolve() for sidecar in expected}
    return [f"orphaned metrics sidecar {found}: its bench binary is not "
            f"part of this run — delete the file or restore its PAIRS entry"
            for found in sorted(output.parent.glob(
                f"{output.stem}_*_metrics.json"))
            if found.resolve() not in known]


def real_times(report: dict) -> dict[str, float]:
    """Maps benchmark name -> real time in nanoseconds."""
    times = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        times[bench["name"]] = float(bench["real_time"]) * scale
    return times


def build_report(times: dict[str, float]) -> dict:
    report = {"pairs": {}}
    for key, (stem, legacy, new, floor) in PAIRS.items():
        if legacy not in times or new not in times:
            raise SystemExit(
                f"bench_compare: missing benchmark(s) for pair '{key}': "
                f"{legacy}={times.get(legacy)}, {new}={times.get(new)}"
            )
        report["pairs"][key] = {
            "binary": stem,
            "legacy_benchmark": legacy,
            "new_benchmark": new,
            "legacy_ns": times[legacy],
            "new_ns": times[new],
            "speedup": times[legacy] / times[new],
            "target_speedup": floor,
        }
    return report


def check_floor(report: dict, floor_scale: float,
                min_speedup: float | None) -> list[str]:
    failures = []
    for key, pair in report["pairs"].items():
        floor = (min_speedup if min_speedup is not None
                 else PAIRS[key][3] * floor_scale)
        if pair["speedup"] < floor:
            failures.append(
                f"{key}: speedup {pair['speedup']:.2f}x is below the "
                f"required {floor:.2f}x floor"
            )
    return failures


def check_baseline(report: dict, baseline: dict, threshold: float) -> list[str]:
    failures = []
    for key, pair in report["pairs"].items():
        base = baseline.get("pairs", {}).get(key)
        if base is None:
            failures.append(f"{key}: no entry in the baseline — record one "
                            f"so the pair has a regression gate")
            continue
        floor = base["speedup"] * (1.0 - threshold)
        if pair["speedup"] < floor:
            failures.append(
                f"{key}: speedup {pair['speedup']:.2f}x regressed more than "
                f"{threshold:.0%} from baseline {base['speedup']:.2f}x"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", type=pathlib.Path, required=True,
                        action="append", dest="binaries", default=[],
                        help="path to a bench executable (repeatable; every "
                             "binary named in PAIRS must be supplied)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path("BENCH_perf.json"),
                        help="where to write the speedup report")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="prior BENCH_perf.json to diff against "
                             "(skipped if the file does not exist)")
    parser.add_argument("--floor-scale", type=float, default=1.0,
                        help="multiplier applied to every pair's development-"
                             "target floor (ctest uses < 1 to tolerate noisy "
                             "shared hosts)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="uniform floor overriding the per-pair targets "
                             "(legacy option; prefer --floor-scale)")
    parser.add_argument("--regression-threshold", type=float, default=0.25,
                        help="allowed fractional speedup drop vs the baseline")
    parser.add_argument("--min-time", type=float, default=0.2,
                        help="--benchmark_min_time per benchmark, seconds")
    args = parser.parse_args()

    binaries = resolve_binaries(args.binaries)
    times: dict[str, float] = {}
    sidecars: list[pathlib.Path] = []
    for stem, binary in binaries.items():
        names = [name
                 for pair_stem, legacy, new, _ in PAIRS.values()
                 if pair_stem == stem
                 for name in (legacy, new)]
        sidecar = args.output.with_name(
            f"{args.output.stem}_{stem}_metrics.json")
        sidecars.append(sidecar)
        times.update(real_times(run_benchmarks(binary, names, args.min_time,
                                               sidecar)))

    report = build_report(times)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for key, pair in report["pairs"].items():
        print(f"{key:>14}: {pair['legacy_ns'] / 1e6:8.2f} ms -> "
              f"{pair['new_ns'] / 1e6:8.2f} ms  ({pair['speedup']:.2f}x)")
    print(f"report written to {args.output}")

    failures = check_floor(report, args.floor_scale, args.min_speedup)
    failures += check_orphan_sidecars(args.output, sidecars)
    for sidecar in sidecars:
        failures += check_metrics_sidecar(sidecar)
        if sidecar.exists():
            print(f"metrics sidecar written to {sidecar}")
    if args.baseline is not None and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        failures += check_baseline(report, baseline,
                                   args.regression_threshold)
    elif args.baseline is not None:
        print(f"baseline {args.baseline} not found; skipping regression diff")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
