#!/usr/bin/env python3
"""Golden-replay gate for the riskroute CLI.

Replays a fixed set of CLI invocations against checked-in golden outputs
(``tests/golden/``) and fails loudly on any drift. Lines are compared
token by token: text tokens must match exactly, numeric tokens must agree
to a relative tolerance (default 1e-9) so the goldens survive harmless
cross-machine floating-point formatting while still catching real
behavioral drift. The ensemble JSON export carries a bitwise determinism
contract, so its case runs at two thread counts and the two outputs must
be byte-identical to each other before either is diffed against the
golden.

Regenerate after an intentional change:

    python3 tools/golden_diff.py --binary build/tools/riskroute --update

Wired as the ``golden_replay`` CTest target.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

# Case name -> CLI arguments. Every case pins the corpus seed/size and,
# where the subcommand samples, the sampling seed, so output is a pure
# function of the library. --blocks 4000 keeps the study build fast while
# exercising the full pipeline.
COMMON = ["--seed", "123", "--blocks", "4000"]
CASES = {
    "route_level3": ["route", "--network", "Level3",
                     "--from", "Houston, TX", "--to", "Boston, MA"] + COMMON,
    "route_sprint_params": ["route", "--network", "Sprint",
                            "--from", "Oakland, CA", "--to", "Atlanta, GA",
                            "--lambda-h", "2e5"] + COMMON,
    "ensemble_digex": ["ensemble", "--network", "Digex", "--scenarios", "48",
                       "--ensemble-seed", "2026", "--json"] + COMMON,
    "ensemble_sprint_season": ["ensemble", "--network", "Sprint",
                               "--scenarios", "32", "--ensemble-seed", "7",
                               "--month", "9", "--json"] + COMMON,
    # Surrogate-triaged run: pins the pilot fit, the flag/audit lanes,
    # and the Horvitz-Thompson reweighting end to end through the CLI.
    "ensemble_digex_triage": ["ensemble", "--network", "Digex",
                              "--scenarios", "4096", "--ensemble-seed",
                              "2026", "--triage", "--pilot", "64",
                              "--audit-stride", "128", "--base-rate",
                              "0.05", "--json"] + COMMON,
    # Rolling streaming session: every 4th Irene advisory through one
    # StreamAdvisory session. stdout is the concatenation of the served
    # response bodies, so this golden byte-pins the served wire bodies
    # too (body == stdout by construction).
    "stream_irene": ["stream", "--network", "Level3", "--storm", "IRENE",
                     "--step", "4"] + COMMON,
    # Per-advisory Eq 5 ratios: one frozen engine re-planed with each
    # advisory's forecast risks.
    "storm_digex_irene": ["storm", "--network", "Digex", "--storm",
                          "IRENE"] + COMMON,
    # SLA pick through MultiObjectiveRouter's Pareto front.
    "route_level3_sla": ["route", "--network", "Level3",
                         "--from", "Houston, TX", "--to", "Boston, MA",
                         "--latency-budget", "18"] + COMMON,
    # Outage validation: ensemble draws routed over the two PairRoutes
    # tables (thread identity is pinned by the OutageSim unit tests).
    "simulate_tinet": ["simulate", "--network", "Tinet", "--trials",
                       "300"] + COMMON,
}

# Alias name -> (base case, extra CLI arguments). An alias replays its
# base case with the extra flags and is held to the *base case's* golden
# file — and, when the base ran in the same invocation, to its output
# byte-for-byte. This is how the ALT contract is gated end to end:
# preparing landmarks must not change a single output byte, only the
# wall clock. --update skips aliases (their goldens belong to the base).
ALIASES = {
    "route_level3_alt": ("route_level3", ["--alt-landmarks", "8"]),
    "ensemble_digex_alt": ("ensemble_digex", ["--alt-landmarks", "8"]),
}

# Cases whose output must also be byte-identical across worker counts
# (the ensemble determinism contract) -> list of extra thread counts.
# The ALT alias repeats the sweep so the thread-independence contract is
# exercised with goal-directed searches active.
BITWISE_THREAD_CASES = {
    "ensemble_digex": ["1", "2", "8"],
    "ensemble_digex_alt": ["1", "2", "8"],
    "ensemble_digex_triage": ["1", "2", "8"],
    # The streaming correctness contract is thread-count independence of
    # every incremental answer; the rendered diff stream inherits it.
    "stream_irene": ["1", "2", "8"],
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def default_golden_dir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def run_case(binary: pathlib.Path, args: list[str],
             threads: str | None = None) -> str:
    cmd = [str(binary)] + args + (["--threads", threads] if threads else [])
    result = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    return result.stdout


def tokenize(line: str) -> list[str]:
    """Splits a line into text and number tokens (numbers kept whole)."""
    tokens = []
    pos = 0
    for match in NUMBER.finditer(line):
        if match.start() > pos:
            tokens.append(line[pos:match.start()])
        tokens.append(match.group())
        pos = match.end()
    if pos < len(line):
        tokens.append(line[pos:])
    return tokens


def diff_outputs(expected: str, actual: str, rel_tol: float) -> list[str]:
    """Token-level diff; returns human-readable mismatch descriptions."""
    errors = []
    exp_lines = expected.rstrip("\n").split("\n")
    act_lines = actual.rstrip("\n").split("\n")
    if len(exp_lines) != len(act_lines):
        errors.append(f"line count {len(act_lines)} != expected "
                      f"{len(exp_lines)}")
    for lineno, (exp, act) in enumerate(zip(exp_lines, act_lines), 1):
        exp_tokens = tokenize(exp.rstrip())
        act_tokens = tokenize(act.rstrip())
        if len(exp_tokens) != len(act_tokens):
            errors.append(f"line {lineno}: {act!r} != expected {exp!r}")
            continue
        for exp_tok, act_tok in zip(exp_tokens, act_tokens):
            if exp_tok == act_tok:
                continue
            if NUMBER.fullmatch(exp_tok) and NUMBER.fullmatch(act_tok):
                e, a = float(exp_tok), float(act_tok)
                if abs(a - e) <= rel_tol * max(abs(e), abs(a), 1e-300):
                    continue
                errors.append(f"line {lineno}: number {act_tok} != expected "
                              f"{exp_tok} (rel tol {rel_tol})")
            else:
                errors.append(f"line {lineno}: token {act_tok!r} != expected "
                              f"{exp_tok!r}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", type=pathlib.Path, required=True,
                        help="path to the riskroute CLI executable")
    parser.add_argument("--golden-dir", type=pathlib.Path,
                        default=default_golden_dir(),
                        help="directory of checked-in golden outputs")
    parser.add_argument("--rel-tol", type=float, default=1e-9,
                        help="relative tolerance for numeric tokens")
    parser.add_argument("--only", action="append", default=None,
                        help="run only the named case(s)")
    parser.add_argument("--update", action="store_true",
                        help="regenerate the golden files instead of diffing")
    args = parser.parse_args()

    if not args.binary.exists():
        print(f"golden_diff: no such binary: {args.binary}", file=sys.stderr)
        return 2

    names = args.only if args.only else sorted(CASES) + sorted(ALIASES)
    unknown = [n for n in names if n not in CASES and n not in ALIASES]
    if unknown:
        print(f"golden_diff: unknown case(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    failures = []
    outputs: dict[str, str] = {}
    for name in names:
        base = ALIASES[name][0] if name in ALIASES else name
        case_args = (CASES[base] + ALIASES[name][1] if name in ALIASES
                     else CASES[name])
        golden_path = args.golden_dir / f"{base}.golden"
        output = run_case(args.binary, case_args)
        outputs[name] = output

        for threads in BITWISE_THREAD_CASES.get(name, []):
            rerun = run_case(args.binary, case_args, threads=threads)
            if rerun != output:
                failures.append(f"{name}: output at --threads {threads} is "
                                f"not byte-identical to the default run")

        if name in ALIASES and base in outputs:
            if output != outputs[base]:
                failures.append(f"{name}: output is not byte-identical to "
                                f"its base case {base}")

        if args.update:
            if name in ALIASES:
                continue  # the base case owns the golden file
            golden_path.parent.mkdir(parents=True, exist_ok=True)
            golden_path.write_text(output)
            print(f"wrote {golden_path}")
            continue

        if not golden_path.exists():
            failures.append(f"{name}: golden file {golden_path} is missing "
                            f"(run with --update to create it)")
            continue
        errors = diff_outputs(golden_path.read_text(), output, args.rel_tol)
        if errors:
            failures.append(f"{name}: {len(errors)} mismatch(es): " +
                            "; ".join(errors[:5]))
        else:
            print(f"{name}: OK")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
