#!/usr/bin/env python3
"""Determinism and routing self-check for the verdict benchmark.

    python3 perfbench/selfcheck.py --seed 101 --other-seed 202

For every workload: two traced runs with ``--seed`` must give identical call
counts and report-derived counts (each traced run also checks that its traced
pass returns the same verdicts as its untraced pass), and one untraced run
with ``--other-seed`` must verify every verdict.  Across the workloads every
installed wrapper must fire at least once, ``morse.critical_points`` must not
run on cut_support and must run on the other two, and the cycle memo hit
ratio must be highest on cut_support and lowest on refined_index.  Takes
about five minutes on a 2-core VM; exits nonzero on any failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, trace: int) -> tuple[int, list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, lines, result


def counts(lines: list[str]) -> dict[str, int]:
    """Call counts per span and report-derived counts, from a traced run."""
    out: dict[str, int] = {}
    for line in lines:
        words = line.split()
        if words[:1] == ["total"]:
            out[words[1]] = int(words[3])
        elif words[:1] == ["report"]:
            out[f"report.{words[1]}"] = int(words[2])
    return out


def absent(lines: list[str]) -> set[str]:
    for line in lines:
        if line.strip().startswith("absent"):
            return set(line.split(":", 1)[1].split())
    return set()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--other-seed", type=int, default=202)
    args = ap.parse_args(argv)

    problems: list[str] = []
    fired: dict[str, int] = {}
    missing: set[str] = set()
    memo: dict[str, float] = {}
    critical: dict[str, int] = {}
    for w in WORKLOADS:
        runs = [bench(w, args.seed, 1) for _ in range(2)]
        for code, _, result in runs:
            if code != 0 or not result.get("correct"):
                problems.append(f"{w}: traced run failed or traced and untraced verdicts differ")
        first, second = (counts(lines) for _, lines, _ in runs)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            problems.append(f"{w}: counts differ between two traced runs: {', '.join(diff)}")
        for name, calls in first.items():
            fired[name] = fired.get(name, 0) + calls
        missing |= absent(runs[0][1])
        metrics = runs[0][2].get("metrics", {})
        memo[w] = metrics.get("charcycle.memo_hit_ratio", {}).get("value", float("nan"))
        critical[w] = first.get("morse.critical_points", 0)

        code, _, result = bench(w, args.other_seed, 0)
        if code != 0 or result.get("failed") != 0:
            problems.append(f"{w}: seed {args.other_seed} has failed verdicts")
        print(f"{w}: calls repeat {first == second}; memo hit ratio {memo[w]:.4f}; "
              f"critical_points calls {critical[w]}; seed {args.other_seed} "
              f"failed {result.get('failed')} of {result.get('attempted')}")

    idle = sorted(n for n, c in fired.items() if c == 0 and not n.startswith("report."))
    if idle:
        problems.append("wrappers that never fired on any workload: " + " ".join(idle))
    if missing:
        print("absent targets, reported as such: " + " ".join(sorted(missing)))
    if critical["cut_support"] != 0 or not (critical["tube_morse"] and critical["refined_index"]):
        problems.append(f"critical_points routing: {critical}")
    if not memo["cut_support"] > memo["tube_morse"] > memo["refined_index"]:
        problems.append(f"memo hit ratio ordering: {memo}")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
