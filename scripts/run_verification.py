#!/usr/bin/env python3
"""Sweep the four verifiers over the fixture corpus and print a scoreboard.

Exit status is nonzero as soon as any report comes back violated, so the
script doubles as a cheap pre-commit check.  Random fixtures carry no curated
theorem-1 cases, so each gets a theorem1-lines row instead: every function
against lines through vertex pairs drawn by random.Random(fixture seed).  A
HypothesisViolationError there counts as inadmissible, not as bad.

    python3 scripts/run_verification.py
    python3 scripts/run_verification.py --fixtures book sphere --seeds 5
    python3 scripts/run_verification.py --random 4 --subdivide
"""

from __future__ import annotations

import argparse
import sys
import time

from eulercc import (
    CharacteristicCycle,
    HypothesisViolationError,
    barycentric_subdivide,
    builtin_fixtures,
    euler_integral,
    fixture_by_name,
    global_index,
    local_index,
    boundary_estimate_check,
    random_fixture,
    transport,
    verify_theorem1,
)
from eulercc.fixtures import vertex_pair_lines

# theorem-1 level functions drawn per random fixture: lines through vertex pairs
LINES_PER_FIXTURE = 6


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixtures", nargs="*", default=None,
                    help="builtin fixture names (default: all)")
    ap.add_argument("--random", type=int, default=0, metavar="N",
                    help="also sweep N random fixtures")
    ap.add_argument("--seeds", type=int, default=3,
                    help="seeds per fixture for the global index sweep")
    ap.add_argument("--subdivide", action="store_true",
                    help="repeat the curated pairings after one barycentric subdivision")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.fixtures is None:
        corpus = builtin_fixtures()
    else:
        corpus = [fixture_by_name(name) for name in args.fixtures]
    corpus = [(fx, None) for fx in corpus]
    corpus += [(random_fixture(seed), seed) for seed in range(args.random)]

    failures = 0
    print(f"{'fixture':<14} {'check':<22} {'runs':>4} {'bad':>3} {'inadm':>5} {'time':>7}")
    for fx, random_seed in corpus:
        rows: list[tuple[str, int, int, int, float]] = []

        t0 = time.time()
        runs = bad = 0
        for fname, alpha in fx.functions.items():
            expected = euler_integral(alpha)
            cc = CharacteristicCycle(alpha)
            for seed in range(args.seeds):
                rep = global_index(alpha, seed=seed, cc=cc)
                runs += 1
                bad += 0 if rep.holds and rep.rhs == expected else 1
        rows.append(("global-index", runs, bad, 0, time.time() - t0))

        t0 = time.time()
        if random_seed is None:
            runs = bad = 0
            for case in fx.theorem_cases:
                rep = verify_theorem1(fx.functions[case.alpha], fx.morse_inputs[case.function])
                runs += 1
                bad += 0 if rep.holds and rep.lhs == case.expected else 1
            rows.append(("theorem1", runs, bad, 0, time.time() - t0))
        else:
            runs = bad = inadmissible = 0
            for f in vertex_pair_lines(fx.complex, random_seed, LINES_PER_FIXTURE):
                for alpha in fx.functions.values():
                    runs += 1
                    try:
                        rep = verify_theorem1(alpha, f)
                    except HypothesisViolationError:
                        inadmissible += 1
                        continue
                    bad += 0 if rep.holds else 1
            rows.append(("theorem1-lines", runs, bad, inadmissible, time.time() - t0))

        t0 = time.time()
        runs = bad = 0
        for alpha in fx.functions.values():
            for v in range(len(fx.complex.vertices)):
                rep = local_index(alpha, v)
                runs += 1
                bad += 0 if rep.holds else 1
        rows.append(("local-index", runs, bad, 0, time.time() - t0))

        if fx.cut_function is not None:  # random fixtures carry no cut
            t0 = time.time()
            runs = bad = 0
            g = fx.morse_inputs[fx.cut_function]
            for delta in fx.cut_levels:
                for side in ("shriek", "star"):
                    rep = boundary_estimate_check(fx.functions["one"], g, delta, side)
                    runs += 1
                    bad += 0 if rep.holds else 1
            rows.append(("boundary-estimate", runs, bad, 0, time.time() - t0))

        if args.subdivide and fx.theorem_cases:
            t0 = time.time()
            runs = bad = 0
            step = barycentric_subdivide(fx.complex)
            for case in fx.theorem_cases:
                rep = verify_theorem1(
                    transport(fx.functions[case.alpha], step),
                    fx.morse_inputs[case.function],
                )
                runs += 1
                bad += 0 if rep.holds and rep.lhs == case.expected else 1
            rows.append(("theorem1-subdivided", runs, bad, 0, time.time() - t0))

        for check, runs, bad, inadmissible, dt in rows:
            failures += bad
            print(f"{fx.name:<14} {check:<22} {runs:>4} {bad:>3} {inadmissible:>5} {dt:>6.2f}s")

    print(f"\n{'VIOLATIONS: ' + str(failures) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
