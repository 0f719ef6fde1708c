"""Theorem 1 on the given complex against the tube-and-slice oracle.

The two agree wherever the oracle's tube meets no zero-level stratum outside
K.  Where it does meet one, the oracle's slice term misreads the lhs; the
five flat-edge cases below are such inputs.
"""

from __future__ import annotations

import pytest
from theorem1_oracle import build_tube_spec, tube_theorem1

from eulercc import (
    AffineFunction,
    HypothesisViolationError,
    Vec,
    barycentric_subdivide,
    random_fixture,
    simplex,
    slice_integral,
    transport,
    verify_theorem1,
)
from eulercc.complexes import closed_star_of_simplex, is_subcomplex
from eulercc.fixtures import vertex_pair_lines

FIXED_LINES = (
    AffineFunction(Vec.of(1, 0), -2),
    AffineFunction(Vec.of(0, 1), -2),
    AffineFunction(Vec.of(1, 1), -4),
    AffineFunction(Vec.of(-1, 1), 0),
)


def _zero_level(cx, f) -> set:
    return {s for s in cx.simplices if all(cx.vertex_value(f, v) == 0 for v in s)}


def test_build_tube_spec_shapes(by_name) -> None:
    fx = by_name["triangle"]
    res = barycentric_subdivide(fx.complex)
    alpha2 = transport(fx.functions["one"], res)
    base = frozenset({simplex([0])})
    spec = build_tube_spec(res.complex, base, fx.morse_inputs["y"])
    assert spec.epsilon > 0
    assert base <= spec.tube
    assert is_subcomplex(res.complex, spec.tube)
    assert spec.tube == closed_star_of_simplex(res.complex, simplex([0]))
    # the shrunken level slice stays inside the tube and off the vertices
    value = slice_integral(alpha2, spec.tube, spec.level_function, -spec.epsilon)
    assert isinstance(value, int)


def test_curated_cases_and_their_subdivisions_match_the_oracle(builtins) -> None:
    calls = 0
    for fx in builtins:
        step = barycentric_subdivide(fx.complex)
        for case in fx.theorem_cases:
            f = fx.morse_inputs[case.function]
            for alpha in (fx.functions[case.alpha], transport(fx.functions[case.alpha], step)):
                calls += 1
                report = verify_theorem1(alpha, f)
                oracle = tube_theorem1(alpha, f)
                assert report.lhs == report.rhs == case.expected, (fx.name, case)
                assert (oracle.lhs, oracle.rhs) == (report.lhs, report.rhs), (fx.name, case)
    assert calls == 44


def test_random_lines_match_the_oracle_where_its_tube_is_clean() -> None:
    """random_fixture 0-3, every function, the four fixed lines and two
    lines through vertex pairs: both raise on the same inputs, and on every
    clean admissible one they give the same lhs and rhs."""
    raised = clean = dirty = 0
    for seed in range(4):
        fx = random_fixture(seed)
        for f in FIXED_LINES + tuple(vertex_pair_lines(fx.complex, seed, 2)):
            level = _zero_level(fx.complex, f)
            for fname, alpha in fx.functions.items():
                try:
                    report = verify_theorem1(alpha, f)
                except HypothesisViolationError:
                    with pytest.raises(HypothesisViolationError):
                        tube_theorem1(alpha, f)
                    raised += 1
                    continue
                assert report.holds, (seed, fname, f)
                oracle = tube_theorem1(alpha, f)
                assert oracle.rhs == report.rhs, (seed, fname, f)
                if (oracle.tube_strata & level) - oracle.K:
                    dirty += 1
                    continue
                clean += 1
                assert oracle.lhs == report.lhs, (seed, fname, f)
    assert (raised, clean, dirty) == (24, 29, 19)


@pytest.mark.parametrize(
    "seed, fname, linear, constant, oracle_lhs, value",
    [
        (14, "random0", ("-1/2", "1/2"), 1, 7, 4),
        (15, "dual_one", (-1, 1), 0, -1, -2),
        (15, "random0", (-1, 1), 0, -10, -7),
        (18, "dual_one", ("-2/3", "-1/3"), "4/3", -1, -2),
        (21, "one", (-1, 1), 0, 0, -1),
    ],
)
def test_oracle_misreads_only_where_its_tube_meets_the_zero_level_outside_k(
    seed, fname, linear, constant, oracle_lhs, value
) -> None:
    fx = random_fixture(seed)
    f = AffineFunction(Vec.of(*linear), constant)
    oracle = tube_theorem1(fx.functions[fname], f)
    assert (oracle.lhs, oracle.rhs) == (oracle_lhs, value)
    assert (oracle.tube_strata & _zero_level(fx.complex, f)) - oracle.K
