"""The integer lambda-pencil of the boundary estimate against the Vec rule.

intersect._decomposable pairs xi and dg with the star directions in int and
hands each weak sign vector of xi - lambda * dg to the closure query;
decomposable_oracle builds the Fraction covector at each lambda and asks
closure_supports.  Both must answer alike at every witness
boundary_estimate_check tests, and at its negation, over every builtin cut at
every level, function and side, and over two cuts of each of random_fixture
0-9; and on a hand case decided at a breakpoint where the pencil pairs to zero
with a star vertex.
"""

from __future__ import annotations

from fractions import Fraction

from decomposable_oracle import decomposable_by_vec

from eulercc import (
    AffineFunction,
    CharacteristicCycle,
    EmbeddedComplex,
    Vec,
    chamber_witnesses,
    from_values,
    jshriek_extend,
    jstar_extend,
    random_fixture,
    simplex,
    subdivide_along_hyperplane,
    transport,
)
from eulercc.charcycle import weak_sign_vector
from eulercc.constructible import side_partition
from eulercc.intersect import _decomposable


def _cuts(builtins):
    """(name, functions, g, delta): every builtin cut level, and two levels
    of x + 2y, halfway between vertex values, on random_fixture 0-9."""
    for fx in builtins:
        g = fx.morse_inputs[fx.cut_function]
        for delta in fx.cut_levels:
            yield fx.name, fx.functions, g, delta
    g = AffineFunction(Vec.of(1, 2))
    for seed in range(10):
        fx = random_fixture(seed)
        values = sorted({g.value(v) for v in fx.complex.vertices})
        for i in (len(values) // 3, 2 * len(values) // 3):
            yield fx.name, fx.functions, g, (values[i - 1] + values[i]) / 2


def test_integer_pencil_matches_the_vec_pencil(builtins) -> None:
    queries = {True: 0, False: 0}
    mismatches = []
    for name, functions, g, delta in _cuts(builtins):
        sub = subdivide_along_hyperplane(functions["one"].complex, g, delta)
        cx = sub.complex
        level = side_partition(cx, g, delta)[0]
        for fname, alpha in functions.items():
            alpha2 = transport(alpha, sub)
            cc_new = CharacteristicCycle(alpha2)
            cc_old = CharacteristicCycle(alpha2)
            for side, extend in (("shriek", jshriek_extend), ("star", jstar_extend)):
                cc_beta = CharacteristicCycle(extend(alpha2, g, delta, "below"))
                for s in level:
                    S = cx.stratum(s)
                    for chamber, _ in cc_beta.nonzero_chambers(s):
                        for xi in chamber_witnesses(cx, chamber, 2):
                            for cov in (xi, xi.scale(-1)):
                                got = _decomposable(cc_new, S, cov, g.linear, side)
                                want = decomposable_by_vec(
                                    cc_old, S, cov, g.linear, side
                                )
                                queries[want] += 1
                                if got != want:
                                    mismatches.append(
                                        (name, delta, fname, side, sorted(s), cov)
                                    )
    assert queries[True] > 6000 and queries[False] > 6000
    assert mismatches == []


def _square_fan() -> EmbeddedComplex:
    """Four triangles around the origin (vertex 0), tips 1-4 on the axes."""
    return EmbeddedComplex(
        2,
        [Vec.of(0, 0), Vec.of(1, 0), Vec.of(0, 1), Vec.of(-1, 0), Vec.of(0, -1)],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]],
        close=True,
    )


def test_pencil_decided_at_a_zero_pairing_breakpoint() -> None:
    # alpha is 1 on the open triangle [0, 1, 2] only, so over the origin the
    # support is the closed quadrant xi1 <= 0, xi2 <= 0 (both tips 1 and 2
    # below); xi = (0, -1) lies on its wall xi1 = 0, and the pencil
    # xi - lambda * dg with dg = (-1, 0) leaves the quadrant for every
    # lambda > 0; the breakpoint lambda = 0 pairs to zero with tips 1 and 3
    cx = _square_fan()
    alpha = from_values(cx, {simplex([0, 1, 2]): 1})
    S = cx.stratum(simplex([0]))
    xi, dg = Vec.of(0, -1), Vec.of(-1, 0)
    cc = CharacteristicCycle(alpha)
    at_zero = cc.closure_chambers(S, xi)
    assert weak_sign_vector(cx, S, xi) == ((1, 0), (2, -1), (3, 0), (4, 1))
    assert [m for _, m in at_zero] == [1, 0]
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        assert not cc.closure_supports(S, xi - dg.scale(lam))
    for side in ("shriek", "star"):
        want = decomposable_by_vec(CharacteristicCycle(alpha), S, xi, dg, side)
        assert _decomposable(CharacteristicCycle(alpha), S, xi, dg, side) == want
        assert want
    # off the wall the pencil never meets the quadrant on the shriek side
    xi = Vec.of(1, -1)
    want = decomposable_by_vec(CharacteristicCycle(alpha), S, xi, dg, "shriek")
    assert _decomposable(CharacteristicCycle(alpha), S, xi, dg, "shriek") == want
    assert not want
