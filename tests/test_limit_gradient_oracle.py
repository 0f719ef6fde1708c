"""The integer limit frame against the Fraction Gram solve it replaced.

morse._limit_gradient reads the eta -> 0+ gradient at a stratum's critical
point from the stratum's cached integer frame; limit_gradient_oracle keeps
the per-call Fraction solve.  Inputs run over the builtin fixtures and their
1x and 2x barycentric subdivisions, with a = 0 and a >= 0, with r0 = 0 (the
oracle's short cut) in about half the draws, with each stratum dimension
equally likely, and with critical points drawn near the stratum, so that many
are interior.  The frame must give None exactly when the oracle does, and
otherwise one common positive multiple of the oracle's pair, whose limit
covector lies in the same chamber.  The frame must also live on the complex
that owns the stratum, and nowhere else.
"""

from __future__ import annotations

import gc
import types
from fractions import Fraction

import limit_gradient_oracle as oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulercc import (
    CharacteristicCycle,
    ConstructibleFunction,
    DegeneracyError,
    EmbeddedComplex,
    Vec,
    barycentric_subdivide,
    global_index,
    squared_distance_from,
    stabilized_count,
    transport,
)
from eulercc.charcycle import strict_sign_vector
from eulercc.linalg import clear_denominators
from eulercc.morse import _limit_covector, _limit_gradient


@pytest.fixture(scope="module")
def corpus(builtins) -> list[EmbeddedComplex]:
    return [
        barycentric_subdivide(fx.complex, times).complex
        for fx in builtins
        for times in (0, 1, 2)
    ]


coords = st.fractions(min_value=-3, max_value=3, max_denominator=8)
weights = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=0, max_value=3, max_denominator=8)
)


def _vec(draw, dim: int) -> Vec:
    return Vec(tuple(draw(coords) for _ in range(dim)))


def _near(draw, cx: EmbeddedComplex, s) -> Vec:
    """A point of the open simplex s, moved off it half the time, or any point.

    u = 2c * (a point near s) puts the critical point near s, so that many
    draws are interior, on a wall, or just outside."""
    kind = draw(st.sampled_from(("inside", "off", "free")))
    if kind == "free":
        return _vec(draw, cx.ambient_dim)
    weights = [draw(st.integers(1, 4)) for _ in s]
    point = Vec.zero(cx.ambient_dim)
    for w, y in zip(weights, cx.coords(s)):
        point = point + y.scale(Fraction(w, sum(weights)))
    return point + _vec(draw, cx.ambient_dim).scale(Fraction(1, 4)) if kind == "off" else point


def _common_multiple(got: tuple[int, ...], want: tuple[Fraction, ...]) -> Fraction | None:
    """c > 0 with got = c * want entrywise, or None."""
    pivot = next((i for i, w in enumerate(want) if w), None)
    if pivot is None:
        return Fraction(1) if not any(got) else None
    c = Fraction(got[pivot]) / want[pivot]
    if c <= 0 or any(g != c * w for g, w in zip(got, want)):
        return None
    return c


def _sign_vector(cx, S, covector: Vec):
    try:
        return strict_sign_vector(cx, S, covector)
    except DegeneracyError as exc:
        return ("degenerate", exc.witness)


@given(data=st.data())
def test_limit_gradient_matches_the_fraction_gram_solve(corpus, data) -> None:
    cx = data.draw(st.sampled_from(corpus))
    dim = data.draw(st.integers(0, cx.top_dim))
    s = data.draw(st.sampled_from([s for s in cx.simplices_sorted() if len(s) == dim + 1]))
    S = cx.stratum(s)
    a = data.draw(weights)
    v0 = cx.vertices[min(s)]
    u0 = (v0 if data.draw(st.booleans()) else _near(data.draw, cx, s)).scale(2 * a)
    if data.draw(st.booleans()):
        u0 = u0 + _vec(data.draw, cx.ambient_dim)  # a free eta^0 term, also with a = 0
    u1 = _near(data.draw, cx, s).scale(2)
    want = oracle.limit_gradient(cx, S, a, u0, u1)
    U0, U1, (A, M) = clear_denominators(u0, u1, Vec((a, Fraction(1))))
    got = _limit_gradient(S, A, M, U0, U1)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert _common_multiple(got[0] + got[1], want[0].entries + want[1].entries)
    try:
        want_key = _sign_vector(cx, S, oracle.limit_covector(cx, S, *want))
    except DegeneracyError as exc:
        with pytest.raises(DegeneracyError) as raised:
            _limit_covector(cx, S, *got)
        assert raised.value.witness == exc.witness
        return
    assert _sign_vector(cx, S, _limit_covector(cx, S, *got)) == want_key


def test_frame_is_the_scaled_orthogonal_projection(corpus) -> None:
    """weights . D_j = det * e_j, normal . D_j = 0 and D weights + normal = det I."""
    for cx in corpus:
        n = cx.ambient_dim
        for s in cx.simplices_sorted():
            S = cx.stratum(s)
            frame = S.limit_frame
            assert frame.det > 0
            assert Vec(frame.base).scale(Fraction(1, frame.base_den)) == S.base
            D = S.direction_basis
            for j, dj in enumerate(D):
                assert [Vec(w).dot(dj) for w in frame.weights] == [
                    frame.det * (i == j) for i in range(len(D))
                ]
                assert all(Vec(q).dot(dj) == 0 for q in frame.normal)
            for i in range(n):
                for j in range(n):
                    projected = sum((d[i] * w[j] for d, w in zip(D, frame.weights)), Fraction(0))
                    assert projected + frame.normal[i][j] == frame.det * (i == j)


def _copy(cx: EmbeddedComplex, shift: Vec | None = None) -> EmbeddedComplex:
    """A new complex with the same simplices, vertex 0 moved by shift if given."""
    vertices = list(cx.vertices)
    if shift is not None:
        vertices[0] = vertices[0] + shift
    return EmbeddedComplex(cx.ambient_dim, vertices, cx.simplices)


def test_moved_coordinates_give_their_own_counts(by_name) -> None:
    """A frame cached on one complex never serves another with the same simplices."""
    fx = by_name["triangle"]
    shift = Vec.of(-5, -5)

    def count(cx: EmbeddedComplex) -> int:
        alpha = ConstructibleFunction(cx, dict(fx.functions["one"].values))
        edges_and_face = [s for s in cx.simplices if len(s) > 1]
        return stabilized_count(
            alpha, squared_distance_from(Vec.of(0, 0)), Vec.of("1/3", "1/5"),
            Vec.of(1, 2), edges_and_face,
        )

    cold_moved = count(_copy(fx.complex, shift))
    cold = count(_copy(fx.complex))
    warm = _copy(fx.complex)
    assert count(warm) == cold
    assert count(_copy(warm, shift)) == cold_moved
    assert count(warm) == cold
    assert (cold, cold_moved) == (0, 1)


def test_shared_cycle_sweep_equals_cold_calls(by_name) -> None:
    fx = by_name["cone3"]
    alpha = transport(fx.functions["one"], barycentric_subdivide(fx.complex, 2))
    cc = CharacteristicCycle(alpha)
    shared = [global_index(alpha, seed=seed, cc=cc) for seed in range(1, 6)]
    for seed, rep in zip(range(1, 6), shared):
        fresh = transport(fx.functions["one"], barycentric_subdivide(fx.complex, 2))
        cold = global_index(fresh, seed=seed)
        assert (rep.lhs, rep.rhs, rep.holds) == (cold.lhs, cold.rhs, cold.holds)
        assert rep.artifacts["seed_used"] == cold.artifacts["seed_used"]


def test_frame_is_held_only_by_its_stratum(by_name) -> None:
    fx = by_name["triangle"]
    cx = _copy(fx.complex)
    global_index(ConstructibleFunction(cx, dict(fx.functions["one"].values)), seed=1)
    for s in cx.simplices:
        S = cx.stratum(s)
        assert "limit_frame" in vars(S)  # filled by the count, not by this test
        holders = [
            r for r in gc.get_referrers(S.limit_frame)
            if not isinstance(r, types.FrameType)
        ]
        assert holders == [vars(S)]
