"""Stratumwise critical points and the Morse count at the eta -> 0+ limit."""

from __future__ import annotations

from fractions import Fraction

import pytest

from eulercc import (
    AffineFunction,
    DegeneracyError,
    DegenerateFunctionError,
    InputError,
    QuadAffineFunction,
    RationalSampler,
    SymMatrix,
    Vec,
    close_under_faces,
    critical_points,
    rat,
    simplex,
    squared_distance_from,
    stabilized_count,
    stratified_morse_sum,
)
from eulercc.morse import morse_sign


def _parabola_1d() -> QuadAffineFunction:
    # (x - 1)^2 expanded
    return QuadAffineFunction(Vec.of(-2), rat(1), SymMatrix.identity(1))


def _tilt(seed: int, dim: int) -> tuple[Vec, Vec]:
    """(center, direction) of the bump, drawn as the verifiers draw them."""
    sampler = RationalSampler(seed)
    return sampler.vector(dim, max_den=64), sampler.nonzero_vector(dim, max_den=64)


def test_distance_function_critical_points_frozen(by_name) -> None:
    """Seven critical points of the distance from an interior base point:
    one per stratum, each at the orthogonal projection of the base."""
    cx = by_name["triangle"].complex
    f = squared_distance_from(Vec.of("1/3", "1/3"))
    cps = critical_points(f, cx)
    located = {
        tuple(sorted(cp.stratum.simplex)): tuple(cp.point) for cp in cps
    }
    third = Fraction(1, 3)
    assert located == {
        (0,): (0, 0),
        (1,): (2, 0),
        (2,): (0, 2),
        (0, 1): (third, 0),
        (0, 2): (0, third),
        (1, 2): (1, 1),
        (0, 1, 2): (third, third),
    }
    for cp in cps:
        assert cp.index == 0
        assert cp.hessian_inertia.n_neg == 0
        assert cp.hessian_inertia.n_zero == 0


def test_critical_covector_annihilates_stratum_directions(by_name) -> None:
    cx = by_name["sphere"].complex
    f = squared_distance_from(Vec.of("1/5", "1/7", "1/11"))
    for cp in critical_points(f, cx):
        for d in cp.stratum.direction_basis:
            assert cp.covector.dot(d) == 0


def test_vertices_are_always_critical(by_name) -> None:
    cx = by_name["ygraph"].complex
    f = AffineFunction(Vec.of(1, "1/3"))
    cps = critical_points(f, cx)
    vertex_strata = {tuple(sorted(cp.stratum.simplex)) for cp in cps}
    assert {(0,), (1,), (2,), (3,)} <= vertex_strata


def test_affine_function_has_no_edge_interior_critical_points(by_name) -> None:
    cx = by_name["ygraph"].complex
    f = AffineFunction(Vec.of(1, "1/3"))
    for cp in critical_points(f, cx):
        assert cp.stratum.dim == 0


def test_constant_restriction_is_degenerate(by_name) -> None:
    cx = by_name["triangle"].complex
    # x + y is constant along the hypotenuse
    with pytest.raises(DegenerateFunctionError):
        critical_points(AffineFunction(Vec.of(1, 1)), cx)


def test_index_and_sign_for_concave_restriction(by_name) -> None:
    cx = by_name["interval"].complex
    # -(x-1)^2: interior maximum on the edge
    f = QuadAffineFunction(Vec.of(2), rat(-1), SymMatrix.identity(1).scale(-1))
    edge_cp = [
        cp for cp in critical_points(f, cx) if cp.stratum.simplex == simplex([0, 1])
    ]
    assert len(edge_cp) == 1
    assert edge_cp[0].index == 1
    assert morse_sign(edge_cp[0]) == -1
    assert edge_cp[0].point == Vec.of(1)


def test_morse_sum_equals_euler_characteristic(by_name) -> None:
    iv = by_name["interval"]
    assert stratified_morse_sum(iv.functions["one"], _parabola_1d()) == 1
    tr = by_name["triangle"]
    f = squared_distance_from(Vec.of("1/3", "1/3"))
    assert stratified_morse_sum(tr.functions["one"], f) == 1


def test_rational_sampler_is_deterministic() -> None:
    a = RationalSampler(42)
    b = RationalSampler(42)
    assert [a.integer(-5, 5) for _ in range(10)] == [
        b.integer(-5, 5) for _ in range(10)
    ]
    assert a.vector(3) == b.vector(3)
    v = a.nonzero_vector(4)
    assert not v.is_zero()


def test_rational_sampler_seeds_differ() -> None:
    assert RationalSampler(1).vector(4) != RationalSampler(2).vector(4)


def test_stabilized_count_frozen_on_interval(by_name) -> None:
    iv = by_name["interval"]
    assert stabilized_count(iv.functions["one"], _parabola_1d(), *_tilt(0, 1)) == 1


def test_stabilized_count_matches_across_seeds(by_name) -> None:
    tr = by_name["triangle"]
    f = squared_distance_from(Vec.of("1/3", "1/3"))
    values = set()
    for seed in range(3):
        values.add(stabilized_count(tr.functions["one"], f, *_tilt(seed, 2)))
    assert values == {1}


def test_stabilized_count_reads_any_set_of_strata(by_name) -> None:
    """The count is additive over strata, so an open star and its
    complement split the count on the whole complex."""
    tr = by_name["triangle"]
    f = squared_distance_from(Vec.of("1/3", "1/3"))
    alpha = tr.functions["one"]
    star = [simplex([0]), simplex([0, 1]), simplex([0, 2]), simplex([0, 1, 2])]
    rest = [s for s in tr.complex.simplices if s not in star]
    tilt = _tilt(0, 2)
    assert stabilized_count(alpha, f, *tilt, star) + stabilized_count(
        alpha, f, *tilt, rest
    ) == stabilized_count(alpha, f, *tilt)
    with pytest.raises(InputError):
        stabilized_count(alpha, f, *tilt, [simplex([0, 9])])


def test_degeneracy_on_adversarial_direction(by_name) -> None:
    """A center/direction pair chosen so the gradient at vertex 0 pairs to
    zero with the flat star direction at every eta is a typed degeneracy."""
    tr = by_name["triangle"]
    with pytest.raises(DegeneracyError) as exc:
        stabilized_count(
            tr.functions["one"],
            AffineFunction(Vec.of(0, 1)),
            Vec.of("1/2", 5),
            Vec.of(1, 1),
        )
    assert exc.value.witness == {"stratum": (0,), "star_vertex": 1}


def test_limit_count_refuses_non_isotropic_hessian(by_name) -> None:
    tr = by_name["triangle"]
    f = QuadAffineFunction(Vec.of(0, 0), rat(0), SymMatrix.from_rows([[1, 0], [0, 2]]))
    with pytest.raises(InputError):
        stabilized_count(tr.functions["one"], f, *_tilt(0, 2))
    with pytest.raises(InputError):
        concave = squared_distance_from(Vec.of(1, 1)).scale(-1)
        stabilized_count(tr.functions["one"], concave, *_tilt(0, 2))
