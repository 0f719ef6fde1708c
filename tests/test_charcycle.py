"""Conormal chambers and characteristic cycle multiplicities."""

from __future__ import annotations

import gc
import types

import pytest

import eulercc.charcycle as charcycle
import eulercc.intersect as intersect
from eulercc import (
    CharacteristicCycle,
    EmbeddedComplex,
    InputError,
    Vec,
    antipodal_support_check,
    boundary_estimate_check,
    chamber_witnesses,
    constant_function,
    dual,
    enumerate_chambers,
    euler_integral,
    from_values,
    is_nondegenerate,
    multiplicity_at,
    simplex,
    support_contains,
)
from eulercc.charcycle import (
    conormal_frame,
    strict_sign_vector,
    weak_sign_vector,
)
from eulercc.linalg import orthogonal_complement

# conormal multiplicities of the constant function along the book spine,
# keyed by the chamber signs at the three page tips
BOOK_SPINE_TABLE = {
    ((2, -1), (3, -1), (4, 1)): -1,
    ((2, -1), (3, 1), (4, 1)): 0,
    ((2, 1), (3, -1), (4, -1)): -1,
    ((2, 1), (3, 1), (4, -1)): 0,
}


def test_conormal_basis_dimensions(by_name) -> None:
    cx = by_name["book"].complex
    spine = cx.stratum(simplex([0, 1]))
    basis = conormal_frame(cx, spine).basis
    assert len(basis) == cx.ambient_dim - spine.dim
    for b in basis:
        for d in spine.direction_basis:
            assert b.dot(d) == 0


def test_is_nondegenerate_frozen(by_name) -> None:
    cx = by_name["cone3"].complex
    assert is_nondegenerate(cx, simplex([0]), Vec.of(0, 1))
    # (1,1) annihilates the star direction toward vertex 3 at (1,-1)
    assert not is_nondegenerate(cx, simplex([0]), Vec.of(1, 1))


def test_chamber_count_frozen(by_name) -> None:
    assert len(enumerate_chambers(by_name["interval"].complex, simplex([0]))) == 2
    assert len(enumerate_chambers(by_name["circle"].complex, simplex([0]))) == 4
    assert len(enumerate_chambers(by_name["book"].complex, simplex([0, 1]))) == 4


def test_top_stratum_has_single_trivial_chamber(by_name) -> None:
    cx = by_name["interval"].complex
    chambers = enumerate_chambers(cx, simplex([0, 1]))
    assert len(chambers) == 1
    assert chambers[0].sign_vector == ()
    assert chambers[0].witness.is_zero()


def test_book_spine_multiplicities_frozen(by_name) -> None:
    fx = by_name["book"]
    spine = simplex([0, 1])
    table = {
        tuple(sorted(ch.sign_vector)): multiplicity_at(
            fx.functions["one"], spine, ch.witness
        )
        for ch in enumerate_chambers(fx.complex, spine)
    }
    assert table == BOOK_SPINE_TABLE


def test_witness_realizes_its_sign_vector(builtins) -> None:
    for fx in builtins:
        cx = fx.complex
        for s in cx.simplices:
            stratum = cx.stratum(s)
            for ch in enumerate_chambers(cx, s):
                observed = tuple(sorted(strict_sign_vector(cx, stratum, ch.witness)))
                assert observed == tuple(sorted(ch.sign_vector)), (fx.name, sorted(s))


def test_weak_sign_vector_records_zero_pairings(by_name) -> None:
    cx = by_name["cone3"].complex
    stratum = cx.stratum(simplex([0]))
    weak = dict(weak_sign_vector(cx, stratum, Vec.of(1, 1)))
    # vertex 3 at (1,-1) pairs to zero: weak vectors keep it with sign 0
    assert weak == {1: -1, 2: -1, 3: 0}


def test_sign_vectors_reject_a_covector_of_the_wrong_dimension(by_name) -> None:
    # the integer pairings must not truncate a longer covector to the star's length
    cx = by_name["cone3"].complex
    stratum = cx.stratum(simplex([0]))
    for sign_vector in (strict_sign_vector, weak_sign_vector):
        with pytest.raises(InputError, match="dimension mismatch"):
            sign_vector(cx, stratum, Vec.of(1, 1, 1))


def test_multiplicity_constant_across_chamber_witnesses(by_name) -> None:
    for name in ("circle", "cone3", "book"):
        fx = by_name[name]
        alpha = fx.functions["random0"]
        for s in fx.complex.simplices:
            for ch in enumerate_chambers(fx.complex, s):
                values = {
                    multiplicity_at(alpha, s, w)
                    for w in chamber_witnesses(fx.complex, ch, count=3)
                }
                assert len(values) == 1, (name, sorted(s))


def test_characteristic_cycle_memoizes_chamber_values(by_name) -> None:
    fx = by_name["susp3"]
    alpha = fx.functions["one"]
    cc = CharacteristicCycle(alpha)
    for s in fx.complex.simplices:
        for ch, m in cc.chamber_multiplicities(s):
            assert m == multiplicity_at(alpha, s, ch.witness)
        nonzero = {tuple(sorted(c.sign_vector)) for c, _ in cc.nonzero_chambers(s)}
        expect = {
            tuple(sorted(c.sign_vector))
            for c, m in cc.chamber_multiplicities(s)
            if m != 0
        }
        assert nonzero == expect


def test_zero_function_supports_nothing(by_name) -> None:
    cx = by_name["triangle"].complex
    cc = CharacteristicCycle(from_values(cx, {}))
    for s in cx.simplices:
        assert cc.nonzero_chambers(s) == []


def test_support_contains_frozen_on_interval(by_name) -> None:
    fx = by_name["interval"]
    cc = CharacteristicCycle(fx.functions["one"])
    v0 = fx.complex.vertices[0]
    # the covector with empty lower halflink survives, the other cancels
    assert support_contains(cc, v0, Vec.of(1))
    assert not support_contains(cc, v0, Vec.of(-1))
    midpoint = Vec.of(1)
    assert support_contains(cc, midpoint, Vec.of(0))


def test_support_query_outside_complex_raises(by_name) -> None:
    fx = by_name["interval"]
    cc = CharacteristicCycle(fx.functions["one"])
    with pytest.raises(InputError):
        support_contains(cc, Vec.of(17), Vec.of(1))


def test_antipodal_support_on_named_functions(by_name) -> None:
    for name in ("interval", "circle", "cone3"):
        fx = by_name[name]
        for alpha in fx.functions.values():
            assert antipodal_support_check(alpha)


def test_multiplicities_refine_euler_integral(by_name) -> None:
    """The multiplicity at an interior top stratum equals the value itself."""
    fx = by_name["sphere"]
    alpha = fx.functions["one"]
    for s in fx.complex.maximal_simplices():
        ch = enumerate_chambers(fx.complex, s)[0]
        assert multiplicity_at(alpha, s, ch.witness) == alpha.value(s)


def test_dual_flips_chamber_multiplicities_antipodally(by_name) -> None:
    """m_{D alpha}(S, xi) = (-1)^{dim S} m_alpha(S, -xi), stratum by stratum.

    This holds for every builtin space, manifold or not."""
    for name in ("circle", "book", "ygraph"):
        fx = by_name[name]
        cx = fx.complex
        for alpha in fx.functions.values():
            beta = dual(alpha)
            for s in cx.simplices:
                k = len(s) - 1
                for ch in enumerate_chambers(cx, s):
                    lhs = multiplicity_at(beta, s, ch.witness)
                    rhs = (-1) ** k * multiplicity_at(
                        alpha, s, ch.witness.scale(-1)
                    )
                    assert lhs == rhs, (name, sorted(s))


def test_chamber_table_is_filled_once_per_stratum(by_name, monkeypatch) -> None:
    import eulercc.charcycle as charcycle

    calls = {"multiplicity_at": 0, "strict_sign_vector": 0}

    def counting(name):
        inner = getattr(charcycle, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(charcycle, name, counting(name))
    fx = by_name["book"]
    cc = CharacteristicCycle(fx.functions["random0"])
    spine = simplex([0, 1])
    first = cc.chamber_multiplicities(spine)
    assert calls == {"multiplicity_at": len(first), "strict_sign_vector": len(first)}
    assert cc.chamber_multiplicities(spine) == first
    assert cc.nonzero_chambers(spine) == [(c, m) for c, m in first if m != 0]
    assert calls == {"multiplicity_at": len(first), "strict_sign_vector": len(first)}


def test_chamber_table_survives_caller_mutation(by_name) -> None:
    fx = by_name["book"]
    cc = CharacteristicCycle(fx.functions["one"])
    spine = simplex([0, 1])
    first = cc.chamber_multiplicities(spine)
    expect = list(first)
    first.clear()
    cc.nonzero_chambers(spine).append("junk")
    assert cc.chamber_multiplicities(spine) == expect
    table = {tuple(sorted(c.sign_vector)): m for c, m in expect}
    assert table == BOOK_SPINE_TABLE


def test_dual_cycles_share_chambers_but_not_multiplicities(by_name) -> None:
    """Both cycles read the chambers stored in the complex's star geometry, and
    each keeps its own values: m_{D alpha}(S, xi) = (-1)^{dim S} m_alpha(S, -xi)."""
    for name in ("circle", "book", "ygraph"):
        fx = by_name[name]
        cx = fx.complex
        for alpha in fx.functions.values():
            cc, ccd = CharacteristicCycle(alpha), CharacteristicCycle(dual(alpha))
            for s in cx.simplices:
                k = len(s) - 1
                pairs = cc.chamber_multiplicities(s)
                dual_pairs = ccd.chamber_multiplicities(s)
                stored = cx.star_geometry(cx.stratum(s)).chambers
                assert len(pairs) == len(dual_pairs) == len(stored)
                for (c, _), (cd, _), c_stored in zip(pairs, dual_pairs, stored):
                    assert c is cd is c_stored
                for (c, m), (_, md) in zip(pairs, dual_pairs):
                    assert m == multiplicity_at(alpha, s, c.witness), (name, sorted(s))
                    assert md == (-1) ** k * multiplicity_at(
                        alpha, s, c.witness.scale(-1)
                    ), (name, sorted(s))


def test_conormal_frame_is_computed_once_per_stratum(by_name, monkeypatch) -> None:
    """Over one boundary_estimate_check, orthogonal_complement runs once for
    each stratum whose conormal frame is read, the frame is held by its star
    geometry alone, and the next check's fresh cut complex computes its own."""
    calls = []
    cuts = []
    complement = charcycle.orthogonal_complement
    subdivide = intersect.subdivide_along_hyperplane

    def counting(vectors, dim):
        calls.append(len(vectors))
        return complement(vectors, dim)

    def capturing(cx, f, c):
        sub = subdivide(cx, f, c)
        cuts.append(sub.complex)
        return sub

    monkeypatch.setattr(charcycle, "orthogonal_complement", counting)
    monkeypatch.setattr(intersect, "subdivide_along_hyperplane", capturing)
    fx = by_name["book"]
    g = fx.morse_inputs[fx.cut_function]
    framed_per_check = []
    for side in ("shriek", "star"):
        before = len(calls)
        boundary_estimate_check(fx.functions["random0"], g, fx.cut_levels[0], side)
        cx = cuts[-1]
        stars = [cx.star_geometry(cx.stratum(s)) for s in cx.simplices_sorted()]
        framed = [geo for geo in stars if geo.conormal is not None]
        assert len(calls) - before == len(framed) > 5
        for geo in framed:
            holders = [
                r for r in gc.get_referrers(geo.conormal)
                if not isinstance(r, types.FrameType)
            ]
            # the star geometry itself, or its __dict__ once one is built
            assert len(holders) == 1
            assert holders[0] is geo or holders[0] is vars(geo)
        framed_per_check.append(framed)
    assert cuts[0] is not cuts[1]
    first = {id(geo.conormal) for geo in framed_per_check[0]}
    assert not any(id(geo.conormal) in first for geo in framed_per_check[1])


def test_moved_coordinates_get_their_own_conormal_frames(by_name) -> None:
    """A frame stored on one complex never serves another with the same
    simplices: each is the one computed from that complex's own geometry."""
    cx = by_name["triangle"].complex
    moved = list(cx.vertices)
    moved[0] = moved[0] + Vec.of(-5, -3)
    first = EmbeddedComplex(cx.ambient_dim, cx.vertices, cx.simplices)
    second = EmbeddedComplex(cx.ambient_dim, moved, cx.simplices)
    differ = 0
    for s in cx.simplices_sorted():
        frames = []
        for c in (first, second):
            S = c.stratum(s)
            frame = conormal_frame(c, S)
            assert conormal_frame(c, S) is frame
            basis = orthogonal_complement(list(S.direction_basis), c.ambient_dim)
            assert frame.basis == basis
            for func, d in zip(frame.functionals, c.star_geometry(S).directions):
                exact = [e.dot(d) for e in basis]
                ratio = next(x / f for x, f in zip(exact, func) if f != 0)
                assert ratio > 0 and exact == [ratio * f for f in func]
            frames.append(frame)
        differ += frames[0] != frames[1]
    assert differ > 0
