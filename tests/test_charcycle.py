"""Conormal chambers and characteristic cycle multiplicities."""

from __future__ import annotations

import pytest

from eulercc import (
    CharacteristicCycle,
    InputError,
    Vec,
    antipodal_support_check,
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
from eulercc.charcycle import conormal_basis, strict_sign_vector, weak_sign_vector

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
    basis = conormal_basis(cx, spine)
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
