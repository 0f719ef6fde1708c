"""Constructible functions: integration, duality, extensions, halflinks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from eulercc import (
    CharacteristicCycle,
    DegeneracyError,
    InputError,
    UnstableLevelError,
    Vec,
    barycentric_subdivide,
    constant_function,
    dual,
    enumerate_chambers,
    euler_integral,
    fixture_by_name,
    from_values,
    halflink_integral,
    indicator,
    jshriek_extend,
    jstar_extend,
    multiplicity_at,
    rat,
    simplex,
    slice_integral,
    subdivide_along_hyperplane,
    transport,
    vanishing_cycle,
)
from eulercc.constructible import (
    level_restriction,
    side_partition,
    sign_of_dim,
)
from halflink_oracle import halflink_epsilon


def test_sign_of_dim() -> None:
    assert [sign_of_dim(k) for k in range(4)] == [1, -1, 1, -1]


def test_constant_function_and_indicator(by_name) -> None:
    cx = by_name["triangle"].complex
    one = constant_function(cx, 1)
    assert all(one.value(s) == 1 for s in cx.simplices)
    ind = indicator(cx, [[0, 1, 2]])
    assert ind.value(simplex([0, 1, 2])) == 1
    assert ind.value(simplex([0, 1])) == 0


def test_from_values_rejects_unknown_simplex(by_name) -> None:
    cx = by_name["interval"].complex
    with pytest.raises(InputError):
        from_values(cx, {simplex([0, 5]): 1})


def test_from_values_rejects_non_integer(by_name) -> None:
    cx = by_name["interval"].complex
    with pytest.raises(InputError):
        from_values(cx, {simplex([0]): Fraction(1, 2)})


def test_euler_integral_weights_by_open_cell(by_name) -> None:
    # chi_c of a bounded open k-cell is (-1)^k
    cx = by_name["triangle"].complex
    assert euler_integral(indicator(cx, [[0, 1, 2]])) == 1
    assert euler_integral(indicator(cx, [[0, 1]])) == -1
    assert euler_integral(indicator(cx, [[2]])) == 1


def test_euler_integral_matches_frozen_fixture_values(builtins) -> None:
    for fx in builtins:
        for fn_name, expect in fx.expected.items():
            if not (isinstance(fn_name, tuple) and fn_name[0] == "euler"):
                continue
            alpha = fx.functions[fn_name[1]]
            assert euler_integral(alpha) == expect.value, (fx.name, fn_name)


def test_euler_integral_is_linear(by_name) -> None:
    fx = by_name["book"]
    alpha = fx.functions["one"]
    beta = fx.functions["random0"]
    assert euler_integral(alpha.add(beta)) == euler_integral(alpha) + euler_integral(
        beta
    )
    assert euler_integral(alpha.scale(-3)) == -3 * euler_integral(alpha)


def test_integral_over_subregion(by_name) -> None:
    fx = by_name["circle"]
    arc = frozenset(s for s in fx.complex.simplices if s != simplex([0, 1]))
    assert euler_integral(fx.functions["one"], arc) == 1
    assert euler_integral(fx.functions["one"], None) == 0


def test_dual_frozen_on_interval(by_name) -> None:
    fx = by_name["interval"]
    d = dual(fx.functions["one"])
    assert d.value(simplex([0])) == 0
    assert d.value(simplex([1])) == 0
    assert d.value(simplex([0, 1])) == -1


def test_dual_is_an_involution(builtins) -> None:
    for fx in builtins:
        for name, alpha in fx.functions.items():
            dd = dual(dual(alpha))
            assert all(
                dd.value(s) == alpha.value(s) for s in fx.complex.simplices
            ), (fx.name, name)


def test_dual_preserves_euler_integral_on_closed_support(by_name) -> None:
    # for the closed sphere (no boundary) duality fixes chi
    fx = by_name["sphere"]
    assert euler_integral(dual(fx.functions["one"])) == euler_integral(
        fx.functions["one"]
    )


def _cut_and_transport(fx, delta):
    """Extensions need a complex compatible with the cut level."""
    g = fx.morse_inputs[fx.cut_function]
    res = subdivide_along_hyperplane(fx.complex, g, delta)
    return g, res, {
        name: transport(alpha, res) for name, alpha in fx.functions.items()
    }


def test_side_partition_requires_compatible_complex(by_name) -> None:
    fx = by_name["elbow"]
    g = fx.morse_inputs[fx.cut_function]
    with pytest.raises(InputError):
        side_partition(fx.complex, g, fx.cut_levels[0])


def test_side_partition_names_the_first_straddling_simplex(builtins) -> None:
    for fx in builtins:
        g = fx.morse_inputs[fx.cut_function]
        delta = fx.cut_levels[0]
        cx = fx.complex
        straddling = [
            s
            for s in cx.simplices_sorted()
            if min(cx.vertex_value(g, v) for v in s)
            < delta
            < max(cx.vertex_value(g, v) for v in s)
        ]
        with pytest.raises(InputError) as exc:
            side_partition(cx, g, delta)
        assert str(exc.value) == (
            f"simplex {sorted(straddling[0])} straddles the level {rat(delta)}"
        ), fx.name


def test_side_partition_covers_complex(by_name) -> None:
    fx = by_name["elbow"]
    g, res, _ = _cut_and_transport(fx, fx.cut_levels[0])
    sides = side_partition(res.complex, g, fx.cut_levels[0])
    total = sum(len(v) for v in sides.values())
    assert total == len(res.complex.simplices)


def test_extension_operators_partition_pointwise(by_name) -> None:
    """alpha = j_!(below) + j_!(above) + level restriction, stratum by stratum."""
    for name in ("elbow", "triangle", "book"):
        fx = by_name[name]
        delta = fx.cut_levels[0]
        g, res, funcs = _cut_and_transport(fx, delta)
        alpha = funcs["one"]
        below = jshriek_extend(alpha, g, delta, side="below")
        above = jshriek_extend(alpha, g, delta, side="above")
        level = level_restriction(alpha, g, delta)
        for s in res.complex.simplices:
            assert alpha.value(s) == below.value(s) + above.value(s) + level.value(
                s
            ), (name, sorted(s))


def test_jstar_is_closed_side_restriction(by_name) -> None:
    fx = by_name["elbow"]
    delta = fx.cut_levels[0]
    g, res, funcs = _cut_and_transport(fx, delta)
    alpha = funcs["one"]
    shriek = jshriek_extend(alpha, g, delta, side="below")
    star = jstar_extend(alpha, g, delta, side="below")
    level = level_restriction(alpha, g, delta)
    for s in res.complex.simplices:
        assert star.value(s) == shriek.value(s) + level.value(s)


def test_extension_euler_integrals_are_additive(by_name) -> None:
    fx = by_name["book"]
    for delta in fx.cut_levels:
        g, res, funcs = _cut_and_transport(fx, delta)
        for name, alpha in funcs.items():
            parts = (
                euler_integral(jshriek_extend(alpha, g, delta, side="below"))
                + euler_integral(jshriek_extend(alpha, g, delta, side="above"))
                + euler_integral(level_restriction(alpha, g, delta))
            )
            assert parts == euler_integral(alpha), (name, delta)


def test_slice_integral_frozen(by_name) -> None:
    iv = by_name["interval"]
    assert slice_integral(iv.functions["one"], None, iv.morse_inputs["x"], rat("1/2")) == 1
    ci = by_name["circle"]
    assert slice_integral(ci.functions["one"], None, ci.morse_inputs["y"], rat("1/2")) == 2
    tr = by_name["triangle"]
    assert slice_integral(tr.functions["one"], None, tr.morse_inputs["y"], rat("1/2")) == 1


def test_slice_through_vertex_raises(by_name) -> None:
    iv = by_name["interval"]
    with pytest.raises(UnstableLevelError) as exc:
        slice_integral(iv.functions["one"], None, iv.morse_inputs["x"], rat(0))
    assert exc.value.witness == {"face": (0, 1), "level": Fraction(0)}


def test_halflink_frozen_at_cone_point(by_name) -> None:
    fx = by_name["cone3"]
    cx = fx.complex
    S = cx.stratum(simplex([0]))
    xi = Vec.of(0, 1)
    # every base vertex pairs negatively: the lower halflink is the whole link
    assert halflink_epsilon(cx, S, xi) == Fraction(1, 2)
    assert halflink_integral(fx.functions["one"], S, xi) == 3
    assert multiplicity_at(fx.functions["one"], simplex([0]), xi) == -2


def test_halflink_rejects_degenerate_covector(by_name) -> None:
    fx = by_name["cone3"]
    with pytest.raises(DegeneracyError) as exc:
        multiplicity_at(fx.functions["one"], simplex([0]), Vec.of(1, 1))
    assert exc.value.witness == {"stratum": (0,), "star_vertex": 3}


def test_multiplicity_vanishes_at_flat_interior_vertex(by_name) -> None:
    """Regression: rays from a subdivision vertex into link strata pass
    through the join with the stratum, so the germ must be read there.

    The barycenter of a subdivided open triangle is interior to the flat
    support of the indicator; its conormal multiplicity is zero in every
    chamber."""
    fx = by_name["triangle"]
    res = barycentric_subdivide(fx.complex)
    alpha2 = transport(fx.functions["open_cell"], res)
    barycenter = simplex([6])
    assert alpha2.value(barycenter) == 1
    values = {
        multiplicity_at(alpha2, barycenter, ch.witness)
        for ch in enumerate_chambers(res.complex, barycenter)
    }
    assert values == {0}


def test_transport_preserves_values_and_integral(builtins) -> None:
    for fx in builtins:
        res = barycentric_subdivide(fx.complex)
        for name, alpha in fx.functions.items():
            alpha2 = transport(alpha, res)
            assert euler_integral(alpha2) == euler_integral(alpha), (fx.name, name)
            # the value on a new stratum is the value on its ancestor
            for new, old in res.ancestry.items():
                assert alpha2.value(new) == alpha.value(old)


def test_vanishing_cycle_frozen_on_flat_edges(by_name) -> None:
    """f = y vanishes on the edge {0, 1} of the triangle and the elbow."""
    fx = by_name["triangle"]
    phi = vanishing_cycle(fx.functions["one"], fx.morse_inputs["y"])
    assert phi.values == {simplex([0]): 1, simplex([1]): 1, simplex([0, 1]): 1}
    fx = by_name["elbow"]
    phi = vanishing_cycle(fx.functions["ab_open"], fx.morse_inputs["y"])
    assert phi.values == {simplex([0, 1]): 1}


def test_vanishing_cycle_is_the_halflink_defect_at_df(builtins) -> None:
    """phi lives on the zero level, and wherever df is nondegenerate over a
    zero-level stratum, phi there is alpha minus the lower-halflink integral."""
    checked = 0
    for fx in builtins:
        cx = fx.complex
        for f in fx.morse_inputs.values():
            level = {s for s in cx.simplices if all(cx.vertex_value(f, v) == 0 for v in s)}
            for alpha in fx.functions.values():
                phi = vanishing_cycle(alpha, f)
                assert set(phi.values) <= level, fx.name
                for s in level:
                    try:
                        defect = alpha.value(s) - halflink_integral(alpha, s, f.linear)
                    except DegeneracyError:
                        continue
                    checked += 1
                    assert phi.value(s) == defect, (fx.name, sorted(s))
    assert checked > 0
