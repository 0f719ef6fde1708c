"""Barycentric and hyperplane subdivision: ancestry, exactness, invariants."""

from __future__ import annotations

from fractions import Fraction


from eulercc import (
    AffineFunction,
    Vec,
    barycentric_subdivide,
    euler_characteristic,
    rat,
    subdivide_along_hyperplane,
    validate,
)
from eulercc.complexes import point_in_closed_simplex
from eulercc.constructible import side_partition
from eulercc.subdivision import (
    _stellar_edge,
    identity_subdivision,
    subdivided_region_is_exact,
)


def test_identity_subdivision_is_trivial(by_name) -> None:
    cx = by_name["triangle"].complex
    res = identity_subdivision(cx)
    assert res.complex is cx
    assert all(new == old for new, old in res.ancestry.items())


def test_barycentric_counts_interval(by_name) -> None:
    res = barycentric_subdivide(by_name["interval"].complex)
    # 3 vertices and 2 edges after splitting at the midpoint
    assert len(res.complex.simplices) == 5
    assert validate(res.complex) == []


def test_barycentric_counts_triangle(by_name) -> None:
    res = barycentric_subdivide(by_name["triangle"].complex)
    by_dim = {}
    for s in res.complex.simplices:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    assert by_dim == {0: 7, 1: 12, 2: 6}
    assert validate(res.complex) == []


def test_barycentric_preserves_euler_characteristic(builtins) -> None:
    for fx in builtins:
        chi = euler_characteristic(fx.complex)
        res = barycentric_subdivide(fx.complex)
        assert euler_characteristic(res.complex) == chi, fx.name


def test_ancestry_lands_inside_ancestor(by_name) -> None:
    cx = by_name["sphere"].complex
    res = barycentric_subdivide(cx)
    for new, old in res.ancestry.items():
        assert old in cx.simplices
        for v in new:
            assert point_in_closed_simplex(cx, old, res.complex.vertices[v])


def test_ancestry_covers_every_new_simplex(by_name) -> None:
    res = barycentric_subdivide(by_name["book"].complex)
    assert set(res.ancestry) == set(res.complex.simplices)


def test_hyperplane_cut_inserts_one_vertex(by_name) -> None:
    cx = by_name["interval"].complex
    f = by_name["interval"].morse_inputs["x"]
    res = subdivide_along_hyperplane(cx, f, rat("1/2"))
    coords = sorted(tuple(v) for v in res.complex.vertices)
    assert coords == [(Fraction(0),), (Fraction(1, 2),), (Fraction(2),)]
    assert len(res.complex.simplices) == 5
    assert validate(res.complex) == []


def test_hyperplane_cut_through_vertex_is_noop_on_vertices(by_name) -> None:
    cx = by_name["circle"].complex
    f = AffineFunction(Vec.of(0, 1))
    level = cx.vertices[0][1]
    res = subdivide_along_hyperplane(cx, f, level)
    assert validate(res.complex) == []
    assert euler_characteristic(res.complex) == euler_characteristic(cx)


def test_classify_sides_partitions(by_name) -> None:
    cx = by_name["interval"].complex
    f = by_name["interval"].morse_inputs["x"]
    res = subdivide_along_hyperplane(cx, f, rat("1/2"))
    sides = side_partition(res.complex, f, rat("1/2"))
    total = sum(len(v) for v in sides.values())
    assert total == len(res.complex.simplices)
    assert sorted(sides) == [-1, 0, 1]
    assert len(sides[0]) == 1


def test_every_stratum_is_on_one_side_after_cut(by_name) -> None:
    cx = by_name["sphere"].complex
    f = AffineFunction(Vec.of(1, 1, 1))
    res = subdivide_along_hyperplane(cx, f, rat("1/3"))
    assert validate(res.complex) == []
    # side 0 only for strata inside the hyperplane, and the cut must never
    # leave a stratum straddling it
    sides = side_partition(res.complex, f, rat("1/3"))
    assert sum(len(v) for v in sides.values()) == len(res.complex.simplices)
    for side, simplices in sides.items():
        for s in simplices:
            values = [f.value(res.complex.vertices[v]) for v in s]
            if side > 0:
                assert all(v >= Fraction(1, 3) for v in values)
            elif side < 0:
                assert all(v <= Fraction(1, 3) for v in values)
            else:
                assert all(v == Fraction(1, 3) for v in values)


def test_halfspace_region_is_exact_after_cut(by_name) -> None:
    cx = by_name["triangle"].complex
    f = by_name["triangle"].morse_inputs["y"]
    res = subdivide_along_hyperplane(cx, f, rat("1/2"))
    sides = side_partition(res.complex, f, rat("1/2"))
    below = sides[-1] + sides[0]
    assert subdivided_region_is_exact(res, below)
    assert subdivided_region_is_exact(res, res.complex.simplices)


def test_chi_invariant_under_hyperplane_cut(builtins) -> None:
    for fx in builtins:
        f = fx.morse_inputs[fx.cut_function]
        for level in fx.cut_levels[:2]:
            res = subdivide_along_hyperplane(fx.complex, f, level)
            assert euler_characteristic(res.complex) == euler_characteristic(
                fx.complex
            ), (fx.name, level)


def _cut_reading_vertex_values(cx, f, c):
    """The hyperplane cut as it was first written: the first straddling edge
    in sorted order, found by evaluating f at both ends of every edge on
    every stellar step."""
    result = identity_subdivision(cx)
    while True:
        current = result.complex
        for s in current.simplices_sorted():
            if len(s) != 2:
                continue
            u, v = sorted(s)
            fu = current.vertex_value(f, u)
            fv = current.vertex_value(f, v)
            if (fu < c < fv) or (fv < c < fu):
                break
        else:
            return result
        t = (c - fu) / (fv - fu)
        point = current.vertices[u] + (current.vertices[v] - current.vertices[u]).scale(t)
        result = result.compose(_stellar_edge(current, s, point))


def test_hyperplane_cut_matches_evaluating_every_edge(builtins) -> None:
    """Keeping one list of vertex values cuts the same edges in the same
    order: the same vertices, simplices and ancestry at every builtin level."""
    cuts = 0
    for fx in builtins:
        f = fx.morse_inputs[fx.cut_function]
        for level in fx.cut_levels:
            got = subdivide_along_hyperplane(fx.complex, f, level)
            want = _cut_reading_vertex_values(fx.complex, f, rat(level))
            assert got.complex.vertices == want.complex.vertices, (fx.name, level)
            assert got.complex.simplices == want.complex.simplices, (fx.name, level)
            assert got.ancestry == want.ancestry, (fx.name, level)
            cuts += len(got.complex.vertices) > len(fx.complex.vertices)
    assert cuts > 20
