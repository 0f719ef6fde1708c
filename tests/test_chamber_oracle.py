"""Chambers over distinct hyperplanes against the per-vertex enumeration."""

from __future__ import annotations

from chamber_oracle import enumerate_chambers_per_vertex

from eulercc import (
    EmbeddedComplex,
    Vec,
    barycentric_subdivide,
    enumerate_chambers,
    random_fixture,
    simplex,
    subdivide_along_hyperplane,
)


def _corpus(builtins) -> list[tuple[str, EmbeddedComplex]]:
    """Builtin fixtures, 1x subdivisions of the plane ones, every cut
    subdivision, and random seeds 0-9."""
    out = [(fx.name, fx.complex) for fx in builtins]
    for fx in builtins:
        if fx.complex.ambient_dim < 3:
            out.append((f"{fx.name}x1", barycentric_subdivide(fx.complex, 1).complex))
    for fx in builtins:
        g = fx.morse_inputs[fx.cut_function]
        for delta in fx.cut_levels:
            cut = subdivide_along_hyperplane(fx.complex, g, delta).complex
            out.append((f"{fx.name}@{delta}", cut))
    for seed in range(10):
        fx = random_fixture(seed)
        out.append((fx.name, fx.complex))
    return out


def test_distinct_hyperplanes_match_per_vertex_enumeration(builtins) -> None:
    strata = chambers = 0
    mismatches = []
    for name, cx in _corpus(builtins):
        for s in cx.simplices_sorted():
            S = cx.stratum(s)
            got = [(c.sign_vector, c.witness) for c in enumerate_chambers(cx, S)]
            want = [
                (c.sign_vector, c.witness)
                for c in enumerate_chambers_per_vertex(cx, S)
            ]
            strata += 1
            chambers += len(want)
            if got != want:
                mismatches.append((name, sorted(s)))
    assert strata > 1800 and chambers > 5000
    assert mismatches == []


def test_collinear_star_vertices_take_opposite_signs() -> None:
    # vertex 1 sits on the level y = 0 between its level neighbours 0 and 2
    cx = EmbeddedComplex(
        2,
        [Vec.of(0, 0), Vec.of(1, 0), Vec.of(2, 0), Vec.of(1, 1)],
        [[0, 1, 3], [1, 2, 3]],
        close=True,
    )
    S = cx.stratum(simplex([1]))
    chambers = enumerate_chambers(cx, S)
    assert len(chambers) == 4
    for c in chambers:
        signs = c.signs()
        assert signs[0] == -signs[2]
    assert [(c.sign_vector, c.witness) for c in chambers] == [
        (c.sign_vector, c.witness) for c in enumerate_chambers_per_vertex(cx, S)
    ]
