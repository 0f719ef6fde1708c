"""Chambers over distinct hyperplanes against the per-vertex enumeration, and
local closure queries against filtering every chamber."""

from __future__ import annotations

from chamber_oracle import (
    closure_chambers_by_filter,
    enumerate_chambers_per_vertex,
    extend_by_feasibility,
    fraction_functionals,
    parallel_classes_by_ratio,
)

import eulercc.charcycle as charcycle
from eulercc import (
    CharacteristicCycle,
    EmbeddedComplex,
    Vec,
    barycentric_subdivide,
    constant_function,
    enumerate_chambers,
    random_fixture,
    simplex,
    subdivide_along_hyperplane,
    transport,
)
from eulercc.constructible import is_conormal
from eulercc.fixtures import vertex_pair_lines


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


def test_integer_extension_matches_the_feasibility_extension(builtins) -> None:
    """The extension over the frame's primitive functionals, through
    Fourier-Motzkin directly, returns the (signs, witness) list of the
    Fraction functionals through strict_feasibility, with the same classes."""
    strata = chambers = 0
    mismatches = []
    for name, cx in _corpus(builtins):
        for s in cx.simplices_sorted():
            S = cx.stratum(s)
            if not cx.star_geometry(S).vertex_ids:
                continue
            frame = charcycle.conormal_frame(cx, S)
            distinct, classes = charcycle._parallel_classes(frame.functionals)
            got = charcycle._extend(distinct, len(frame.basis))
            old_distinct, old_classes = parallel_classes_by_ratio(
                fraction_functionals(cx, S)
            )
            want = extend_by_feasibility(old_distinct, len(frame.basis))
            strata += 1
            chambers += len(want)
            if (classes, got) != (old_classes, want):
                mismatches.append((name, sorted(s)))
    assert strata > 1200 and chambers > 4000
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


def _query_corpus(builtins):
    """(name, alpha, dg) over the builtins, their 1x subdivisions, every cut
    subdivision and random seeds 0-9; dg is the gradient of the builtin's cut
    function, and None for a random fixture."""
    for fx in builtins:
        alpha = fx.functions["random0"]
        g = fx.morse_inputs[fx.cut_function]
        yield fx.name, alpha, g.linear
        sub = barycentric_subdivide(fx.complex, 1)
        yield f"{fx.name}x1", transport(alpha, sub), g.linear
        for delta in fx.cut_levels:
            sub = subdivide_along_hyperplane(fx.complex, g, delta)
            yield f"{fx.name}@{delta}", transport(alpha, sub), g.linear
    for seed in range(10):
        fx = random_fixture(seed)
        yield fx.name, fx.functions["random0"], None


def _covectors(cx, S, witnesses, lines, dg) -> list[Vec]:
    """Chamber witnesses, zero, the df of vertex-pair lines, and the breakpoint
    covectors xi - lambda * dg at which a star pairing of a witness xi vanishes
    (boundary_estimate_check's decomposition tests)."""
    out = list(witnesses) + [Vec.zero(cx.ambient_dim)] + lines
    if dg is not None and is_conormal(cx, S, dg):
        for xi in witnesses:
            for d in cx.star_geometry(S).directions:
                a = dg.dot(d)
                if a != 0:
                    out.append(xi - dg.scale(xi.dot(d) / a))
    return list(dict.fromkeys(out))


def test_closure_queries_match_filtering_every_chamber(builtins) -> None:
    queries = with_zeros = 0
    mismatches = []
    for name, alpha, dg in _query_corpus(builtins):
        cx = alpha.complex
        cc = CharacteristicCycle(alpha)
        lines = []
        if cx.ambient_dim == 2:
            lines = [f.linear for f in vertex_pair_lines(cx, 0, 3)]
            if dg is None:
                dg = lines[0]
        for s in cx.simplices_sorted():
            S = cx.stratum(s)
            witnesses = [c.witness for c in enumerate_chambers(cx, S)]
            for xi in _covectors(cx, S, witnesses, lines, dg):
                want = closure_chambers_by_filter(alpha, S, xi)
                got = cc.closure_chambers(S, xi)
                queries += 1
                with_zeros += len(want) > 1
                if got != want:
                    mismatches.append((name, sorted(s), xi))
                elif cc.closure_supports(S, xi) != any(m for _, m in want):
                    mismatches.append((name, sorted(s), xi, "supports"))
    assert queries > 15000 and with_zeros > 7000
    assert mismatches == []


def test_dependent_zero_functionals_run_the_extension(monkeypatch) -> None:
    # four edges from the origin; xi = dz is zero on the three in the plane
    # z = 0, whose functionals x, y and -x - y are pairwise nonparallel but
    # dependent, so only 6 of their 8 sign patterns are chambers
    cx = EmbeddedComplex(
        3,
        [Vec.of(0, 0, 0), Vec.of(1, 0, 0), Vec.of(0, 1, 0), Vec.of(-1, -1, 0), Vec.of(0, 0, 1)],
        [[0, 1], [0, 2], [0, 3], [0, 4]],
        close=True,
    )
    S = cx.stratum(simplex([0]))
    extensions = []
    extend = charcycle._extend

    def counting(distinct, w):
        extensions.append(len(distinct))
        return extend(distinct, w)

    monkeypatch.setattr(charcycle, "_extend", counting)
    cc = CharacteristicCycle(constant_function(cx))
    xi = Vec.of(0, 0, 1)
    got = cc.closure_chambers(S, xi)
    assert extensions == [3]
    assert cx.star_geometry(S).chambers is None
    assert len(got) == 6
    assert all(dict(sv)[4] == 1 for sv, _ in got)
    assert got == closure_chambers_by_filter(cc.alpha, S, xi)
