"""The lower-link sum against the exact normal-slice geometry of halflinks."""

from __future__ import annotations

from halflink_oracle import halflink_cells

from eulercc import (
    barycentric_subdivide,
    dual,
    enumerate_chambers,
    halflink_integral,
    random_fixture,
    transport,
)


def _corpus(builtins) -> list[tuple[str, object, dict]]:
    """Builtin fixtures, 1x subdivisions of the plane ones, random seeds 0-1."""
    out = [(fx.name, fx.complex, fx.functions) for fx in builtins]
    for fx in builtins:
        if fx.complex.ambient_dim < 3:
            sub = barycentric_subdivide(fx.complex, 1)
            funcs = {name: transport(a, sub) for name, a in fx.functions.items()}
            out.append((f"{fx.name}x1", sub.complex, funcs))
    for seed in (0, 1):
        fx = random_fixture(seed)
        out.append((fx.name, fx.complex, fx.functions))
    return out


def test_lower_link_sum_matches_halflink_geometry(builtins) -> None:
    queries = 0
    mismatches = []
    for name, cx, funcs in _corpus(builtins):
        alphas = [a for f in funcs.values() for a in (f, dual(f))]
        for s in cx.simplices_sorted():
            for chamber in enumerate_chambers(cx, s):
                S, xi = chamber.stratum, chamber.witness
                cells = halflink_cells(cx, S, xi)
                for alpha in alphas:
                    queries += 1
                    got = halflink_integral(alpha, S, xi)
                    want = sum(alpha.value(germ) * sign for germ, sign in cells)
                    if got != want:
                        mismatches.append((name, sorted(s), chamber.sign_vector, got, want))
    assert queries > 5000
    assert mismatches == []
