"""The one-level star count against the refinement-until-agreement rule."""

from __future__ import annotations

from local_index_oracle import refined_local_count

from eulercc import local_index, random_fixture, simplex


def test_star_count_matches_refinement_oracle(builtins) -> None:
    """Every vertex and function of the plane fixtures, and random_fixture(0)
    with `one` at every vertex."""
    corpus = [
        (fx.name, fname, alpha)
        for fx in builtins
        if fx.complex.ambient_dim <= 2
        for fname, alpha in fx.functions.items()
    ]
    rand = random_fixture(0)
    corpus.append((rand.name, "one", rand.functions["one"]))
    calls = 0
    mismatches = []
    for name, fname, alpha in corpus:
        for v in range(len(alpha.complex.vertices)):
            calls += 1
            got = local_index(alpha, v).rhs
            want = refined_local_count(alpha, v)
            if got != want:
                mismatches.append((name, fname, v, got, want))
    assert calls == 123
    assert mismatches == []


def test_star_count_recovers_stalks_on_random_fixtures() -> None:
    calls = 0
    for seed in range(20, 40):
        fx = random_fixture(seed)
        v = seed % len(fx.complex.vertices)
        for fname, alpha in fx.functions.items():
            calls += 1
            report = local_index(alpha, v)
            assert report.holds and report.lhs == alpha.value(simplex([v])), (
                fx.name,
                fname,
                v,
            )
    assert calls == 60
