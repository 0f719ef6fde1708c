"""global_index through the shared limit count against the direct Morse sum.

Before the three index verifiers shared one kernel, global_index summed the
Morse signs of |y - y0|^2 + zeta . y over the whole complex with
morse.stratified_morse_sum.  With base 0 the limit count sees the critical
points of that same convex function, so both must give the same integer,
and a seed the kernel rejects must make the direct sum raise too.
"""

from __future__ import annotations

import pytest

from eulercc import (
    CharacteristicCycle,
    DegeneracyError,
    QuadAffineFunction,
    RationalSampler,
    barycentric_subdivide,
    global_index,
    random_fixture,
    squared_distance_from,
    stratified_morse_sum,
    transport,
)

# seeds 22 and 27 are rejected on several builtin fixtures, so the
# rejection log is checked as well as the counts
SEEDS = (0, 1, 2, 3, 4, 22, 27)


def _direct_sum(alpha, center, direction, cc) -> int:
    func = squared_distance_from(center).add(QuadAffineFunction(direction))
    return stratified_morse_sum(alpha, func, None, cc)


def _check(alpha, seeds, mismatches: list) -> int:
    """Compare the count at every seed; return the number of rejected seeds."""
    cc = CharacteristicCycle(alpha)
    dim = alpha.complex.ambient_dim
    rejections = 0
    for seed in seeds:
        rep = global_index(alpha, seed=seed, cc=cc)
        art = rep.artifacts
        direct = _direct_sum(alpha, art["center"], art["direction"], cc)
        if rep.rhs != direct:
            mismatches.append((dim, seed, rep.rhs, direct))
        rejected = [r["seed"] for r in art["rejected"]]
        assert rejected == list(range(seed, art["seed_used"]))
        for s in rejected:
            sampler = RationalSampler(s)
            center = sampler.vector(dim, max_den=64)
            direction = sampler.nonzero_vector(dim, max_den=64)
            with pytest.raises(DegeneracyError):
                _direct_sum(alpha, center, direction, cc)
        rejections += len(rejected)
    return rejections


def test_global_index_matches_direct_morse_sum(builtins) -> None:
    """Builtin fixtures x functions at SEEDS, each function on one barycentric
    subdivision of its fixture at seed 0, and random_fixture 0-9 at seeds
    0-2."""
    mismatches: list = []
    rejections = 0
    for fx in builtins:
        step = barycentric_subdivide(fx.complex)
        for alpha in fx.functions.values():
            rejections += _check(alpha, SEEDS, mismatches)
            rejections += _check(transport(alpha, step), (0,), mismatches)
    for n in range(10):
        for alpha in random_fixture(n).functions.values():
            rejections += _check(alpha, range(3), mismatches)
    assert mismatches == []
    assert rejections > 0
