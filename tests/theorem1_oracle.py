"""Tube-and-slice theorem-1 verifier, kept as a test oracle.

The library reads both sides of theorem 1 off the complex it is given: the
lhs is the integral over K of the vanishing-cycle function phi_f(alpha), the
rhs the exact eta -> 0+ Morse count on the strata of K.  This module keeps
the rule that came before it: subdivide once, take the closed star of K as a
tube, read the lhs as the integral over K minus the integral over the slice
{f = -eps} of the tube, and count the rhs in the tube, rejecting a seed whose
count puts a nonzero multiplicity on the tube boundary.  Its lhs is wrong on
inputs whose tube meets a zero-level stratum outside K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from schedule_oracle import tube_boundary

from eulercc import (
    AffineFunction,
    CharacteristicCycle,
    ConstructibleFunction,
    EmbeddedComplex,
    RationalSampler,
    barycentric_subdivide,
    close_under_faces,
    closed_star,
    compute_intersection_locus,
    euler_integral,
    slice_integral,
    stabilized_count,
    transport,
)
from eulercc.complexes import Simplex, as_region
from eulercc.errors import (
    BoundaryCollisionError,
    DegeneracyError,
    HypothesisViolationError,
    InputError,
    NonConvergenceError,
)
from eulercc.intersect import SEED_ATTEMPTS


@dataclass(frozen=True)
class TubeSpec:
    """A regular-neighborhood tube around a level-zero core.

    The closed star of the (full) core plays the role of a small closed
    neighborhood; epsilon is any positive rational below every nonzero |f| on
    tube vertices, so the level {f = -eps} is combinatorially stable.
    """

    base: frozenset[Simplex]
    tube: frozenset[Simplex]
    epsilon: Fraction
    level_function: AffineFunction


def build_tube_spec(cx: EmbeddedComplex, base, f: AffineFunction) -> TubeSpec:
    base_reg = as_region(cx, base)
    for s in base_reg:
        for v in s:
            if cx.vertex_value(f, v) != 0:
                raise InputError(
                    f"tube core vertex {v} has nonzero level value {cx.vertex_value(f, v)}"
                )
    tube = closed_star(cx, base_reg)
    best: Fraction | None = None
    for v in {v for s in tube for v in s}:
        val = abs(cx.vertex_value(f, v))
        if val != 0 and (best is None or val < best):
            best = val
    eps = Fraction(1) if best is None else best / 2
    return TubeSpec(frozenset(base_reg), frozenset(tube), eps, f)


def tube_limit_count(
    alpha: ConstructibleFunction, base, tube, seed: int
) -> tuple[int, int]:
    """(count, seed used): the library's seeded count in the tube, where a
    draw that puts a nonzero multiplicity on a boundary stratum rejects its
    seed as a degenerate draw does."""
    cx = alpha.complex
    boundary = sorted(tube_boundary(cx, tube), key=sorted)
    cc = CharacteristicCycle(alpha)
    for seed_used in range(seed, seed + SEED_ATTEMPTS):
        sampler = RationalSampler(seed_used)
        c = sampler.vector(cx.ambient_dim, max_den=64)
        direction = sampler.nonzero_vector(cx.ambient_dim, max_den=64)
        try:
            for s in boundary:
                if stabilized_count(alpha, base, c, direction, [s], cc) != 0:
                    raise BoundaryCollisionError(f"tube boundary stratum {sorted(s)}")
            return stabilized_count(alpha, base, c, direction, tube, cc), seed_used
        except (BoundaryCollisionError, DegeneracyError):
            continue
    raise NonConvergenceError("no seed produced a nondegenerate tube count")


class TubeVerdict(NamedTuple):
    lhs: int
    rhs: int
    K: frozenset[Simplex]
    tube_strata: frozenset[Simplex]  # input strata holding a stratum of the tube


def tube_theorem1(alpha: ConstructibleFunction, f: AffineFunction, seed: int = 0) -> TubeVerdict:
    cx = alpha.complex
    entries, K = compute_intersection_locus(alpha, f)
    if not entries:
        return TubeVerdict(0, 0, K, frozenset())
    if not K:
        raise HypothesisViolationError(
            "cycle support meets the covector of f only over strata where f is nonzero"
        )
    sub = barycentric_subdivide(cx, 1)
    alpha2 = transport(alpha, sub)
    K2 = sub.transport_region(K)
    spec = build_tube_spec(sub.complex, K2, f)
    for e in entries:
        faces_off = close_under_faces({e.simplex})
        if not e.on_level and any(sub.ancestry[t] in faces_off for t in spec.tube):
            raise HypothesisViolationError("off-level support reaches the localization tube")
    lhs = euler_integral(alpha2, K2) - slice_integral(alpha2, spec.tube, f, -spec.epsilon)
    rhs, _ = tube_limit_count(alpha2, f, spec.tube, seed)
    return TubeVerdict(lhs, rhs, K, frozenset(sub.ancestry[t] for t in spec.tube))
