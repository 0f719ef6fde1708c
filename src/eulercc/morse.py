"""Stratified Morse machinery over exact rational data.

Critical points of an affine-plus-quadratic function on a stratum are the
solutions of an exact linear system in barycentric coordinates; indices come
from the inertia of the restricted Hessian.  The stabilized count drives the
same sum through a decreasing perturbation schedule until stability_window
consecutive values agree.  That window is evidence that the count has reached
its eta -> 0+ limit, not a certificate of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .charcycle import CharacteristicCycle
from .complexes import EmbeddedComplex, Simplex, StratumRef, as_region, sort_key
from .constructible import ConstructibleFunction
from .errors import (
    BoundaryCollisionError,
    DegeneracyError,
    DegenerateFunctionError,
    InputError,
    NonConvergenceError,
)
from .functions import AffineFunction, QuadAffineFunction, squared_distance_from
from .linalg import Inertia, Vec, inertia, rat, strict_feasibility


@dataclass(frozen=True)
class CriticalPoint:
    """One isolated stratified critical point.

    covector is the full gradient at the point; it annihilates the stratum
    directions exactly.  multiplicity stays None until a cycle is consulted.
    """

    stratum: StratumRef
    point: Vec
    covector: Vec
    index: int
    multiplicity: int | None = None
    hessian_inertia: Inertia = Inertia(0, 0, 0)


def _as_quadratic(f) -> QuadAffineFunction:
    if isinstance(f, AffineFunction):
        return QuadAffineFunction.from_affine(f)
    if isinstance(f, QuadAffineFunction):
        return f
    raise InputError(f"not an affine or quadratic function: {f!r}")


def critical_points(f, cx: EmbeddedComplex, region=None) -> list[CriticalPoint]:
    """All isolated critical points of f on strata of the region.

    Per stratum: gradient orthogonal to the direction space, solved exactly in
    barycentric parameters, keeping solutions interior to the open simplex.  A
    positive-dimensional solution set meeting the open simplex means f is not
    a Morse function there; that is raised, never dropped.
    """
    f = _as_quadratic(f)
    if f.dim != cx.ambient_dim:
        raise InputError("function dimension does not match the complex")
    out: list[CriticalPoint] = []
    for s in sorted(as_region(cx, region), key=sort_key):
        S = cx.stratum(s)
        verts = cx.coords(s)
        d = S.dim
        if d == 0:
            y = verts[0]
            out.append(CriticalPoint(S, y, f.gradient(y), 0))
            continue
        v0 = verts[0]
        dirs = [v - v0 for v in verts[1:]]
        hess = f.hessian()
        grad0 = f.gradient(v0)
        restricted = hess.restrict(dirs)
        equations = [
            (Vec(restricted.rows[i]), -dirs[i].dot(grad0)) for i in range(d)
        ]
        interior_stricts = [
            (Vec.unit(d, i), Fraction(0)) for i in range(d)
        ] + [(Vec((Fraction(-1),) * d), Fraction(-1))]
        res = strict_feasibility(equations, interior_stricts, [], d)
        if not res.feasible:
            continue
        if res.dim > 0:
            raise DegenerateFunctionError(
                f"non-isolated critical locus on stratum {sorted(s)}",
                witness={
                    "stratum": tuple(sorted(s)),
                    "solution_dim": res.dim,
                    "sample_parameters": tuple(res.witness),
                },
            )
        t = res.witness
        y = v0
        for coeff, dvec in zip(t, dirs):
            y = y + dvec.scale(coeff)
        inert = inertia(restricted)
        out.append(CriticalPoint(S, y, f.gradient(y), inert.n_neg, None, inert))
    return out


def morse_sign(cp: CriticalPoint) -> int:
    """(-1)^index; a singular restricted Hessian is a degeneracy, not a sign."""
    if cp.hessian_inertia.n_zero > 0:
        raise DegeneracyError(
            f"singular restricted Hessian on stratum {sorted(cp.stratum.simplex)}",
            witness={"stratum": tuple(sorted(cp.stratum.simplex))},
        )
    return -1 if cp.index % 2 else 1


def stratified_morse_sum(
    alpha: ConstructibleFunction,
    f,
    region=None,
    cc: CharacteristicCycle | None = None,
) -> int:
    """Sum of morse_sign times chamber multiplicity over critical points.

    Degenerate covectors (a critical gradient on a chamber wall) propagate as
    errors; callers reseed rather than accept an ill-defined term.
    """
    if cc is None:
        cc = CharacteristicCycle(alpha)
    total = 0
    for cp in critical_points(f, alpha.complex, region):
        m = cc.multiplicity(cp.stratum, cp.covector)
        if m != 0:
            total += morse_sign(cp) * m
    return total


class RationalSampler:
    """Seeded stream of small exact rationals for generic test data."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def integer(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def rational(self, bound: int = 4, max_den: int = 4) -> Fraction:
        return Fraction(self._rng.randint(-bound, bound), self._rng.randint(1, max_den))

    def nonzero_rational(self, bound: int = 4, max_den: int = 4) -> Fraction:
        while True:
            q = self.rational(bound, max_den)
            if q != 0:
                return q

    def vector(self, dim: int, bound: int = 4, max_den: int = 4) -> Vec:
        return Vec(tuple(self.rational(bound, max_den) for _ in range(dim)))

    def nonzero_vector(self, dim: int, bound: int = 4, max_den: int = 4) -> Vec:
        while True:
            v = self.vector(dim, bound, max_den)
            if not v.is_zero():
                return v


@dataclass(frozen=True)
class PerturbationSchedule:
    """Deterministic data for one stabilization run.

    The perturbing bump is eta * (direction . y + |y - center|^2): strictly
    convex, so restricted Hessians of affine bases are positive definite at
    every eta.
    """

    seed: int
    center: Vec
    direction: Vec
    eta_sequence: tuple[Fraction, ...]
    stability_window: int

    def __post_init__(self):
        if self.stability_window < 2:
            raise InputError("stability_window must be at least 2")
        if len(self.eta_sequence) < self.stability_window:
            raise InputError("schedule shorter than its stability window")
        prev = None
        for eta in self.eta_sequence:
            if eta <= 0:
                raise InputError("eta values must be positive")
            if prev is not None and eta >= prev:
                raise InputError("eta sequence must be strictly decreasing")
            prev = eta

    @staticmethod
    def from_seed(
        seed: int,
        dim: int,
        eta_start=Fraction(1, 4),
        eta_ratio=Fraction(1, 4),
        steps: int = 20,
        stability_window: int = 3,
        center: Vec | None = None,
        direction: Vec | None = None,
    ) -> "PerturbationSchedule":
        eta_start, eta_ratio = rat(eta_start), rat(eta_ratio)
        if not 0 < eta_ratio < 1:
            raise InputError("eta_ratio must lie strictly between 0 and 1")
        if eta_start <= 0:
            raise InputError("eta_start must be positive")
        sampler = RationalSampler(seed)
        # fine denominators: each flat star direction of the complex imposes
        # one linear condition on (center, direction) that would make some
        # pairing vanish at every eta, and large complexes carry hundreds of
        # such conditions, so the sample grid must be much bigger than that
        if center is None:
            center = sampler.vector(dim, max_den=64)
        if direction is None:
            direction = sampler.nonzero_vector(dim, max_den=64)
        etas = tuple(eta_start * eta_ratio**i for i in range(steps))
        return PerturbationSchedule(seed, center, direction, etas, stability_window)


class EtaRecord(NamedTuple):
    eta: Fraction
    status: str  # "count" | "degenerate-critical-locus" | "degenerate-covector" | "boundary-collision"
    count: int | None


@dataclass(frozen=True)
class StabilizationReport:
    value: int
    window: int
    history: tuple[EtaRecord, ...]
    nonzero_critical_interior: bool
    covectors_nondegenerate: bool
    hessians_positive_definite: bool


def tube_boundary(cx: EmbeddedComplex, region) -> frozenset[Simplex]:
    """Simplices of a closed region having a strict coface outside it."""
    region = as_region(cx, region)
    return frozenset(
        s for s in region if any(c not in region for c in cx.strict_cofaces(s))
    )


def stabilized_count(
    alpha: ConstructibleFunction,
    base_f,
    schedule: PerturbationSchedule,
    tube=None,
    cc: CharacteristicCycle | None = None,
) -> tuple[int, StabilizationReport]:
    """Morse count inside the tube, once stability_window values agree.

    A nonzero-multiplicity critical point on the tube boundary poisons that
    eta (the count would not be localized); degeneracies likewise.  Poisoned
    or changed values reset the agreement streak.  Exhausting the schedule
    raises, carrying the per-eta trace.
    """
    cx = alpha.complex
    region = as_region(cx, tube)
    boundary = tube_boundary(cx, region)
    if cc is None:
        cc = CharacteristicCycle(alpha)
    base_q = _as_quadratic(base_f)
    bump = squared_distance_from(schedule.center).add(
        QuadAffineFunction(schedule.direction)
    )
    history: list[EtaRecord] = []
    streak_value: int | None = None
    streak = 0
    pd_streak = True
    last_failure: str | None = None
    for eta in schedule.eta_sequence:
        f_eta = base_q.add(bump.scale(eta))
        try:
            cps = critical_points(f_eta, cx, region)
        except DegenerateFunctionError:
            history.append(EtaRecord(eta, "degenerate-critical-locus", None))
            streak, streak_value, pd_streak = 0, None, True
            last_failure = "degeneracy"
            continue
        total = 0
        positive_definite = True
        failure: str | None = None
        for cp in cps:
            try:
                m = cc.multiplicity(cp.stratum, cp.covector)
            except DegeneracyError:
                failure = "degenerate-covector"
                last_failure = "degeneracy"
                break
            if m != 0 and cp.stratum.simplex in boundary:
                failure = "boundary-collision"
                last_failure = "collision"
                break
            if cp.hessian_inertia.n_neg or cp.hessian_inertia.n_zero:
                positive_definite = False
            if m != 0:
                total += morse_sign(cp) * m
        if failure is not None:
            history.append(EtaRecord(eta, failure, None))
            streak, streak_value, pd_streak = 0, None, True
            continue
        history.append(EtaRecord(eta, "count", total))
        if total == streak_value:
            streak += 1
        else:
            streak_value, streak = total, 1
            pd_streak = True
        pd_streak = pd_streak and positive_definite
        if streak >= schedule.stability_window:
            report = StabilizationReport(
                value=total,
                window=schedule.stability_window,
                history=tuple(history),
                nonzero_critical_interior=True,
                covectors_nondegenerate=True,
                hessians_positive_definite=pd_streak,
            )
            return total, report
    if last_failure == "collision":
        raise BoundaryCollisionError(
            "critical point with nonzero multiplicity kept hitting the tube boundary"
        )
    raise NonConvergenceError(
        "perturbation schedule exhausted without a stable count",
        trace=tuple(history),
    )
