"""Perturbation-schedule Morse count, kept as a test oracle.

The library counts critical points once, at the exact eta -> 0+ limit of
base + eta * (|y - center|^2 + direction . y).  This module keeps the rule it
replaced: evaluate the count at eta = 1/4, 1/16, ... and accept it once
stability_window consecutive values agree.  That agreement is evidence that
the limit has been reached, not a certificate of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from eulercc import CharacteristicCycle, ConstructibleFunction, Vec, rat, simplex
from eulercc.complexes import EmbeddedComplex, Simplex, as_region, close_under_faces
from eulercc.errors import (
    BoundaryCollisionError,
    DegeneracyError,
    DegenerateFunctionError,
    InputError,
    NonConvergenceError,
)
from eulercc.functions import QuadAffineFunction, squared_distance_from
from eulercc.morse import (
    RationalSampler,
    _as_quadratic,
    critical_points,
    morse_sign,
)


def tube_boundary(cx: EmbeddedComplex, region) -> frozenset[Simplex]:
    """Simplices of a closed region having a strict coface outside it."""
    region = as_region(cx, region)
    return frozenset(
        s for s in region if any(c not in region for c in cx.strict_cofaces(s))
    )


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
    hessians_positive_definite: bool


def stabilized_count(
    alpha: ConstructibleFunction,
    base_f,
    schedule: PerturbationSchedule,
    tube=None,
    cc: CharacteristicCycle | None = None,
    guard: bool = True,
) -> tuple[int, StabilizationReport]:
    """Morse count on the tube's strata, once stability_window values agree.

    With guard, the tube is a closed region and a nonzero-multiplicity
    critical point on its boundary poisons that eta; without it, the tube is
    any set of strata (None: all) and nothing is guarded, as in the library
    count.  Degeneracies poison an eta too.  Poisoned or changed values
    reset the agreement streak.  Exhausting the schedule raises
    BoundaryCollisionError when the last failure was a collision, else
    NonConvergenceError with the per-eta trace.
    """
    cx = alpha.complex
    strata = cx.simplices if tube is None else frozenset(map(simplex, tube))
    region = as_region(cx, close_under_faces(strata))
    boundary = tube_boundary(cx, strata) if guard else frozenset()
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
            cps = [
                cp
                for cp in critical_points(f_eta, cx, region)
                if cp.stratum.simplex in strata
            ]
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
                total, schedule.stability_window, tuple(history), pd_streak
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
