"""Verifiers equating independently computed sides of the index formulas.

Each verifier returns a TheoremReport carrying both integers, the hypothesis
checks that were actually performed (with witnesses), and enough artifacts to
replay the computation.  Violated hypotheses raise; they are never folded
into a boolean.  verify_theorem1, global_index and local_index count on the
complex they are given, through one seeded eta -> 0+ kernel (_limit_count);
only boundary_estimate_check subdivides, along its cut level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .charcycle import (
    CharacteristicCycle,
    SignVector,
    chamber_witnesses,
)
from .complexes import (
    Simplex,
    StratumRef,
    Subcomplex,
    close_under_faces,
    open_star_of_simplex,
    simplex,
    sort_key,
)
from .constructible import (
    ConstructibleFunction,
    euler_integral,
    jshriek_extend,
    jstar_extend,
    side_partition,
    transport,
    vanishing_cycle,
)
from .errors import (
    DegeneracyError,
    HypothesisViolationError,
    InputError,
    NonConvergenceError,
    TransversalityError,
)
from .functions import AffineFunction, squared_distance_from
from .linalg import Vec, _dot_ratio, clear_denominators, int_dot, rat
from .morse import RationalSampler, stabilized_count
from .subdivision import subdivide_along_hyperplane

SEED_ATTEMPTS = 8


@dataclass(frozen=True)
class TheoremReport:
    """Both sides of one identity plus the audit trail behind them."""

    name: str
    lhs: int
    rhs: int
    holds: bool
    hypothesis_log: tuple[dict, ...]
    artifacts: dict

    def __post_init__(self):
        if self.holds != (self.lhs == self.rhs):
            raise InputError("report consistency: holds must equal lhs == rhs")
        if not self.hypothesis_log:
            raise InputError("report consistency: hypothesis log may not be empty")


class LocusEntry(NamedTuple):
    """One stratum-chamber pair met by the graph of df."""

    simplex: Simplex
    sign_vector: SignVector
    multiplicity: int
    on_level: bool  # f vanishes on the closure of the stratum


def compute_intersection_locus(
    alpha: ConstructibleFunction,
    f: AffineFunction,
    cc: CharacteristicCycle | None = None,
) -> tuple[tuple[LocusEntry, ...], Subcomplex]:
    """Strata whose cycle support meets the constant covector df, and K.

    The graph of df sits over every point at the fixed covector xi = df; it
    meets the closed support over a stratum exactly when xi is conormal there
    and lies in the closure of some nonzero chamber.  Those chambers are
    found locally (CharacteristicCycle.closure_chambers): by Zaslavsky's
    localization ("Facing up to arrangements", Mem. AMS 1975) they are the
    chambers of the sub-arrangement of the star hyperplanes through xi, so a
    stratum where no star vertex pairs to zero with xi asks for one
    multiplicity, and one where the zero pairings fall into linearly
    independent parallel classes asks for each sign pattern on them with no
    feasibility test.  Only a stratum whose whole star pairs to zero with xi
    enumerates its chambers.  Entries are listed by stratum and then by sign
    vector.  K collects the closures of the met strata on which f vanishes
    identically (for affine f a met stratum with f = 0 somewhere on its
    closure is on-level outright, so closures of on-level strata are the
    whole zero-level part of the locus).
    """
    cx = alpha.complex
    if f.dim != cx.ambient_dim:
        raise InputError("level function dimension does not match the complex")
    if cc is None:
        cc = CharacteristicCycle(alpha)
    xi = f.linear
    entries: list[LocusEntry] = []
    for s in cx.simplices_sorted():
        met = [(sv, m) for sv, m in cc.closure_chambers(s, xi) if m != 0]
        if met:
            on_level = all(cx.vertex_value(f, v) == 0 for v in s)
            entries.extend(LocusEntry(s, sv, m, on_level) for sv, m in met)
    K = frozenset(
        close_under_faces({e.simplex for e in entries if e.on_level})
    )
    return tuple(entries), K


def _limit_count(
    alpha: ConstructibleFunction,
    base,
    region,
    seed: int,
    center: Vec | None = None,
    cc: CharacteristicCycle | None = None,
) -> tuple[int, int, Vec, Vec, tuple[dict, ...]]:
    """Seeded eta -> 0+ Morse count of base + eta * bump on the region's strata.

    The bump is |y - center|^2 + direction . y (morse.stabilized_count); the
    center is drawn from the seed unless given.  A draw whose gradient pairs
    to zero with a star direction at every eta rejects its seed, not the
    run: seeds seed, seed + 1, ... are tried in turn, each rejection is
    logged as {"seed", "reason"}, and when all SEED_ATTEMPTS fail
    NonConvergenceError carries the log as its trace.  Returns (count, seed
    used, center, direction, log).
    """
    dim = alpha.complex.ambient_dim
    rejected: list[dict] = []
    for seed_used in range(seed, seed + SEED_ATTEMPTS):
        sampler = RationalSampler(seed_used)
        # fine denominators: each flat star direction of the complex imposes
        # one linear condition on (center, direction) that would make some
        # pairing vanish at every eta, and large complexes carry hundreds of
        # such conditions, so the sample grid must be much bigger than that
        c = center if center is not None else sampler.vector(dim, max_den=64)
        direction = sampler.nonzero_vector(dim, max_den=64)
        try:
            count = stabilized_count(alpha, base, c, direction, region, cc)
        except DegeneracyError as exc:
            rejected.append({"seed": seed_used, "reason": str(exc)})
            continue
        return count, seed_used, c, direction, tuple(rejected)
    raise NonConvergenceError(
        "no seed produced a nondegenerate limit count", trace=tuple(rejected)
    )


def verify_theorem1(
    alpha: ConstructibleFunction,
    f: AffineFunction,
    seed: int = 0,
) -> TheoremReport:
    """Intersection count against the vanishing cycles of alpha over K.

    LHS: the integral over K of phi_f(alpha), the vanishing-cycle function
    of constructible.vanishing_cycle.  RHS: the Morse count on the strata of
    K of f plus a seeded bump at the exact eta -> 0+ limit, counted by
    _limit_count on the complex as given.  Both sides read one stratum and
    its star at a time, so neither needs a subdivision or a tube around K.
    Requires the met support to sit over the zero level, and phi to vanish
    on the zero-level strata outside K (as the Dubson-Le-Ginsburg-Sabbah
    formula says it must); anything else is a hypothesis violation, not a
    verdict.  Seeds are rejected, logged and exhausted as _limit_count
    describes.
    """
    hyp: list[dict] = []
    cc = CharacteristicCycle(alpha)
    entries, K = compute_intersection_locus(alpha, f, cc)
    on_level = sum(1 for e in entries if e.on_level)
    hyp.append(
        {
            "check": "locus",
            "status": "ok",
            "entries": len(entries),
            "on_level": on_level,
        }
    )
    if not entries:
        hyp.append({"check": "empty-intersection", "status": "ok"})
        return TheoremReport(
            "theorem1", 0, 0, True, tuple(hyp), {"locus": (), "K": ()}
        )
    if not K:
        raise HypothesisViolationError(
            "cycle support meets the covector of f only over strata where f is nonzero",
            witness={
                "off_level": [
                    (tuple(sorted(e.simplex)), e.multiplicity)
                    for e in entries
                    if not e.on_level
                ]
            },
        )
    hyp.append({"check": "zero-level-support", "status": "ok", "K_size": len(K)})

    phi = vanishing_cycle(alpha, f)
    for s in phi.support():
        if s not in K:
            raise HypothesisViolationError(
                "vanishing cycles are nonzero on a zero-level stratum outside K",
                witness={"stratum": tuple(sorted(s)), "phi": phi.value(s)},
            )
    hyp.append(
        {
            "check": "vanishing-cycle-support",
            "status": "ok",
            "phi_support": len(phi.values),
        }
    )

    lhs = euler_integral(phi, K)
    rhs, seed_used, _, _, rejected = _limit_count(alpha, f, K, seed, cc=cc)
    hyp.append(
        {
            "check": "eta-limit",
            "status": "ok",
            "seed_used": seed_used,
            "seeds_rejected": len(rejected),
            "etas_used": 1,
        }
    )
    artifacts = {
        "locus": entries,
        "K": tuple(sorted((tuple(sorted(s)) for s in K))),
        "seed_used": seed_used,
        "rejected": rejected,
    }
    return TheoremReport("theorem1", lhs, rhs, lhs == rhs, tuple(hyp), artifacts)


def global_index(
    alpha: ConstructibleFunction,
    seed: int = 0,
    cc: CharacteristicCycle | None = None,
) -> TheoremReport:
    """Euler integral against the formula with f = 0, counted by the shared kernel.

    With base 0 the perturbed function is eta * (|y - y0|^2 + zeta . y), whose
    critical points are those of one strictly convex function at every
    eta > 0: every restricted Hessian is positive definite, the region has no
    boundary, and only a star direction paired to zero by a critical gradient
    can reject a seed (see _limit_count).
    """
    cx = alpha.complex
    lhs = euler_integral(alpha)
    hyp: list[dict] = [
        {"check": "compact-support", "status": "ok", "simplices": len(cx.simplices)}
    ]
    rhs, seed_used, y0, zeta, rejected = _limit_count(
        alpha, AffineFunction(Vec.zero(cx.ambient_dim)), None, seed, cc=cc
    )
    hyp.append(
        {
            "check": "genericity",
            "status": "ok",
            "seed_used": seed_used,
            "seeds_rejected": len(rejected),
        }
    )
    artifacts = {
        "seed_used": seed_used,
        "center": y0,
        "direction": zeta,
        "rejected": rejected,
    }
    return TheoremReport("global-index", lhs, rhs, lhs == rhs, tuple(hyp), artifacts)


def local_index(alpha: ConstructibleFunction, v: int, seed: int = 0) -> TheoremReport:
    """Stalk value at a vertex against the Morse count in its open star.

    The paper's formula at a point reads alpha(v) as the count of critical
    points of |y - v|^2, weighted by CC(alpha), in a small conic neighbourhood
    of v.  Here the count is the Morse count of |y - v|^2 plus a seeded tilt
    around v, at the exact limit of a vanishing tilt (morse.stabilized_count),
    on the open star of v: v and its strict cofaces, in the complex as given.

    No subdivision and no cut are needed.  The open star of v is a cone with
    apex v (Rourke-Sanderson, Introduction to Piecewise-Linear Topology,
    1972): on each open simplex tau of it other than v, v lies in the affine
    hull, so the critical point of |y - v|^2 plus the tilt on that hull sits
    within O(eta) of v and the limit reads only the germ of tau at v.  The
    strata off the open star do not meet a small ball around v.  This is the local Morse data of Goresky-MacPherson, Stratified Morse
    Theory (1988).  tests/test_local_index_oracle.py checks this count
    against refining until two consecutive levels agree.  Seeds are
    rejected, logged and exhausted as _limit_count describes.
    """
    cx = alpha.complex
    vs = simplex([v])
    if vs not in cx.simplices:
        raise InputError(f"not a vertex of the complex: {v}")
    lhs = alpha.value(vs)
    hyp: list[dict] = [{"check": "vertex", "status": "ok", "vertex": v}]

    center = cx.vertices[v]
    rhs, seed_used, _, _, rejected = _limit_count(
        alpha,
        squared_distance_from(center),
        open_star_of_simplex(cx, vs),
        seed,
        center=center,
    )
    hyp.append(
        {
            "check": "star-count",
            "status": "ok",
            "seed_used": seed_used,
            "seeds_rejected": len(rejected),
        }
    )
    artifacts = {"vertex": v, "seed_used": seed_used, "rejected": rejected}
    return TheoremReport("local-index", lhs, rhs, lhs == rhs, tuple(hyp), artifacts)


def _lambda_sign_ok(lam: Fraction, side: str) -> bool:
    return lam >= 0 if side == "shriek" else lam <= 0


def _decomposable(
    cc_alpha: CharacteristicCycle,
    Sp: StratumRef,
    xi: Vec,
    dg: Vec,
    side: str,
) -> bool:
    """Does xi split as omega + lambda*dg with omega in the base support?

    lambda is sign-constrained by the side.  For each stratum over the base
    point, conormality of omega(lambda) either pins lambda to one value or
    allows a full ray; on a ray the weak sign pattern of omega(lambda) at the
    star vertices is piecewise constant in lambda, so testing every
    breakpoint, midpoint, endpoint and one point beyond the last breakpoint
    decides membership exactly.

    Everything is paired in int: xi and dg are cleared by one common positive
    multiplier to x and g, so that with D_p the integer star direction of
    star vertex p, omega(lambda) pairs with it with the sign of
    X_p - lambda * G_p, where X_p = x . D_p and G_p = g . D_p.  The
    breakpoints are lambda_p = X_p / G_p, and at lambda = P/Q (Q > 0) the weak
    sign at p is that of Q * X_p - P * G_p; that weak sign vector is all the
    closure query (CharacteristicCycle._chambers_around) reads.
    """
    cx = cc_alpha.complex
    x, g = clear_denominators(xi, dg)
    for s2 in [Sp.simplex] + list(cx.strict_cofaces(Sp.simplex)):
        S2 = cx.stratum(s2)
        forced: tuple[int, int] | None = None  # lambda as (b, a), a != 0
        compatible = True
        for d in S2.direction_basis:
            # numerators over one denominator, which depends on d alone
            a = _dot_ratio(g, d.entries)[0]
            b = _dot_ratio(x, d.entries)[0]
            if a == 0:
                if b != 0:
                    compatible = False
                    break
            elif forced is None:
                forced = (b, a)
            elif b * forced[1] != forced[0] * a:
                compatible = False
                break
        if not compatible:
            continue
        if forced is not None:
            lam = Fraction(*forced)
            # forced != 0: a nondegenerate witness xi is conormal to no strict coface
            if not _lambda_sign_ok(lam, side):
                continue
        star = cx.star_geometry(S2)
        X = [int_dot(x, D) for D in star.integer_directions]
        G = [int_dot(g, D) for D in star.integer_directions]
        if forced is not None:
            tests = [lam]
        else:
            candidates = {Fraction(0)}
            for Xp, Gp in zip(X, G):
                if Gp != 0:
                    lam_p = Fraction(Xp, Gp)
                    if _lambda_sign_ok(lam_p, side):
                        candidates.add(lam_p)
            ordered = sorted(candidates)
            tests = list(ordered)
            for left, right in zip(ordered, ordered[1:]):
                tests.append((left + right) / 2)
            if side == "shriek":
                tests.append(ordered[-1] + 1)
            else:
                tests.append(ordered[0] - 1)
        for lam in tests:
            p, q = lam.numerator, lam.denominator
            weak = []
            for v, Xv, Gv in zip(star.vertex_ids, X, G):
                w = q * Xv - p * Gv
                weak.append((v, 0 if w == 0 else (1 if w > 0 else -1)))
            if any(m != 0 for _, m in cc_alpha._chambers_around(S2, tuple(weak))):
                return True
    return False


def boundary_estimate_check(
    alpha: ConstructibleFunction,
    g: AffineFunction,
    delta,
    side: str,
    cc_alpha: CharacteristicCycle | None = None,
) -> TheoremReport:
    """Support estimate for the cut-open extension along one level of g.

    After subdividing along {g = delta}, beta is the open-side extension
    (shriek keeps the open lower side as is; star is its Verdier conjugate).
    Every nonzero chamber of CC(beta) over a level stratum must decompose at
    its witnesses as a base-support covector plus lambda*dg with lambda >= 0
    (shriek) or <= 0 (star).  Violations are counted and carried as exact
    witnesses; the check holds when there are none.
    """
    cx = alpha.complex
    delta = rat(delta)
    if side not in ("shriek", "star"):
        raise InputError(f"side must be 'shriek' or 'star', got {side!r}")
    if g.dim != cx.ambient_dim:
        raise InputError("cut function dimension does not match the complex")
    used = sorted({i for s in cx.simplices for i in s})
    hit = [i for i in used if cx.vertex_value(g, i) == delta]
    if hit:
        raise TransversalityError(
            "cut level passes through vertices of the complex",
            witness={"vertices": hit, "delta": delta},
        )
    hyp: list[dict] = [{"check": "transversality", "status": "ok"}]

    sub = subdivide_along_hyperplane(cx, g, delta)
    cx2 = sub.complex
    alpha2 = transport(alpha, sub)
    if side == "shriek":
        beta = jshriek_extend(alpha2, g, delta, "below")
    else:
        beta = jstar_extend(alpha2, g, delta, "below")
    cc_beta = CharacteristicCycle(beta)
    if cc_alpha is None or cc_alpha.complex is not cx2:
        cc_alpha = CharacteristicCycle(alpha2)
    level = sorted(side_partition(cx2, g, delta)[0], key=sort_key)
    hyp.append({"check": "level-subdivision", "status": "ok", "level_strata": len(level)})

    dg = g.linear
    violations: list[dict] = []
    witnesses_checked = 0
    for s in level:
        S = cx2.stratum(s)
        for chamber, m in cc_beta.nonzero_chambers(s):
            for xi in chamber_witnesses(cx2, chamber, 2):
                witnesses_checked += 1
                if not _decomposable(cc_alpha, S, xi, dg, side):
                    violations.append(
                        {
                            "stratum": tuple(sorted(s)),
                            "sign_vector": chamber.sign_vector,
                            "witness": tuple(xi),
                            "multiplicity": m,
                        }
                    )
    hyp.append(
        {
            "check": "chamber-decompositions",
            "status": "ok",
            "witnesses_checked": witnesses_checked,
        }
    )
    artifacts = {
        "side": side,
        "delta": delta,
        "level_strata": len(level),
        "witnesses_checked": witnesses_checked,
        "violations": tuple(violations),
    }
    return TheoremReport(
        "boundary-estimate",
        len(violations),
        0,
        not violations,
        tuple(hyp),
        artifacts,
    )
