"""Stratified Morse machinery over exact rational data.

Critical points of an affine-plus-quadratic function on a stratum are the
solutions of an exact linear system in barycentric coordinates; indices come
from the inertia of the restricted Hessian.  The perturbed count used by the
verifiers is taken at the exact limit eta -> 0+ of base + eta * bump: each
sign it needs is a sign of x0 + eta*x1, read off lexicographically, which
is symbolic perturbation in the sense of Edelsbrunner-Mucke ("Simulation of
Simplicity", ACM TOG 1990) and Yap ("Symbolic treatment of geometric
degeneracies", JSC 1990).  No eta is ever sampled.  The count runs over the
strata it is given, on the complex it is given: no tube is cut around them
and no boundary is guarded, because each stratum's limit critical point and
limit covector depend on that stratum and its star alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .charcycle import CharacteristicCycle
from .complexes import EmbeddedComplex, StratumRef, as_region, simplex, sort_key
from .constructible import ConstructibleFunction
from .errors import DegeneracyError, DegenerateFunctionError, InputError
from .functions import AffineFunction, QuadAffineFunction
from .linalg import (
    Inertia,
    SymMatrix,
    Vec,
    clear_denominators,
    inertia,
    int_dot,
    strict_feasibility,
)


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


def _lex_sign(x0: int | Fraction, x1: int | Fraction) -> int:
    """Sign of x0 + eta*x1 for all small eta > 0: that of the first nonzero one."""
    x = x0 if x0 != 0 else x1
    return (x > 0) - (x < 0)


def _quadratic_weight(f: QuadAffineFunction) -> Fraction:
    """a with quadratic part a|y|^2, a >= 0; any other Hessian is refused."""
    if f.quad is None:
        return Fraction(0)
    a = f.quad.rows[0][0]
    if a < 0 or f.quad != SymMatrix.identity(f.dim).scale(a):
        raise InputError("base function must have quadratic part a|y|^2 with a >= 0")
    return a


def _limit_gradient(
    S: StratumRef, A: int, M: int, U0: Sequence[int], U1: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A positive multiple of (g0, g1), the gradient g0 + eta*g1 at the
    critical point on S, if that point is interior.

    f_eta has gradient s*y - u with s = 2(a + eta) and u = u0 + eta*u1,
    given here over one denominator M > 0 as a = A/M and u_k = U_k/M.  On
    y = v0 + D t the critical point solves G (s t) = D^T (u - s v0),
    G = D^T D, whose right side is D^T r0 + eta D^T r1 with
    r_k = u_k - 2 c_k v0 (c_0 = a, c_1 = 1).  So s t = w0 + eta*w1 with
    w_k = G^-1 D^T r_k, and the gradient there is g0 + eta*g1 with
    g_k = D w_k - r_k: minus the part of r_k normal to S, so both are
    conormal.  The point is interior for small eta when every s t_i and
    s (1 - sum t_i) is lexicographically positive; s > 0 leaves the signs of
    t alone.  Vertices are always critical.

    G depends on S alone, so nothing is solved per count: S.limit_frame
    holds, once per stratum, v0 = V/m and the adjugate forms
    weights = Δ G^-1 D^T and normal = Δ (I - D G^-1 D^T) over one
    determinant Δ > 0, all in int.  With the integer vectors
    R_k = M m r_k = m U_k - 2 C_k V (C_0 = A, C_1 = M) and N = Δ M m > 0,

        N w_k = weights . R_k,    N g_k = -normal . R_k,
        N (2 c_k - sum of w_k) = 2 Δ m C_k - sum of weights . R_k.

    Multiplying both coefficients of x0 + eta*x1 by N > 0 keeps its
    lexicographic sign, so interiority is decided exactly as from w_k; and
    one common positive multiple of g0 and g1 keeps every sign and every
    ratio x0/x1 of their star pairings, so _limit_covector finds the same
    chamber, and the multiplicity memo the same key.
    tests/limit_gradient_oracle.py keeps the Fraction Gram solve.
    """
    frame = S.limit_frame
    m, V = frame.base_den, frame.base
    R0 = [m * u - 2 * A * v for u, v in zip(U0, V)]
    R1 = [m * u - 2 * M * v for u, v in zip(U1, V)]
    x0 = [int_dot(w, R0) for w in frame.weights]
    x1 = [int_dot(w, R1) for w in frame.weights]
    slack = (2 * frame.det * m * A - sum(x0), 2 * frame.det * m * M - sum(x1))
    if any(_lex_sign(y0, y1) <= 0 for y0, y1 in [*zip(x0, x1), slack]):
        return None
    return (
        tuple(-int_dot(q, R0) for q in frame.normal),
        tuple(-int_dot(q, R1) for q in frame.normal),
    )


def _limit_covector(
    cx: EmbeddedComplex, S: StratumRef, g0: Sequence[int], g1: Sequence[int]
) -> Vec:
    """A covector in the chamber that g0 + eta*g1 lies in for small eta > 0.

    Each star pairing of xi = g0 + eps*g1 has the lexicographic sign of
    (g0 . d, g1 . d), since eps*|g1 . d| <= |g0 . d|/2 wherever both are
    nonzero; a direction paired to zero by both is degenerate at every eta.
    With eps = p/q, the covector returned is q*xi, in integers.
    """
    p, q = 1, 1
    star = cx.star_geometry(S)
    for vid, d in zip(star.vertex_ids, star.integer_directions):
        x0, x1 = int_dot(g0, d), int_dot(g1, d)
        if x0 == 0 and x1 == 0:
            raise DegeneracyError(
                f"limit gradient pairs to zero with star vertex {vid} of "
                f"{sorted(S.simplex)} at every eta",
                witness={"stratum": tuple(sorted(S.simplex)), "star_vertex": vid},
            )
        if x0 != 0 and x1 != 0 and abs(x0) * q < 2 * abs(x1) * p:
            p, q = abs(x0), 2 * abs(x1)
    return Vec(tuple(Fraction(q * y0 + p * y1) for y0, y1 in zip(g0, g1)))


def stabilized_count(
    alpha: ConstructibleFunction,
    base_f,
    center: Vec,
    direction: Vec,
    region=None,
    cc: CharacteristicCycle | None = None,
) -> int:
    """Morse count on the region's strata of base + eta*bump at the limit eta -> 0+.

    The region is any set of strata of the complex (None: all of them); a
    stratum that is not a simplex of the complex raises InputError.  The
    bump is |y - center|^2 + direction . y, and the base must be affine,
    or a|y|^2 plus affine with a >= 0 (else InputError).  Then every
    quantity the count reads off a stratum is a sign of some x0 + eta*x1: the
    interiority of the critical point and each star pairing of its gradient
    (see _limit_gradient).  Such a sign is constant on (0, |x0/x1|), so on
    (0, min |x0/x1|) every sign at once equals its lexicographic limit, and the
    count there is the one computed here, exactly.  This is one-parameter
    symbolic perturbation (Edelsbrunner-Mucke, "Simulation of Simplicity",
    ACM TOG 1990; Yap, "Symbolic treatment of geometric degeneracies", JSC
    1990).  The restricted Hessian (2a + 2 eta) G is positive definite, so
    every Morse sign is +1 and the count is the sum of the limit chamber
    multiplicities.  A star pairing that vanishes identically in eta raises
    DegeneracyError with the stratum and star vertex.
    tests/test_schedule_oracle.py checks it against a decreasing eta schedule.
    """
    cx = alpha.complex
    base_q = _as_quadratic(base_f)
    if base_q.dim != cx.ambient_dim:
        raise InputError("function dimension does not match the complex")
    a = _quadratic_weight(base_q)
    if region is None:
        strata = cx.simplices
    else:
        strata = frozenset(simplex(s) for s in region)
        outside = sorted(sorted(s) for s in strata - cx.simplices)
        if outside:
            raise InputError(f"region strata are not simplices of the complex: {outside}")
    if cc is None:
        cc = CharacteristicCycle(alpha)
    u0 = base_q.linear.scale(-1)
    u1 = center.scale(2) - direction
    # one denominator M for a, u0 and u1: the last vector is (M*a, M)
    U0, U1, (A, M) = clear_denominators(u0, u1, Vec((a, Fraction(1))))
    total = 0
    for s in sorted(strata, key=sort_key):
        S = cx.stratum(s)
        limit = _limit_gradient(S, A, M, U0, U1)
        if limit is None:
            continue
        total += cc.multiplicity(S, _limit_covector(cx, S, *limit))
    return total
