"""The Fraction Gram solve that the integer limit frame replaced, kept as a test oracle.

morse._limit_gradient reads the eta -> 0+ gradient at a stratum's critical
point from one integer frame per stratum.  This module keeps the code it
replaced: per call, the Gram matrix D^T D over Fraction and one solve_affine
for each of the eta^0 and eta^1 right sides, skipping the eta^0 solve when
r0 = 0; and the limit covector g0 + eps*g1 built over Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from eulercc import DegeneracyError, EmbeddedComplex, StratumRef, Vec
from eulercc.linalg import clear_denominators, int_dot, solve_affine
from eulercc.morse import _lex_sign as lex_sign


def limit_gradient(
    cx: EmbeddedComplex, S: StratumRef, a: Fraction, u0: Vec, u1: Vec
) -> tuple[Vec, Vec] | None:
    """(g0, g1) with gradient g0 + eta*g1 at the critical point on S, if interior.

    f_eta has gradient s*y - u with s = 2(a + eta) and u = u0 + eta*u1.  On
    y = v0 + D t the critical point solves G (s t) = D^T (u - s v0), G = D^T D,
    whose right side is D^T r0 + eta D^T r1 with r_k = u_k - 2 c_k v0
    (c_0 = a, c_1 = 1).  So s t = w0 + eta*w1 with G w_k = D^T r_k, and the
    gradient there is g0 + eta*g1 with g_k = D w_k - r_k: minus the part of
    r_k normal to S, so both are conormal.  The point is interior for small
    eta when every s t_i and s (1 - sum t_i) is lexicographically positive;
    s > 0 leaves the signs of t alone.  Vertices are always critical.
    """
    v0 = cx.vertices[min(S.simplex)]  # the base of S.direction_basis
    r0 = u0 - v0.scale(2 * a)
    r1 = u1 - v0.scale(2)
    D = S.direction_basis
    if not D:
        return r0.scale(-1), r1.scale(-1)
    d = len(D)
    gram = [Vec(tuple(D[i].dot(D[j]) for j in range(d))) for i in range(d)]
    w0, w1 = (
        solve_affine([(gram[i], D[i].dot(r)) for i in range(d)], d).point
        if not r.is_zero()
        else Vec.zero(d)  # G is positive definite, so G w = 0 forces w = 0
        for r in (r0, r1)
    )
    slack = (2 * a - sum(w0), 2 - sum(w1))
    if any(lex_sign(x0, x1) <= 0 for x0, x1 in [*zip(w0, w1), slack]):
        return None
    g0, g1 = r0.scale(-1), r1.scale(-1)
    for di, x0, x1 in zip(D, w0, w1):
        g0, g1 = g0 + di.scale(x0), g1 + di.scale(x1)
    return g0, g1


def limit_covector(cx: EmbeddedComplex, S: StratumRef, g0: Vec, g1: Vec) -> Vec:
    """A covector in the chamber that g0 + eta*g1 lies in for small eta > 0.

    Each star pairing of xi = g0 + eps*g1 has the lexicographic sign of
    (g0 . d, g1 . d), since eps*|g1 . d| <= |g0 . d|/2 wherever both are
    nonzero; a direction paired to zero by both is degenerate at every eta.
    """
    eps = Fraction(1)
    star = cx.star_geometry(S)
    h0, h1 = clear_denominators(g0, g1)  # one multiplier keeps each x0 / x1
    for p, d in zip(star.vertex_ids, star.integer_directions):
        x0, x1 = int_dot(h0, d), int_dot(h1, d)
        if x0 == 0 and x1 == 0:
            raise DegeneracyError(
                f"limit gradient pairs to zero with star vertex {p} of "
                f"{sorted(S.simplex)} at every eta",
                witness={"stratum": tuple(sorted(S.simplex)), "star_vertex": p},
            )
        if x0 != 0 and x1 != 0:
            eps = min(eps, Fraction(abs(x0), 2 * abs(x1)))
    return g0 + g1.scale(eps)
