"""The boundary estimate's lambda-pencil test by the rule the library replaced.

intersect._decomposable pairs xi and dg in int, once, and hands each weak sign
vector of omega(lambda) = xi - lambda * dg straight to the closure query.
This module keeps the rule it replaced: build omega(lambda) as a Fraction
vector at every lambda it tests, and ask CharacteristicCycle.closure_supports,
which decides conormality and the weak signs again.
"""

from __future__ import annotations

from fractions import Fraction

from eulercc import CharacteristicCycle, StratumRef, Vec


def _lambda_sign_ok(lam: Fraction, side: str) -> bool:
    return lam >= 0 if side == "shriek" else lam <= 0


def decomposable_by_vec(
    cc_alpha: CharacteristicCycle,
    Sp: StratumRef,
    xi: Vec,
    dg: Vec,
    side: str,
) -> bool:
    """Does xi split as omega + lambda*dg with omega in the base support?

    For each stratum over the base point, conormality of omega(lambda)
    either pins lambda to one value or allows a full ray; on a ray every
    breakpoint, midpoint, endpoint and one point beyond the last breakpoint
    is tested.
    """
    cx = cc_alpha.complex
    for s2 in [Sp.simplex] + list(cx.strict_cofaces(Sp.simplex)):
        S2 = cx.stratum(s2)
        forced: Fraction | None = None
        compatible = True
        for d in S2.direction_basis:
            a = dg.dot(d)
            b = xi.dot(d)
            if a == 0:
                if b != 0:
                    compatible = False
                    break
            else:
                lam0 = b / a
                if forced is None:
                    forced = lam0
                elif forced != lam0:
                    compatible = False
                    break
        if not compatible:
            continue
        if forced is not None:
            if _lambda_sign_ok(forced, side) and cc_alpha.closure_supports(
                S2, xi - dg.scale(forced)
            ):
                return True
            continue
        candidates = {Fraction(0)}
        for dvec in cx.star_geometry(S2).directions:
            a = dg.dot(dvec)
            if a != 0:
                lam_p = xi.dot(dvec) / a
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
            if cc_alpha.closure_supports(S2, xi - dg.scale(lam)):
                return True
    return False
