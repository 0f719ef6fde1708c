"""Chamber enumeration and closure queries by the rules the library replaced.

The library first merges parallel star functionals, which cut one hyperplane,
and runs the incremental extension over one representative of each.  This
module keeps the rule it replaced: extend by every star vertex in turn, with
one exact feasibility call per chamber and sign the partial witness does not
already realize.  Nothing is cached.

It also keeps the closure query the library replaced: enumerate every
chamber over the stratum and keep those whose sign vector the covector's
weak signs match, each with its multiplicity at the chamber's witness.

And it keeps the extension the library ran before its integer conormal
frame: Fraction functionals in the coordinates of the conormal basis, parallel
classes keyed on the functional divided by its first nonzero entry, and one
linalg.strict_feasibility call per chamber and sign.
"""

from __future__ import annotations

from fractions import Fraction

from eulercc import (
    ConstructibleFunction,
    EmbeddedComplex,
    StratumRef,
    Vec,
    enumerate_chambers,
    multiplicity_at,
    strict_feasibility,
)
from eulercc.charcycle import ConormalChamber, SignVector, weak_sign_vector
from eulercc.constructible import is_conormal
from eulercc.linalg import orthogonal_complement


def enumerate_chambers_per_vertex(
    cx: EmbeddedComplex, S: StratumRef
) -> list[ConormalChamber]:
    """All realizable strict sign vectors over S, each with an interior witness."""
    star = cx.star_geometry(S)
    if not star.vertex_ids:
        return [ConormalChamber(S, (), Vec.zero(cx.ambient_dim))]
    basis = orthogonal_complement(list(S.direction_basis), cx.ambient_dim)
    w = len(basis)
    functionals = [Vec(tuple(e.dot(d) for e in basis)) for d in star.directions]
    partial: list[tuple[list[int], Vec]] = [([], Vec.zero(w))]
    for func in functionals:
        grown: list[tuple[list[int], Vec]] = []
        for signs, wit_t in partial:
            at_wit = func.dot(wit_t)
            for cand in (1, -1):
                if at_wit != 0 and (1 if at_wit > 0 else -1) == cand:
                    grown.append((signs + [cand], wit_t))
                    continue
                stricts = [
                    (functionals[j].scale(s), Fraction(0))
                    for j, s in enumerate(signs)
                ] + [(func.scale(cand), Fraction(0))]
                res = strict_feasibility([], stricts, [], w)
                if res.feasible:
                    grown.append((signs + [cand], res.witness))
        partial = grown
    chambers = []
    for signs, wit_t in partial:
        xi = Vec.zero(cx.ambient_dim)
        for coeff, e in zip(wit_t, basis):
            xi = xi + e.scale(coeff)
        chambers.append(ConormalChamber(S, tuple(zip(star.vertex_ids, signs)), xi))
    chambers.sort(key=lambda c: c.sign_vector)
    return chambers


def closure_chambers_by_filter(
    alpha: ConstructibleFunction, S: StratumRef, xi: Vec
) -> list[tuple[SignVector, int]]:
    """(sign vector, multiplicity) of every chamber over S whose closure holds
    xi, by filtering all of them; empty when xi is not conormal."""
    cx = alpha.complex
    if not is_conormal(cx, S, xi):
        return []
    weak = dict(weak_sign_vector(cx, S, xi))
    out = []
    for chamber in enumerate_chambers(cx, S):
        if all(weak[p] == 0 or weak[p] == sgn for p, sgn in chamber.sign_vector):
            out.append((chamber.sign_vector, multiplicity_at(alpha, S, chamber.witness)))
    return out


def fraction_functionals(cx: EmbeddedComplex, S: StratumRef) -> list[Vec]:
    """xi -> xi . (p - b) on the conormal space of S, per star vertex p, in
    the coordinates of a freshly computed conormal basis."""
    basis = orthogonal_complement(list(S.direction_basis), cx.ambient_dim)
    return [
        Vec(tuple(e.dot(d) for e in basis))
        for d in cx.star_geometry(S).directions
    ]


def parallel_classes_by_ratio(
    functionals: list[Vec],
) -> tuple[list[Vec], list[tuple[int, int]]]:
    """One representative of each parallel class, in order of first
    appearance, and per functional (index of its representative, sign of
    their ratio)."""
    distinct: list[Vec] = []
    leads: dict[tuple[Fraction, ...], tuple[int, Fraction]] = {}
    classes: list[tuple[int, int]] = []
    for func in functionals:
        lead = next(x for x in func if x != 0)
        key = tuple(x / lead for x in func)
        if key not in leads:
            leads[key] = (len(distinct), lead)
            distinct.append(func)
        k, rep_lead = leads[key]
        classes.append((k, 1 if (lead > 0) == (rep_lead > 0) else -1))
    return distinct, classes


def extend_by_feasibility(distinct: list[Vec], w: int) -> list[tuple[list[int], Vec]]:
    """Every realizable strict sign vector of the central arrangement in R^w
    cut by pairwise nonparallel functionals, with an interior point: each
    chamber of the first i hyperplanes takes the sign it realizes for free,
    and the opposite sign through one exact feasibility call."""
    partial: list[tuple[list[int], Vec]] = [([], Vec.zero(w))]
    for func in distinct:
        grown: list[tuple[list[int], Vec]] = []
        for signs, wit_t in partial:
            at_wit = func.dot(wit_t)
            for cand in (1, -1):
                if at_wit != 0 and (1 if at_wit > 0 else -1) == cand:
                    grown.append((signs + [cand], wit_t))
                    continue
                stricts = [
                    (distinct[j].scale(s), Fraction(0))
                    for j, s in enumerate(signs)
                ] + [(func.scale(cand), Fraction(0))]
                res = strict_feasibility([], stricts, [], w)
                if res.feasible:
                    grown.append((signs + [cand], res.witness))
        partial = grown
    return partial
