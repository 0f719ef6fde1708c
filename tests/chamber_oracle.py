"""Chamber enumeration over every star hyperplane, kept as a test oracle.

The library first merges parallel star functionals, which cut one hyperplane,
and runs the incremental extension over one representative of each.  This
module keeps the rule it replaced: extend by every star vertex in turn, with
one exact feasibility call per chamber and sign the partial witness does not
already realize.  Nothing is cached.
"""

from __future__ import annotations

from fractions import Fraction

from eulercc import EmbeddedComplex, StratumRef, Vec, strict_feasibility
from eulercc.charcycle import ConormalChamber, conormal_basis


def enumerate_chambers_per_vertex(
    cx: EmbeddedComplex, S: StratumRef
) -> list[ConormalChamber]:
    """All realizable strict sign vectors over S, each with an interior witness."""
    star = cx.star_geometry(S)
    if not star.vertex_ids:
        return [ConormalChamber(S, (), Vec.zero(cx.ambient_dim))]
    basis = conormal_basis(cx, S)
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
