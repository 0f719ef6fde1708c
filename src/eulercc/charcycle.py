"""Characteristic cycles as lazily evaluated chamber multiplicity data.

Over each stratum S the nondegenerate conormal covectors fall into finitely
many open cones, cut out by the hyperplanes paired with star vertices; the
cycle is the assignment chamber -> integer multiplicity.  With b the
barycenter of S, the multiplicity at xi is the lower-link sum

    m(S, xi) = alpha(S) - sum of (-1)^dim(tau - S) * alpha(tau)

over the strict cofaces tau of S whose added vertices p all satisfy
xi . (p - b) < 0, so it depends on the chamber of xi only.  The sum is the
integral of alpha over the lower halflink of S at xi, by the conic structure
of the star of S (see constructible.halflink_integral), and the formula is
the PL local index formula for characteristic cycles (Kashiwara-Schapira,
Sheaves on Manifolds, Ch. IX; Schapira, "Operations on constructible
functions", JPAA 1991).  tests/test_halflink_oracle.py checks it against the
exact normal-slice geometry.  The geometry over S is read in int from one
conormal frame per stratum (conormal_frame): a basis of the conormal space
and, per star vertex, its functional on it as a primitive integer vector,
so chambers are extended by Fourier-Motzkin on those rows and closure
queries read their weak signs.  Nothing is materialized up front.  A support
query at one covector xi reads only the chambers whose closure holds xi:
those of the sub-arrangement of the hyperplanes through xi, which is xi's
own chamber when no star vertex pairs to zero with it.  Only the queries
that need every chamber over a stratum (xi normal to the whole star, the
level strata of the boundary estimate, the antipodal check, the cc output)
fill the stratum's (chamber, multiplicity) table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import NamedTuple

from .complexes import EmbeddedComplex, Simplex, StratumRef, carrier
from .constructible import (
    ConstructibleFunction,
    _lower_link_sum,
    dual,
    halflink_integral,
    is_conormal,
    star_signs,
)
from .errors import InputError
from .linalg import (
    Vec,
    _dot_ratio,
    _fm_feasible,
    _rref,
    clear_denominators,
    int_dot,
    orthogonal_complement,
)

SignVector = tuple[tuple[int, int], ...]  # ((star vertex id, sign), ...) sorted


@dataclass(frozen=True)
class ConormalChamber:
    """An open cone of nondegenerate covectors over a stratum.

    sign_vector records, per star vertex p, the sign of xi . (p - barycenter);
    the witness is an exact interior covector (zero for strata without
    cofaces, whose whole conormal space is one chamber).
    """

    stratum: StratumRef
    sign_vector: SignVector
    witness: Vec

    def signs(self) -> dict[int, int]:
        return dict(self.sign_vector)


class ConormalFrame(NamedTuple):
    """The conormal space of a stratum, with the star functionals on it.

    basis spans the covectors orthogonal to the stratum's directions.
    functionals[i] is the primitive integer vector that is a positive multiple
    of t -> sum of t_j * (basis[j] . directions[i]): the covector
    sum of t_j * basis[j] pairs with star vertex i with the sign of
    functionals[i] . t, and two star vertices cut one hyperplane exactly when
    their functionals agree up to sign.
    """

    basis: tuple[Vec, ...]
    functionals: tuple[tuple[int, ...], ...]


def conormal_frame(cx: EmbeddedComplex, S: StratumRef) -> ConormalFrame:
    """The conormal frame of S, computed once and stored in its star geometry."""
    star = cx.star_geometry(S)
    if star.conormal is None:
        basis = orthogonal_complement(list(S.direction_basis), cx.ambient_dim)
        cleared = clear_denominators(*basis)
        functionals = []
        for d in star.integer_directions:
            row = [int_dot(e, d) for e in cleared]
            g = gcd(*row)
            functionals.append(tuple(x // g for x in row) if g > 1 else tuple(row))
        star.conormal = ConormalFrame(basis, tuple(functionals))
    return star.conormal


def is_nondegenerate(cx: EmbeddedComplex, S, xi: Vec) -> bool:
    """True when xi pairs nonzero with every star vertex direction.

    In the PL model the degenerate covectors over S are exactly the union of
    the hyperplanes {xi . (p - b) = 0}: each is the closure of the conormal
    space of the coface generated by p.
    """
    if not isinstance(S, StratumRef):
        S = cx.stratum(S)
    if not is_conormal(cx, S, xi):
        raise InputError(f"covector not conormal to {sorted(S.simplex)}")
    return 0 not in cx.star_geometry(S).pairings(xi)


def strict_sign_vector(cx: EmbeddedComplex, S: StratumRef, xi: Vec) -> SignVector:
    """Chamber key of a nondegenerate covector; degeneracy raises."""
    return tuple(star_signs(cx, S, xi))


def weak_sign_vector(cx: EmbeddedComplex, S: StratumRef, xi: Vec) -> SignVector:
    """Like strict_sign_vector but zeros are kept (closure membership tests)."""
    star = cx.star_geometry(S)
    out: list[tuple[int, int]] = []
    for p, pairing in zip(star.vertex_ids, star.pairings(xi)):
        out.append((p, 0 if pairing == 0 else (1 if pairing > 0 else -1)))
    return tuple(out)


def _parallel_classes(
    functionals: Sequence[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """One representative of each parallel class of primitive functionals.

    A primitive integer vector is determined by its line up to sign, so the
    classes are keyed on the functional with its first nonzero entry made
    positive.  Returns the representatives in order of first appearance and,
    per functional, (index of its representative, sign of their ratio).
    """
    distinct: list[tuple[int, ...]] = []
    leads: dict[tuple[int, ...], tuple[int, int]] = {}
    classes: list[tuple[int, int]] = []
    for func in functionals:
        lead = 1 if next(x for x in func if x != 0) > 0 else -1
        key = func if lead > 0 else tuple(-x for x in func)
        if key not in leads:
            leads[key] = (len(distinct), lead)
            distinct.append(func)
        k, rep_lead = leads[key]
        classes.append((k, lead * rep_lead))
    return distinct, classes


def _extend(
    distinct: Sequence[tuple[int, ...]], w: int
) -> list[tuple[list[int], Vec]]:
    """Every realizable strict sign vector of the central arrangement in R^w
    cut by the given pairwise nonparallel primitive functionals, with an
    interior point.

    Every chamber of the first i hyperplanes is extended by the sign it
    already realizes for free, and by the opposite sign through one
    Fourier-Motzkin call on the strict constraints s_j * functional_j . t > 0.
    Those rows are primitive already, and with no equalities
    linalg.strict_feasibility reduces to the same call (its point is 0, its
    basis the unit vectors and its embedding the identity), so each witness
    is the one it returns (tests/chamber_oracle.py).
    """
    partial: list[tuple[list[int], Vec]] = [([], Vec.zero(w))]
    for func in distinct:
        grown: list[tuple[list[int], Vec]] = []
        for signs, wit_t in partial:
            at_wit = _dot_ratio(func, wit_t.entries)[0]
            for cand in (1, -1):
                if at_wit != 0 and (1 if at_wit > 0 else -1) == cand:
                    grown.append((signs + [cand], wit_t))
                    continue
                cons = [
                    (tuple(s * x for x in distinct[j]), 0, True)
                    for j, s in enumerate(signs)
                ] + [(tuple(cand * x for x in func), 0, True)]
                witness = _fm_feasible(cons, w)
                if witness is not None:
                    grown.append((signs + [cand], witness))
        partial = grown
    return partial


def enumerate_chambers(cx: EmbeddedComplex, S) -> list[ConormalChamber]:
    """All realizable strict sign vectors over S, each with an interior witness.

    Incremental construction over the star-vertex hyperplane arrangement in
    the conormal subspace, in the coordinates of the stratum's conormal frame
    (conormal_frame), where each star vertex's functional xi -> xi . (p - b)
    is a primitive integer vector.  Star vertices whose functionals are
    parallel cut one hyperplane, so the extension (_extend) runs over one
    representative of each parallel class (_parallel_classes).  Each star
    vertex then reads its sign off its representative's, times the sign of
    the ratio of the two functionals.  The witnesses are those of the
    extension over every star vertex (tests/chamber_oracle.py): there a
    parallel vertex always takes its free sign and its opposite sign is
    infeasible, and Fourier-Motzkin keeps each constraint as a primitive
    integer vector and drops repeats, so every system it solves reduces to
    the same constraints in the same order.  The chambers are stored in the
    complex's star geometry of S.
    """
    if not isinstance(S, StratumRef):
        S = cx.stratum(S)
    star = cx.star_geometry(S)
    if star.chambers is not None:
        return list(star.chambers)
    if not star.vertex_ids:
        star.chambers = (ConormalChamber(S, (), Vec.zero(cx.ambient_dim)),)
        return list(star.chambers)
    frame = conormal_frame(cx, S)
    distinct, classes = _parallel_classes(frame.functionals)
    chambers = []
    for signs, wit_t in _extend(distinct, len(frame.basis)):
        xi = Vec.zero(cx.ambient_dim)
        for coeff, e in zip(wit_t, frame.basis):
            xi = xi + e.scale(coeff)
        sv = tuple((p, signs[k] * r) for p, (k, r) in zip(star.vertex_ids, classes))
        chambers.append(ConormalChamber(S, sv, xi))
    chambers.sort(key=lambda c: c.sign_vector)
    star.chambers = tuple(chambers)
    return chambers


def chamber_witnesses(
    cx: EmbeddedComplex, chamber: ConormalChamber, count: int = 2
) -> list[Vec]:
    """Distinct interior covectors of one chamber, for constancy checks.

    Perturbs the stored witness along conormal basis directions by exact
    margins small enough to preserve every strict sign.
    """
    out = [chamber.witness]
    if not chamber.sign_vector:
        return out[:count]
    S = chamber.stratum
    dirs = cx.star_geometry(S).directions
    for e in conormal_frame(cx, S).basis:
        if len(out) >= count:
            break
        margin: Fraction | None = None
        for d in dirs:
            denom = abs(e.dot(d))
            if denom != 0:
                bound = abs(chamber.witness.dot(d)) / denom
                if margin is None or bound < margin:
                    margin = bound
        delta = Fraction(1) if margin is None else margin / 2
        cand = chamber.witness + e.scale(delta)
        if all(cand != existing for existing in out):
            out.append(cand)
    return out[:count]


def multiplicity_at(alpha: ConstructibleFunction, S, xi: Vec) -> int:
    """m(S, xi) = alpha(S) minus the lower-link sum; no memoization.

    The lower-link sum, computed by halflink_integral, runs over the strict
    cofaces tau of S whose added vertices all pair negatively with xi, and
    equals the integral of alpha over the lower halflink of S at xi.  A
    covector that is not conormal raises InputError; a degenerate one raises
    DegeneracyError with the stratum and the first star vertex it annihilates.
    """
    cx = alpha.complex
    if not isinstance(S, StratumRef):
        S = cx.stratum(S)
    return alpha.value(S.simplex) - halflink_integral(alpha, S, xi)


class CharacteristicCycle:
    """Lazy multiplicity accessor for CC(alpha).

    Multiplicities are constant on chambers, so they are memoized per
    (stratum, strict sign vector); the key fixes the set of star vertices
    below, which is all a multiplicity reads.  Support queries at one
    covector (closure_chambers) fill that memo for the chambers whose closure
    holds it, without enumerating the others.  Queries that need every
    chamber over a stratum read a per-stratum table of (chamber, multiplicity)
    pairs, filled once through the same memo from the chambers stored in the
    complex's star geometry; a cycle and its dual share those chambers but not
    their tables.  Both memos are write-once with identical values and are
    safe under concurrent insertion.
    """

    def __init__(self, alpha: ConstructibleFunction):
        self.alpha = alpha
        self.complex = alpha.complex
        self._memo: dict[tuple[Simplex, SignVector], int] = {}
        self._tables: dict[Simplex, tuple[tuple[ConormalChamber, int], ...]] = {}

    def multiplicity(self, S, xi: Vec) -> int:
        cx = self.complex
        if not isinstance(S, StratumRef):
            S = cx.stratum(S)
        key = (S.simplex, strict_sign_vector(cx, S, xi))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = multiplicity_at(self.alpha, S, xi)
        self._memo[key] = value
        return value

    def chambers(self, s) -> list[ConormalChamber]:
        return enumerate_chambers(self.complex, s)

    def chamber_multiplicities(self, s) -> list[tuple[ConormalChamber, int]]:
        """Every chamber over s with its multiplicity, read from the table of s."""
        if not isinstance(s, StratumRef):
            s = self.complex.stratum(s)
        table = self._tables.get(s.simplex)
        if table is None:
            table = tuple(
                (c, self.multiplicity(s, c.witness)) for c in self.chambers(s)
            )
            self._tables[s.simplex] = table
        return list(table)

    def nonzero_chambers(self, s) -> list[tuple[ConormalChamber, int]]:
        return [(c, m) for c, m in self.chamber_multiplicities(s) if m != 0]

    def closure_chambers(self, S, xi: Vec) -> list[tuple[SignVector, int]]:
        """(strict sign vector, multiplicity) of every chamber over S whose
        closure holds xi, sorted by sign vector; empty when xi is not conormal.

        Localization: a chamber's closure holds xi exactly when the chamber
        is one of the central sub-arrangement of the star hyperplanes through
        xi (Zaslavsky, "Facing up to arrangements", Mem. AMS 1975).  It keeps
        xi's nonzero signs and takes, on the star vertices pairing to zero, a
        sign pattern some conormal t realizes, for then xi + eps * t lies in
        it for small eps > 0.  With no zero pairing that is xi's own chamber.
        Star vertices with parallel functionals share a hyperplane; when the
        representatives of the zero classes are linearly independent, every
        pattern of signs on them is realized, and only otherwise does the
        incremental extension decide which are.  When every pairing is zero
        every chamber qualifies, and the table of S answers.  A multiplicity
        missing from the memo is alpha(S) minus the lower-link sum over the
        star vertices the sign vector puts below, stored under the key a
        witness query of that chamber reads.
        """
        cx = self.complex
        if not isinstance(S, StratumRef):
            S = cx.stratum(S)
        if not is_conormal(cx, S, xi):
            return []
        return self._chambers_around(S, weak_sign_vector(cx, S, xi))

    def _chambers_around(
        self, S: StratumRef, weak: SignVector
    ) -> list[tuple[SignVector, int]]:
        """closure_chambers at a conormal covector with the weak sign vector
        weak, which is all the query reads of it."""
        zeros = [i for i, (_, sign) in enumerate(weak) if sign == 0]
        if weak and len(zeros) == len(weak):
            return [(c.sign_vector, m) for c, m in self.chamber_multiplicities(S)]
        if not zeros:
            sign_vectors = [weak]
        else:
            frame = conormal_frame(self.complex, S)
            distinct, classes = _parallel_classes(
                [frame.functionals[i] for i in zeros]
            )
            if len(_rref([list(f) for f in distinct])) == len(distinct):
                patterns = product((1, -1), repeat=len(distinct))
            else:
                patterns = (
                    signs for signs, _ in _extend(distinct, len(frame.basis))
                )
            sign_vectors = []
            for signs in patterns:
                sv = list(weak)
                for i, (k, r) in zip(zeros, classes):
                    sv[i] = (weak[i][0], signs[k] * r)
                sign_vectors.append(tuple(sv))
            sign_vectors.sort()
        return [(sv, self._chamber_value(S, sv)) for sv in sign_vectors]

    def _chamber_value(self, S: StratumRef, sign_vector: SignVector) -> int:
        key = (S.simplex, sign_vector)
        value = self._memo.get(key)
        if value is None:
            below = {p for p, sign in sign_vector if sign < 0}
            value = self.alpha.value(S.simplex) - _lower_link_sum(
                self.alpha, S.simplex, below
            )
            self._memo[key] = value
        return value

    def closure_supports(self, S, xi: Vec) -> bool:
        """Is (base of S, xi) in the closed support, tested at stratum S only?

        True when xi is conormal to S and some chamber whose closure holds it
        has nonzero multiplicity.  Those chambers are decided locally
        (closure_chambers): by Zaslavsky's localization ("Facing up to
        arrangements", Mem. AMS 1975) they are the chambers of the
        sub-arrangement of the star hyperplanes through xi, and when the
        parallel classes of the zero pairings are linearly independent every
        sign pattern on them is one, with no feasibility test.
        """
        return any(m != 0 for _, m in self.closure_chambers(S, xi))


def support_contains(cc: CharacteristicCycle, x: Vec, xi: Vec) -> bool:
    """Membership of (x, xi) in |CC(alpha)| = union of closed nonzero chambers.

    x must lie in the complex; the relevant strata are the carrier of x and
    its cofaces, since those are the strata whose closure contains x.
    """
    cx = cc.complex
    sigma = carrier(cx, x)
    if sigma is None:
        raise InputError(f"point {x!r} lies outside the complex")
    for s in [sigma] + list(cx.strict_cofaces(sigma)):
        if cc.closure_supports(s, xi):
            return True
    return False


def antipodal_support_check(alpha: ConstructibleFunction) -> bool:
    """Support of CC(dual alpha) equals the antipodal image of CC(alpha)'s.

    Checked chamber by chamber: the dual's multiplicity at a witness xi is
    nonzero exactly when alpha's multiplicity at -xi is (and -xi is a witness
    of the opposite chamber, so this exhausts both supports).
    """
    cc = CharacteristicCycle(alpha)
    ccd = CharacteristicCycle(dual(alpha))
    cx = alpha.complex
    for s in cx.simplices_sorted():
        for chamber in cc.chambers(s):
            xi = chamber.witness
            lhs = ccd.multiplicity(chamber.stratum, xi) != 0
            rhs = cc.multiplicity(chamber.stratum, xi.scale(-1)) != 0
            if lhs != rhs:
                return False
    return True
