"""Embedded rational simplicial complexes and their stratum geometry.

A complex is a finite set of simplices (vertex-id frozensets) with rational
vertex coordinates.  Open simplices are the strata of the PL model: linear
embeddings make the usual regularity conditions automatic, so everything
downstream only ever needs the combinatorics plus exact convex-geometry tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .functions import AffineFunction
from .linalg import (
    Vec,
    _rref,
    clear_denominators,
    int_dot,
    matrix_rank,
    rat,
    solve_affine,
    strict_feasibility,
)

Simplex = frozenset[int]
Subcomplex = frozenset[Simplex]


def simplex(ids: Iterable[int]) -> Simplex:
    s = frozenset(int(i) for i in ids)
    if not s:
        raise InputError("empty simplex")
    return s


def sort_key(s: Simplex) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


class LimitFrame(NamedTuple):
    """The orthogonal projection onto a stratum's directions, scaled to int.

    It is what morse._limit_gradient reads.  With D the n x d matrix whose
    columns are the stratum's direction basis and G = D^T D, the base
    vertex is base / base_den, and for every vector r

        weights . r = det * G^-1 D^T r         (coordinates in the basis D)
        normal . r  = det * (r - D G^-1 D^T r)  (the part normal to the stratum)

    where det > 0 is the determinant of E E^T, E = Lambda D^T the direction
    basis with row i scaled by the lcm lambda_i of its denominators.  Then
    det * G^-1 D^T = Lambda adj(E E^T) E and det * D G^-1 D^T =
    E^T adj(E E^T) E, so every entry is an int.
    """

    base: tuple[int, ...]
    base_den: int
    det: int
    weights: tuple[tuple[int, ...], ...]  # d rows of n
    normal: tuple[tuple[int, ...], ...]  # n rows of n


@dataclass(frozen=True)
class StratumRef:
    """A stratum (open simplex) with its exact affine data.

    direction_basis[i] is vertex i + 1 minus base, the first vertex, in
    sorted vertex order; it spans the direction space of the affine hull.
    The barycenter uses equal weights, so all are exact rationals.
    """

    simplex: Simplex
    dim: int
    direction_basis: tuple[Vec, ...]
    barycenter: Vec
    base: Vec

    @cached_property
    def limit_frame(self) -> LimitFrame:
        """The integer projection frame, computed on first use.

        It is stored on this object, so it lives exactly as long as the
        complex's stratum cache that holds it.  One fraction-free
        elimination of [E E^T | E] leaves +-det times [I | (E E^T)^-1 E],
        that is +-adj(E E^T) E; the sign of the pivot is normalized.
        """
        base, base_den = _integer_multiple(self.base)
        cleared = [_integer_multiple(v) for v in self.direction_basis]
        E = [e for e, _ in cleared]
        d, n = len(E), len(base)
        aug = [[int_dot(ei, ej) for ej in E] + list(ei) for ei in E]
        if len(_rref(aug)) < d:
            raise InputError(f"degenerate simplex {sorted(self.simplex)}")
        det = aug[0][0] if d else 1
        P = [row[d:] if det > 0 else [-x for x in row[d:]] for row in aug]
        det = abs(det)
        weights = tuple(tuple(lam * x for x in row) for (_, lam), row in zip(cleared, P))
        normal = tuple(
            tuple(
                det * (i == j) - sum(e[i] * p[j] for e, p in zip(E, P))
                for j in range(n)
            )
            for i in range(n)
        )
        return LimitFrame(base, base_den, det, weights, normal)


def _integer_multiple(v: Vec) -> tuple[tuple[int, ...], int]:
    """(m * v as ints, m), m > 0 the lcm of the denominators of v."""
    m = lcm(*(x.denominator for x in v.entries))
    return tuple(x.numerator * (m // x.denominator) for x in v.entries), m


@dataclass
class StarGeometry:
    """The local cone of a stratum S, filled once per stratum and complex.

    vertex_ids are the vertices of the strict cofaces of S outside S, sorted;
    directions[i] is vertex_ids[i] minus the barycenter of S.
    integer_directions[i] is a positive integer multiple of directions[i]:
    the sign of a pairing with a covector, and the ratio of two pairings with
    one direction, do not change under positive scaling, so sign tests pair
    in int.  conormal is None until charcycle.conormal_frame stores the
    conormal basis of S with the star functionals on it, and chambers is None
    until charcycle.enumerate_chambers stores the conormal chambers of S.
    """

    vertex_ids: tuple[int, ...]
    directions: tuple[Vec, ...]
    integer_directions: tuple[tuple[int, ...], ...]
    conormal: tuple | None = None
    chambers: tuple | None = None

    def pairings(self, xi: Vec) -> list[int]:
        """Positive multiples of xi . directions[i], in vertex order, paired in int.

        Each has the sign of xi . directions[i]; the multipliers differ
        between directions.
        """
        (x,) = clear_denominators(xi)
        if self.integer_directions and len(x) != len(self.integer_directions[0]):
            raise InputError("covector dimension mismatch")
        return [int_dot(x, d) for d in self.integer_directions]


@dataclass(frozen=True)
class SlicePiece:
    """relint(face) cut by an affine level set."""

    face: Simplex
    dim: int  # dimension of the piece; -1 when empty
    nonempty: bool


class EmbeddedComplex:
    """Finite simplicial complex with rational coordinates in R^ambient_dim."""

    def __init__(self, ambient_dim: int, vertices: Sequence[Vec], simplices: Iterable[Iterable[int]], close: bool = False):
        self.ambient_dim = int(ambient_dim)
        verts = []
        for v in vertices:
            if not isinstance(v, Vec):
                v = Vec.from_seq(v)
            if v.dim != self.ambient_dim:
                raise InputError(f"vertex {v!r} has wrong dimension (ambient {self.ambient_dim})")
            verts.append(v)
        self.vertices: tuple[Vec, ...] = tuple(verts)
        simps = {simplex(s) for s in simplices}
        for s in simps:
            for i in s:
                if not 0 <= i < len(self.vertices):
                    raise InputError(f"simplex {sorted(s)} references unknown vertex {i}")
        if close:
            simps = close_under_faces(simps)
        self.simplices: Subcomplex = frozenset(simps)
        # face -> strict cofaces, used by duality, stars and chamber walls
        by_simplex: dict[Simplex, list[Simplex]] = {s: [] for s in self.simplices}
        for tau in self.simplices:
            for k in range(1, len(tau)):
                for face in combinations(sorted(tau), k):
                    fs = frozenset(face)
                    if fs in by_simplex:
                        by_simplex[fs].append(tau)
        self._cofaces = {s: tuple(sorted(cs, key=sort_key)) for s, cs in by_simplex.items()}
        self._strata: dict[Simplex, StratumRef] = {}
        self._stars: dict[Simplex, StarGeometry] = {}

    # -- basic queries -------------------------------------------------

    def simplices_sorted(self) -> list[Simplex]:
        return sorted(self.simplices, key=sort_key)

    def dim_of(self, s: Simplex) -> int:
        return len(s) - 1

    @property
    def top_dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def contains(self, s: Iterable[int]) -> bool:
        return simplex(s) in self.simplices

    def coords(self, s: Simplex) -> list[Vec]:
        return [self.vertices[i] for i in sorted(s)]

    def maximal_simplices(self) -> list[Simplex]:
        return [s for s in self.simplices_sorted() if not self._cofaces[s]]

    def stratum(self, s: Iterable[int]) -> StratumRef:
        fs = simplex(s)
        if fs not in self.simplices:
            raise InputError(f"not a simplex of the complex: {sorted(fs)}")
        cached = self._strata.get(fs)
        if cached is not None:
            return cached
        pts = self.coords(fs)
        base = pts[0]
        basis = tuple(p - base for p in pts[1:])
        bary = Vec.zero(self.ambient_dim)
        for p in pts:
            bary = bary + p
        bary = bary.scale(Fraction(1, len(pts)))
        ref = StratumRef(fs, len(fs) - 1, basis, bary, base)
        self._strata[fs] = ref
        return ref

    def star_geometry(self, S: StratumRef) -> StarGeometry:
        """Star vertices, star directions and chambers of S, computed once."""
        cached = self._stars.get(S.simplex)
        if cached is not None:
            return cached
        ids: set[int] = set()
        for tau in self._cofaces[S.simplex]:
            ids |= tau
        vertex_ids = tuple(sorted(ids - S.simplex))
        b = S.barycenter
        directions = tuple(self.vertices[p] - b for p in vertex_ids)
        geo = StarGeometry(
            vertex_ids,
            directions,
            tuple(clear_denominators(d)[0] for d in directions),
        )
        self._stars[S.simplex] = geo
        return geo

    def strict_cofaces(self, s: Iterable[int]) -> tuple[Simplex, ...]:
        fs = simplex(s)
        if fs not in self.simplices:
            raise InputError(f"not a simplex of the complex: {sorted(fs)}")
        return self._cofaces[fs]

    def vertex_value(self, f: AffineFunction, vid: int) -> Fraction:
        return f.value(self.vertices[vid])


def close_under_faces(simps: Iterable[Simplex]) -> set[Simplex]:
    out: set[Simplex] = set()
    for s in simps:
        ss = sorted(s)
        for k in range(1, len(ss) + 1):
            for face in combinations(ss, k):
                out.add(frozenset(face))
    return out


def is_subcomplex(cx: EmbeddedComplex, region: Iterable[Simplex]) -> bool:
    reg = set(region)
    if not reg <= cx.simplices:
        return False
    return close_under_faces(reg) == reg


def as_region(cx: EmbeddedComplex, region: Iterable[Iterable[int]] | None) -> Subcomplex:
    """Coerce to a closed subcomplex; None means the whole complex."""
    if region is None:
        return cx.simplices
    reg = frozenset(simplex(s) for s in region)
    if not is_subcomplex(cx, reg):
        raise InputError("region is not a closed subcomplex")
    return reg


def induced_complex(
    cx: EmbeddedComplex, region: Iterable[Iterable[int]]
) -> tuple[EmbeddedComplex, dict[int, int]]:
    """A closed region as a standalone complex, plus the vertex renumbering.

    Coordinates are preserved, so stars, multiplicities and critical points
    computed downstream agree with the ambient ones for strata whose full
    star lies inside the region.
    """
    region = as_region(cx, region)
    vids = sorted({i for s in region for i in s})
    vmap = {old: new for new, old in enumerate(vids)}
    verts = [cx.vertices[i] for i in vids]
    simps = [frozenset(vmap[i] for i in s) for s in region]
    return EmbeddedComplex(cx.ambient_dim, verts, simps), vmap


# -- validation ---------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    simplices: tuple[tuple[int, ...], ...]
    detail: str


def validate(cx: EmbeddedComplex) -> list[Violation]:
    """Exact well-formedness check; violations are returned as data.

    Checks: closure under faces, affine independence of every simplex, and
    geometric consistency (closed realizations of two simplices meet exactly
    in the realization of their shared face).  The last check runs on pairs of
    maximal simplices without a common coface, which suffices: faces of a
    consistent pair are consistent inside the two geometric simplices.
    """
    violations: list[Violation] = []
    for s in cx.simplices_sorted():
        if len(s) > 1:
            for facet in combinations(sorted(s), len(s) - 1):
                if frozenset(facet) not in cx.simplices:
                    violations.append(
                        Violation("closure", (tuple(sorted(s)),), f"missing face {list(facet)}")
                    )
    independent: set[Simplex] = set()
    for s in cx.simplices_sorted():
        pts = cx.coords(s)
        if matrix_rank([p - pts[0] for p in pts[1:]]) != len(pts) - 1:
            violations.append(
                Violation("affine-independence", (tuple(sorted(s)),), "degenerate simplex")
            )
        else:
            independent.add(s)
    maximal = [s for s in cx.maximal_simplices() if s in independent]
    for a, b in combinations(maximal, 2):
        if a | b in cx.simplices:
            continue
        if _boxes_disjoint(cx, a, b):
            continue
        if not _pair_consistent(cx, a, b):
            violations.append(
                Violation(
                    "geometric-consistency",
                    (tuple(sorted(a)), tuple(sorted(b))),
                    "closed realizations overlap beyond the shared face",
                )
            )
    return violations


def _boxes_disjoint(cx: EmbeddedComplex, a: Simplex, b: Simplex) -> bool:
    for i in range(cx.ambient_dim):
        amin = min(cx.vertices[v][i] for v in a)
        amax = max(cx.vertices[v][i] for v in a)
        bmin = min(cx.vertices[v][i] for v in b)
        bmax = max(cx.vertices[v][i] for v in b)
        if amax < bmin or bmax < amin:
            return True
    return False


def _pair_consistent(cx: EmbeddedComplex, a: Simplex, b: Simplex) -> bool:
    """cl|a| meets cl|b| only inside cl|a & b|, decided by exact feasibility.

    Variables are the barycentric weights of both simplices; a violation is a
    common point putting positive weight on a vertex outside the shared face.
    """
    averts = sorted(a)
    bverts = sorted(b)
    na, nb = len(averts), len(bverts)
    n = na + nb
    m = cx.ambient_dim
    equalities: list[tuple[Vec, Fraction]] = []
    for c in range(m):
        row = [cx.vertices[v][c] for v in averts] + [-cx.vertices[v][c] for v in bverts]
        equalities.append((Vec(tuple(row)), Fraction(0)))
    row = [Fraction(1)] * na + [Fraction(0)] * nb
    equalities.append((Vec(tuple(row)), Fraction(1)))
    row = [Fraction(0)] * na + [Fraction(1)] * nb
    equalities.append((Vec(tuple(row)), Fraction(1)))
    weak = [(Vec.unit(n, i), Fraction(0)) for i in range(n)]
    shared = a & b
    outside = [i for i, v in enumerate(averts) if v not in shared]
    outside += [na + i for i, v in enumerate(bverts) if v not in shared]
    for i in outside:
        res = strict_feasibility(equalities, [(Vec.unit(n, i), Fraction(0))], weak, n)
        if res.feasible:
            return False
    return True


# -- stars, carriers, slicing ------------------------------------------


def closed_star(cx: EmbeddedComplex, region: Iterable[Iterable[int]]) -> Subcomplex:
    """Union of closed simplices whose closure meets |region|.

    With geometric consistency, the closure of a simplex meets |region| exactly
    when the simplex shares a vertex with some simplex of the region.
    """
    reg = as_region(cx, region)
    touched = {v for s in reg for v in s}
    star: set[Simplex] = set()
    for s in cx.simplices:
        if s & touched:
            star.add(s)
    return frozenset(close_under_faces(star))


def open_star_of_simplex(cx: EmbeddedComplex, s: Iterable[int]) -> list[Simplex]:
    """Simplices having s as a face, s included (the cone neighborhood core)."""
    fs = simplex(s)
    if fs not in cx.simplices:
        raise InputError(f"not a simplex of the complex: {sorted(fs)}")
    return [fs] + list(cx.strict_cofaces(fs))


def closed_star_of_simplex(cx: EmbeddedComplex, s: Iterable[int]) -> Subcomplex:
    return frozenset(close_under_faces(set(open_star_of_simplex(cx, s))))


def barycentric_coordinates(cx: EmbeddedComplex, s: Simplex, point: Vec) -> list[Fraction] | None:
    """Weights of `point` w.r.t. the (affinely independent) simplex, else None."""
    verts = cx.coords(s)
    n = len(verts)
    eqs: list[tuple[Vec, Fraction]] = []
    for c in range(cx.ambient_dim):
        eqs.append((Vec(tuple(v[c] for v in verts)), point[c]))
    eqs.append((Vec((Fraction(1),) * n), Fraction(1)))
    sol = solve_affine(eqs, n)
    if sol is None:
        return None
    if sol.dim != 0:
        raise InputError(f"simplex {sorted(s)} is affinely degenerate")
    return list(sol.point.entries)


def carrier(cx: EmbeddedComplex, point: Vec) -> Simplex | None:
    """The unique open simplex containing the point, or None if outside."""
    if point.dim != cx.ambient_dim:
        raise InputError("point dimension mismatch")
    for s in cx.simplices_sorted():
        weights = barycentric_coordinates(cx, s, point)
        if weights is not None and all(w > 0 for w in weights):
            return s
    return None


def point_in_closed_simplex(cx: EmbeddedComplex, s: Simplex, point: Vec) -> bool:
    weights = barycentric_coordinates(cx, s, point)
    return weights is not None and all(w >= 0 for w in weights)


def slice_pieces(
    cx: EmbeddedComplex,
    region: Iterable[Iterable[int]] | None,
    f: AffineFunction,
    c,
) -> list[SlicePiece]:
    """Cut every open face of the region by {f = c}.

    An open simplex meets the level set in a relatively open convex piece of
    dimension (dim - 1) exactly when f is nonconstant on it and its vertex
    values strictly straddle c; when f is identically c the piece is the whole
    open simplex.  Both facts are linear-algebra exact, no feasibility needed.
    """
    if f.dim != cx.ambient_dim:
        raise InputError("slice function dimension mismatch")
    c = rat(c)
    reg = as_region(cx, region)
    pieces: list[SlicePiece] = []
    for s in sorted(reg, key=sort_key):
        values = [cx.vertex_value(f, v) for v in sorted(s)]
        lo, hi = min(values), max(values)
        if lo == hi:
            if lo == c:
                pieces.append(SlicePiece(s, len(s) - 1, True))
            else:
                pieces.append(SlicePiece(s, -1, False))
        elif lo < c < hi:
            pieces.append(SlicePiece(s, len(s) - 2, True))
        else:
            pieces.append(SlicePiece(s, -1, False))
    return pieces
