"""Exact normal-slice geometry of lower halflinks, kept as a test oracle.

The library computes halflink integrals by the lower-link sum over cofaces.
This module computes the same integral from the geometry instead: the
halflink is the slice {xi . (y - b) = -eps} of the normal slice N through the
barycenter b, inside the closed-star tube, at an eps below every nonzero
pairing of xi with a tube polytope vertex; its cells are the nonempty sets
relint(sigma) meet N meet {level}, each a bounded relatively open convex set
contributing alpha(sigma | S) * (-1)^dim.
"""

from __future__ import annotations

from fractions import Fraction

from eulercc import EmbeddedComplex, StratumRef, Vec, strict_feasibility
from eulercc.complexes import Simplex, closed_star_of_simplex, sort_key
from eulercc.constructible import sign_of_dim
from eulercc.linalg import solve_affine


def normal_slice_vertices(
    cx: EmbeddedComplex, S: StratumRef
) -> list[tuple[Simplex, Vec]]:
    """Vertices of the polytopes {cl(tau) meet N} over the closed star of S.

    Each polytope vertex is the unique point of aff(phi) meet N for some face
    phi whose closed simplex contains it; minimal faces realize every vertex,
    so scanning all faces of the closed star is exhaustive.
    """
    out: list[tuple[Simplex, Vec]] = []
    b = S.barycenter
    for sigma in sorted(closed_star_of_simplex(cx, S.simplex), key=sort_key):
        verts = cx.coords(sigma)
        k = len(verts)
        eqs: list[tuple[Vec, Fraction]] = [(Vec((Fraction(1),) * k), Fraction(1))]
        for d in S.direction_basis:
            eqs.append((Vec(tuple(d.dot(v) for v in verts)), d.dot(b)))
        sol = solve_affine(eqs, k)
        if sol is None or sol.dim != 0:
            continue
        weights = sol.point
        if any(w < 0 for w in weights):
            continue
        point = Vec.zero(cx.ambient_dim)
        for w, v in zip(weights, verts):
            point = point + v.scale(w)
        out.append((sigma, point))
    return out


def halflink_epsilon(cx: EmbeddedComplex, S: StratumRef, xi: Vec) -> Fraction | None:
    """Half the smallest positive |xi . (w - barycenter)| over tube vertices.

    Any level -eps with 0 < eps below that minimum has the same combinatorial
    slice type; None when the pairing vanishes on the whole tube.
    """
    b = S.barycenter
    best: Fraction | None = None
    for _, w in normal_slice_vertices(cx, S):
        pairing = abs(xi.dot(w - b))
        if pairing != 0 and (best is None or pairing < best):
            best = pairing
    if best is None:
        return None
    return best / 2


def halflink_cells(
    cx: EmbeddedComplex, S: StratumRef, xi: Vec
) -> list[tuple[Simplex, int]]:
    """(germ simplex, (-1)^dim) for each cell of the lower halflink.

    The germ simplex of a cell in relint(sigma) is sigma | S: rays from the
    stratum into sigma pass through that join.  The cells depend on xi only,
    so one call serves every function on the complex.
    """
    if not cx.strict_cofaces(S.simplex):
        return []
    eps = halflink_epsilon(cx, S, xi)
    if eps is None:
        return []
    level = -eps
    b = S.barycenter
    tube = sorted(closed_star_of_simplex(cx, S.simplex), key=sort_key)
    cells: list[tuple[Simplex, int]] = []
    for sigma in tube:
        verts = cx.coords(sigma)
        k = len(verts)
        eqs: list[tuple[Vec, Fraction]] = [(Vec((Fraction(1),) * k), Fraction(1))]
        for d in S.direction_basis:
            eqs.append((Vec(tuple(d.dot(v) for v in verts)), d.dot(b)))
        eqs.append((Vec(tuple(xi.dot(v) for v in verts)), xi.dot(b) + level))
        stricts = [(Vec.unit(k, i), Fraction(0)) for i in range(k)]
        res = strict_feasibility(eqs, stricts, [], k)
        if res.feasible:
            cells.append((sigma | S.simplex, sign_of_dim(res.dim)))
    return cells
