"""Subdivisions with exact ancestry maps.

Both operations return the refined complex together with a map sending each
new simplex to the old open simplex containing its relative interior; that is
what lets constructible data transport across refinements unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import EmbeddedComplex, Simplex, close_under_faces, simplex, sort_key
from .errors import InputError
from .functions import AffineFunction
from .linalg import Vec, rat


@dataclass(frozen=True)
class SubdivisionResult:
    complex: EmbeddedComplex
    ancestry: dict[Simplex, Simplex]  # new simplex -> old carrier simplex

    def transport_region(self, region) -> frozenset[Simplex]:
        reg = frozenset(simplex(s) for s in region)
        return frozenset(s for s, old in self.ancestry.items() if old in reg)

    def compose(self, later: "SubdivisionResult") -> "SubdivisionResult":
        """self (old -> mid) then later (mid -> new)."""
        return SubdivisionResult(
            later.complex,
            {s: self.ancestry[mid] for s, mid in later.ancestry.items()},
        )


def identity_subdivision(cx: EmbeddedComplex) -> SubdivisionResult:
    return SubdivisionResult(cx, {s: s for s in cx.simplices})


def barycentric_subdivide(cx: EmbeddedComplex, times: int = 1) -> SubdivisionResult:
    """Iterated barycentric subdivision.

    New vertices sit at barycenters of old simplices; new simplices are flags
    of the old face poset, and the carrier of a flag is its maximal element.
    """
    if times < 0:
        raise InputError("times must be nonnegative")
    result = identity_subdivision(cx)
    for _ in range(times):
        result = result.compose(_barycentric_once(result.complex))
    return result


def _barycentric_once(cx: EmbeddedComplex) -> SubdivisionResult:
    order = cx.simplices_sorted()
    new_id = {s: i for i, s in enumerate(order)}
    vertices = [cx.stratum(s).barycenter for s in order]
    new_simplices: set[Simplex] = set()
    ancestry: dict[Simplex, Simplex] = {}
    chains: dict[Simplex, list[tuple[Simplex, ...]]] = {}
    for s in order:
        own: list[tuple[Simplex, ...]] = [(s,)]
        for k in range(1, len(s)):
            for face_ids in combinations(sorted(s), k):
                face = frozenset(face_ids)
                for chain in chains[face]:
                    own.append(chain + (s,))
        chains[s] = own
        for chain in own:
            ns = frozenset(new_id[piece] for piece in chain)
            new_simplices.add(ns)
            ancestry[ns] = chain[-1]
    refined = EmbeddedComplex(cx.ambient_dim, vertices, new_simplices)
    return SubdivisionResult(refined, ancestry)


def subdivide_along_hyperplane(cx: EmbeddedComplex, f: AffineFunction, c) -> SubdivisionResult:
    """Refine so every open simplex lies in {f<c}, {f=c} or {f>c}.

    Implementation: stellar subdivision at the cut point of every edge whose
    endpoint values strictly straddle c.  New edges are always incident to a
    cut vertex (value exactly c), so no straddling edge is ever created and
    the loop terminates with the support unchanged.  The first straddling
    edge in sorted order is cut first.  f is evaluated once per vertex of cx,
    and each cut vertex, appended last, has the value c.
    """
    if f.dim != cx.ambient_dim:
        raise InputError("hyperplane function dimension mismatch")
    c = rat(c)
    result = identity_subdivision(cx)
    values = [cx.vertex_value(f, i) for i in range(len(cx.vertices))]
    while True:
        current = result.complex
        cut_edge = None
        edges = sorted((e for e in current.simplices if len(e) == 2), key=sort_key)
        for s in edges:
            u, v = sorted(s)
            fu, fv = values[u], values[v]
            if (fu < c < fv) or (fv < c < fu):
                cut_edge = (s, u, v, fu, fv)
                break
        if cut_edge is None:
            return result
        s, u, v, fu, fv = cut_edge
        t = (c - fu) / (fv - fu)
        point = current.vertices[u] + (current.vertices[v] - current.vertices[u]).scale(t)
        result = result.compose(_stellar_edge(current, s, point))
        values.append(c)


def _stellar_edge(cx: EmbeddedComplex, edge: Simplex, point: Vec) -> SubdivisionResult:
    """Stellar subdivision at an interior point of an edge."""
    w = len(cx.vertices)
    vertices = list(cx.vertices) + [point]
    new_simplices: set[Simplex] = set()
    ancestry: dict[Simplex, Simplex] = {}
    u, v = sorted(edge)
    for s in cx.simplices:
        if not edge <= s:
            new_simplices.add(s)
            ancestry[s] = s
            continue
        link = s - edge
        # replace s = edge * link by w * (proper faces of edge) * link
        for face in (frozenset(), frozenset({u}), frozenset({v})):
            ns = frozenset({w}) | face | link
            new_simplices.add(ns)
            ancestry[ns] = s
    refined = EmbeddedComplex(cx.ambient_dim, vertices, new_simplices)
    return SubdivisionResult(refined, ancestry)


def subdivided_region_is_exact(result: SubdivisionResult, region) -> bool:
    """Transported regions are closed subcomplexes; cheap sanity predicate."""
    reg = result.transport_region(region)
    return close_under_faces(set(reg)) == set(reg)

