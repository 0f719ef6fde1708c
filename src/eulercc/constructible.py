"""Integer-valued functions on strata and their Euler-characteristic calculus.

The integral functional is the unique linear extension of "indicator of a
compact set maps to its Euler characteristic": on a PL model it is the
alternating sum over open simplices, and every slice/halflink integral below
reduces to counting relatively open convex pieces with chi_c = (-1)^dim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .complexes import (
    EmbeddedComplex,
    Simplex,
    StratumRef,
    as_region,
    simplex,
    slice_pieces,
    sort_key,
)
from .errors import DegeneracyError, InputError, UnstableLevelError
from .functions import AffineFunction
from .linalg import Vec, rat
from .subdivision import SubdivisionResult


@dataclass(eq=False)
class ConstructibleFunction:
    """One integer per open simplex; unlisted simplices carry 0."""

    complex: EmbeddedComplex
    values: dict[Simplex, int]

    def __post_init__(self):
        cleaned: dict[Simplex, int] = {}
        for s, v in self.values.items():
            fs = simplex(s)
            if fs not in self.complex.simplices:
                raise InputError(f"value on unknown simplex {sorted(fs)}")
            if int(v) != v:
                raise InputError(f"non-integer value {v!r} on {sorted(fs)}")
            if v != 0:
                cleaned[fs] = int(v)
        self.values = cleaned

    def value(self, s: Iterable[int]) -> int:
        return self.values.get(simplex(s), 0)

    def support(self) -> list[Simplex]:
        return sorted(self.values, key=sort_key)

    def is_zero(self) -> bool:
        return not self.values

    def add(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        self._check_same_complex(other)
        merged = dict(self.values)
        for s, v in other.values.items():
            merged[s] = merged.get(s, 0) + v
        return ConstructibleFunction(self.complex, merged)

    def scale(self, c: int) -> "ConstructibleFunction":
        if int(c) != c:
            raise InputError("constructible functions scale by integers only")
        return ConstructibleFunction(self.complex, {s: c * v for s, v in self.values.items()})

    def neg(self) -> "ConstructibleFunction":
        return self.scale(-1)

    def restrict(self, region: Iterable[Iterable[int]]) -> "ConstructibleFunction":
        """Pointwise product with the indicator of a set of open simplices."""
        reg = {simplex(s) for s in region}
        return ConstructibleFunction(
            self.complex, {s: v for s, v in self.values.items() if s in reg}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstructibleFunction)
            and self.complex is other.complex
            and self.values == other.values
        )

    def _check_same_complex(self, other: "ConstructibleFunction") -> None:
        if self.complex is not other.complex:
            raise InputError("constructible functions live on different complexes")


def constant_function(cx: EmbeddedComplex, value: int = 1) -> ConstructibleFunction:
    return ConstructibleFunction(cx, {s: value for s in cx.simplices})


def indicator(cx: EmbeddedComplex, region: Iterable[Iterable[int]]) -> ConstructibleFunction:
    return ConstructibleFunction(cx, {simplex(s): 1 for s in region})


def from_values(cx: EmbeddedComplex, values: Mapping) -> ConstructibleFunction:
    return ConstructibleFunction(cx, {simplex(s): v for s, v in values.items()})


def sign_of_dim(dim: int) -> int:
    return 1 if dim % 2 == 0 else -1


# -- integrals ----------------------------------------------------------


def euler_integral(alpha: ConstructibleFunction, region=None) -> int:
    """Sum of alpha(sigma) * (-1)^dim(sigma), optionally over a subcomplex."""
    if region is None:
        return sum(sign_of_dim(len(s) - 1) * v for s, v in alpha.values.items())
    reg = as_region(alpha.complex, region)
    return sum(
        sign_of_dim(len(s) - 1) * v for s, v in alpha.values.items() if s in reg
    )


def slice_integral(
    alpha: ConstructibleFunction,
    region,
    f: AffineFunction,
    c,
) -> int:
    """Integral over {f = c} within the region, cell by relatively open cell.

    The level must be combinatorially stable: c may not equal a vertex value
    of any region face on which f is nonconstant, since the slice topology
    jumps exactly at those values.
    """
    cx = alpha.complex
    c = rat(c)
    reg = as_region(cx, region)
    for s in sorted(reg, key=sort_key):
        values = [cx.vertex_value(f, v) for v in sorted(s)]
        if min(values) < max(values) and c in values:
            raise UnstableLevelError(
                f"level {c} hits a vertex of face {sorted(s)} where f is nonconstant",
                witness={"face": tuple(sorted(s)), "level": c},
            )
    total = 0
    for piece in slice_pieces(cx, reg, f, c):
        if piece.nonempty:
            total += alpha.value(piece.face) * sign_of_dim(piece.dim)
    return total


# -- lower links ---------------------------------------------------------


def is_conormal(cx: EmbeddedComplex, S: StratumRef, xi: Vec) -> bool:
    if xi.dim != cx.ambient_dim:
        raise InputError("covector dimension mismatch")
    return all(xi.dot(d) == 0 for d in S.direction_basis)


def _require_conormal(cx: EmbeddedComplex, S: StratumRef, xi: Vec) -> None:
    if not is_conormal(cx, S, xi):
        raise InputError(
            f"covector {xi!r} is not conormal to stratum {sorted(S.simplex)}"
        )


def star_signs(cx: EmbeddedComplex, S: StratumRef, xi: Vec) -> list[tuple[int, int]]:
    """(p, sign of xi . (p - b)) for each star vertex p of S, in vertex order.

    A zero pairing makes xi degenerate over S and raises with the first such
    star vertex as witness.
    """
    star = cx.star_geometry(S)
    out: list[tuple[int, int]] = []
    for p, pairing in zip(star.vertex_ids, star.pairings(xi)):
        if pairing == 0:
            raise DegeneracyError(
                f"covector pairs to zero with star vertex {p} of {sorted(S.simplex)}",
                witness={"stratum": tuple(sorted(S.simplex)), "star_vertex": p},
            )
        out.append((p, 1 if pairing > 0 else -1))
    return out


def halflink_integral(alpha: ConstructibleFunction, S, xi: Vec) -> int:
    """Integral of alpha over the lower halflink of S at xi, by the lower link.

    With b the barycenter of S and xi a nondegenerate conormal covector, the
    integral is

        sum of (-1)^dim(tau - S) * alpha(tau)

    over the strict cofaces tau of S whose added vertices p all satisfy
    xi . (p - b) < 0.  This is the integral over the halflink
    {xi . (y - b) = -eps} in the normal slice through b, for small eps > 0,
    because the star of S is a cone.  In the slice, the points whose germ
    lies in tau fill the cone from b over the open link face tau - S, and
    xi . (y - b) is affine there, zero at b and equal to xi . (p - b) at the
    added vertex p.  So the level meets that cone in a copy of the points of
    the open face where xi . (y - b) <= -eps: the whole open face when every
    added vertex lies below, with compactly supported Euler characteristic
    (-1)^dim(tau - S); an open simplex cut by a closed half-space, with
    chi_c = 0, when the added vertices lie on both sides; nothing when they
    all lie above.  This is the PL form of the local index formula for
    characteristic cycles (Kashiwara-Schapira, Sheaves on Manifolds, Ch. IX).
    tests/test_halflink_oracle.py checks the identity against the exact
    normal-slice geometry.
    """
    cx = alpha.complex
    if not isinstance(S, StratumRef):
        S = cx.stratum(S)
    _require_conormal(cx, S, xi)
    below = {p for p, sign in star_signs(cx, S, xi) if sign < 0}
    return _lower_link_sum(alpha, S.simplex, below)


def _lower_link_sum(alpha: ConstructibleFunction, s: Simplex, below) -> int:
    """Sum of (-1)^dim(tau - s) * alpha(tau) over the strict cofaces tau of s
    whose added vertices all lie in below."""
    total = 0
    for tau in alpha.complex.strict_cofaces(s):
        added = tau - s
        if added <= below:
            total += alpha.value(tau) * sign_of_dim(len(added) - 1)
    return total


def vanishing_cycle(alpha: ConstructibleFunction, f: AffineFunction) -> ConstructibleFunction:
    """phi_f(alpha): alpha minus its nearby cycle on the zero level of f.

    On each stratum S on which f vanishes identically,

        phi(S) = alpha(S) - sum of (-1)^dim(tau - S) * alpha(tau)

    over the strict cofaces tau of S whose added vertices all have f < 0; a
    vertex with f = 0 is not below.  The sum is the integral of alpha over
    the Milnor fibre {f = -eps} in a small ball around a point of S, by the
    lower-link argument of halflink_integral read with xi = df: an open link
    face with an added vertex at f = 0 meets {f <= -eps} in an open simplex
    cut by a closed half-space, with chi_c = 0.  Elsewhere phi is 0.  By the
    Dubson-Le-Ginsburg-Sabbah formula (Ginsburg, "Characteristic varieties
    and vanishing cycles", Invent. Math. 1986) phi vanishes off the strata
    where CC(alpha) meets the graph of df.
    """
    cx = alpha.complex
    if f.dim != cx.ambient_dim:
        raise InputError("level function dimension does not match the complex")
    height = [cx.vertex_value(f, i) for i in range(len(cx.vertices))]
    level = {i for i, h in enumerate(height) if h == 0}
    below = {i for i, h in enumerate(height) if h < 0}
    values = {
        s: alpha.value(s) - _lower_link_sum(alpha, s, below)
        for s in cx.simplices
        if s <= level
    }
    return ConstructibleFunction(cx, values)


# -- duality and open-side extensions -----------------------------------


def dual(alpha: ConstructibleFunction) -> ConstructibleFunction:
    """Function-level Verdier dual: alternating coface sums per stratum.

    (D alpha)(sigma) = sum over tau in {sigma} + cofaces(sigma) of
    (-1)^dim(tau) * alpha(tau); an involution by binomial cancellation.
    """
    cx = alpha.complex
    values: dict[Simplex, int] = {}
    for s in cx.simplices:
        total = sign_of_dim(len(s) - 1) * alpha.value(s)
        for tau in cx.strict_cofaces(s):
            total += sign_of_dim(len(tau) - 1) * alpha.value(tau)
        values[s] = total
    return ConstructibleFunction(cx, values)


def side_partition(
    cx: EmbeddedComplex, g: AffineFunction, delta
) -> dict[int, list[Simplex]]:
    """Split simplices by side of {g = delta}; input error when one straddles.

    g - delta is evaluated once per vertex.  An open simplex lies on the
    level when all its vertices do, below (-1) when none is above, above (+1)
    when none is below, and straddles the level otherwise; the first
    straddling simplex in sorted order is named.
    """
    delta = rat(delta)
    side = []
    for i in range(len(cx.vertices)):
        h = cx.vertex_value(g, i) - delta
        side.append(0 if h == 0 else (1 if h > 0 else -1))
    out: dict[int, list[Simplex]] = {-1: [], 0: [], 1: []}
    for s in cx.simplices_sorted():
        signs = {side[v] for v in s}
        if 1 not in signs:
            out[-1 if -1 in signs else 0].append(s)
        elif -1 not in signs:
            out[1].append(s)
        else:
            raise InputError(f"simplex {sorted(s)} straddles the level {delta}")
    return out


def jshriek_extend(
    alpha: ConstructibleFunction,
    g: AffineFunction,
    delta,
    side: str = "below",
) -> ConstructibleFunction:
    """Extension by zero from the open side {g < delta} (or {g > delta}).

    The complex must already be subdivided along the level, so every open
    simplex lies on one side; values off the open side are zeroed.
    """
    if side not in ("below", "above"):
        raise InputError(f"side must be 'below' or 'above', got {side!r}")
    parts = side_partition(alpha.complex, g, delta)
    keep = set(parts[-1 if side == "below" else 1])
    return alpha.restrict(keep)


def jstar_extend(
    alpha: ConstructibleFunction,
    g: AffineFunction,
    delta,
    side: str = "below",
) -> ConstructibleFunction:
    """Open-side extension matching nearby sections: dual . jshriek . dual."""
    return dual(jshriek_extend(dual(alpha), g, delta, side))


def level_restriction(
    alpha: ConstructibleFunction, g: AffineFunction, delta
) -> ConstructibleFunction:
    """alpha restricted to the {g = delta} subcomplex (after subdivision)."""
    parts = side_partition(alpha.complex, g, delta)
    return alpha.restrict(parts[0])


# -- transport through subdivisions -------------------------------------


def transport(alpha: ConstructibleFunction, sub: SubdivisionResult) -> ConstructibleFunction:
    """Carry values through a subdivision: each new open simplex inherits the
    value of the old open simplex containing it."""
    values = {s: alpha.value(old) for s, old in sub.ancestry.items()}
    return ConstructibleFunction(sub.complex, values)
