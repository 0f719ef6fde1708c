"""Curated and randomized instance corpus shared by every test suite.

Each builtin fixture carries named constructible functions, named affine test
functions, hand-derived expected values with their provenance, admissible
level-function pairs for the intersection identity, and deliberately
inadmissible pairs with the error they must raise.  Derivations live in the
provenance strings; anything nontrivial names the oracle that rechecks it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import (
    EmbeddedComplex,
    Simplex,
    Subcomplex,
    close_under_faces,
    closed_star,
    induced_complex,
    simplex,
)
from .constructible import ConstructibleFunction, constant_function, dual, from_values
from .errors import InputError
from .functions import AffineFunction
from .linalg import Vec
from .morse import RationalSampler
from .subdivision import barycentric_subdivide


@dataclass(frozen=True)
class Expected:
    value: int
    provenance: str


@dataclass(frozen=True)
class TheoremCase:
    """Admissible (alpha, level function) pair with the shared expected value."""

    alpha: str
    function: str
    expected: int
    provenance: str


@dataclass(frozen=True)
class NegativeCase:
    """Inadmissible input and the exception type name it must raise."""

    alpha: str
    function: str
    error: str


@dataclass
class Fixture:
    name: str
    complex: EmbeddedComplex
    functions: dict[str, ConstructibleFunction]
    morse_inputs: dict[str, AffineFunction]
    expected: dict[tuple, Expected] = field(default_factory=dict)
    theorem_cases: tuple[TheoremCase, ...] = ()
    negative_cases: tuple[NegativeCase, ...] = ()
    subcomplexes: dict[str, Subcomplex] = field(default_factory=dict)
    cut_function: str | None = None
    cut_levels: tuple[Fraction, ...] = ()


def _affine(*linear, constant=0) -> AffineFunction:
    return AffineFunction(Vec.of(*linear), Fraction(constant))


def _random_alpha(cx: EmbeddedComplex, seed: int) -> ConstructibleFunction:
    sampler = RationalSampler(seed)
    values = {s: sampler.integer(-3, 3) for s in cx.simplices_sorted()}
    return from_values(cx, values)


def _std_subcomplexes(cx: EmbeddedComplex) -> dict[str, Subcomplex]:
    out = {"all": cx.simplices}
    verts = sorted({i for s in cx.simplices for i in s})
    v0 = simplex([verts[0]])
    out["vertex0"] = frozenset({v0})
    out["skeleton0"] = frozenset(simplex([v]) for v in verts)
    out["star0"] = closed_star(cx, [v0])
    top = cx.maximal_simplices()[-1]
    out["top_cell"] = frozenset(close_under_faces({top}))
    return out


def _interval() -> Fixture:
    cx = EmbeddedComplex(1, [Vec.of(0), Vec.of(2)], [[0, 1]], close=True)
    one = constant_function(cx)
    open_edge = from_values(cx, {simplex([0, 1]): 1})
    funcs = {
        "one": one,
        "open_edge": open_edge,
        "dual_one": dual(one),
        "point0": from_values(cx, {simplex([0]): 1}),
        "random0": _random_alpha(cx, 101),
    }
    morse = {
        "x": _affine(1),
        "minus_x": _affine(-1),
        "x_minus_2": _affine(1, constant=-2),
    }
    expected = {
        ("euler", "one"): Expected(1, "trivial: closed segment is contractible"),
        ("euler", "open_edge"): Expected(-1, "trivial: one open 1-cell"),
        ("euler", "dual_one"): Expected(1, "derived: dual values 0,0,-1 by cofan sums"),
    }
    cases = (
        TheoremCase("one", "x", 1, "derived: left endpoint carries multiplicity 1, empty lower slice"),
        TheoremCase("open_edge", "minus_x", -1, "derived: endpoint multiplicity -1 from the one-point lower halflink"),
        TheoremCase("dual_one", "minus_x", 1, "derived: negation of the open-edge case by linearity"),
    )
    negatives = (
        NegativeCase("open_edge", "x", "HypothesisViolationError"),
    )
    return Fixture(
        "interval",
        cx,
        funcs,
        morse,
        expected,
        cases,
        negatives,
        _std_subcomplexes(cx),
        cut_function="x",
        cut_levels=(Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(7, 5), Fraction(3, 2)),
    )


def _circle() -> Fixture:
    cx = EmbeddedComplex(
        2,
        [Vec.of(0, 0), Vec.of(2, 1), Vec.of(1, 3)],
        [[0, 1], [1, 2], [0, 2]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "edge01": from_values(cx, {simplex([0, 1]): 1}),
        "random0": _random_alpha(cx, 102),
    }
    morse = {
        "y": _affine(0, 1),
        "y_minus_3": _affine(0, 1, constant=-3),
        "y_minus_1": _affine(0, 1, constant=-1),
    }
    expected = {
        ("euler", "one"): Expected(0, "derived: betti_oracle gives b0=b1=1"),
        ("euler", "dual_one"): Expected(0, "derived: dual of 1 is -1 on a closed curve"),
    }
    cases = (
        TheoremCase("one", "y", 1, "derived: bottom vertex is the unique minimum, multiplicity 1"),
        TheoremCase("one", "y_minus_3", -1, "derived: top vertex multiplicity 1-2, slice has two points"),
        TheoremCase("dual_one", "y", -1, "derived: negation of the minimum case by linearity"),
    )
    negatives = (
        NegativeCase("one", "y_minus_1", "HypothesisViolationError"),
    )
    return Fixture(
        "circle",
        cx,
        funcs,
        morse,
        expected,
        cases,
        negatives,
        _std_subcomplexes(cx),
        cut_function="y",
        cut_levels=(Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 2)),
    )


def _triangle() -> Fixture:
    cx = EmbeddedComplex(
        2,
        [Vec.of(0, 0), Vec.of(2, 0), Vec.of(0, 2)],
        [[0, 1, 2]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "open_cell": from_values(cx, {simplex([0, 1, 2]): 1}),
        "dual_one": dual(one),
        "edge_bottom": from_values(
            cx, {simplex([0]): 1, simplex([1]): 1, simplex([0, 1]): 1}
        ),
        "random0": _random_alpha(cx, 103),
    }
    morse = {
        "y": _affine(0, 1),
        "x_plus_y": _affine(1, 1),
        "y_minus_2": _affine(0, 1, constant=-2),
    }
    expected = {
        ("euler", "one"): Expected(1, "trivial: solid triangle is contractible"),
        ("euler", "open_cell"): Expected(1, "trivial: one open 2-cell"),
        ("euler", "dual_one"): Expected(1, "derived: dual of 1 is the open-cell indicator here"),
    }
    cases = (
        TheoremCase("one", "x_plus_y", 1, "derived: corner minimum with empty lower halflink"),
        TheoremCase("one", "y", 1, "derived: zero level is the closed bottom edge, slice empty"),
        TheoremCase("open_cell", "y_minus_2", 1, "derived: top vertex multiplicity 0-(-1) from the interior chord"),
    )
    negatives = (
        NegativeCase("open_cell", "y", "HypothesisViolationError"),
    )
    return Fixture(
        "triangle",
        cx,
        funcs,
        morse,
        expected,
        cases,
        negatives,
        _std_subcomplexes(cx),
        cut_function="y",
        cut_levels=(Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 4)),
    )


def _ygraph() -> Fixture:
    cx = EmbeddedComplex(
        2,
        [Vec.of(0, 0), Vec.of(2, 0), Vec.of(-1, 2), Vec.of(-1, -2)],
        [[0, 1], [0, 2], [0, 3]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "leg1": from_values(cx, {simplex([0, 1]): 1}),
        "random0": _random_alpha(cx, 104),
    }
    morse = {
        "x": _affine(1, 0),
        "x_minus_2": _affine(1, 0, constant=-2),
    }
    expected = {
        ("euler", "one"): Expected(1, "trivial: tree"),
        ("euler", "dual_one"): Expected(1, "derived: center -2, tips 0, edges -1 by cofan sums"),
    }
    cases = (
        TheoremCase("one", "x", -1, "derived: center multiplicity 1-2, slice has two points"),
    )
    negatives = (
        NegativeCase("one", "x_minus_2", "HypothesisViolationError"),
    )
    return Fixture(
        "ygraph",
        cx,
        funcs,
        morse,
        expected,
        cases,
        negatives,
        _std_subcomplexes(cx),
        cut_function="x",
        cut_levels=(Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)),
    )


def _cone3() -> Fixture:
    cx = EmbeddedComplex(
        2,
        [Vec.of(0, 0), Vec.of(-1, -1), Vec.of(0, -2), Vec.of(1, -1)],
        [[0, 1], [0, 2], [0, 3]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "random0": _random_alpha(cx, 105),
    }
    morse = {
        "y": _affine(0, 1),
        "y_plus_2": _affine(0, 1, constant=2),
    }
    expected = {
        ("euler", "one"): Expected(1, "trivial: tree"),
        ("apex_multiplicity", "one"): Expected(-2, "derived: 1 minus the three-point lower halflink"),
    }
    cases = (
        TheoremCase("one", "y", -2, "derived: apex multiplicity 1-3, slice has three points"),
        TheoremCase("one", "y_plus_2", 1, "derived: bottom vertex is the unique minimum"),
        TheoremCase("dual_one", "y", 1, "derived: dual apex value -2 plus three slice values -1"),
    )
    return Fixture(
        "cone3",
        cx,
        funcs,
        morse,
        expected,
        cases,
        (),
        _std_subcomplexes(cx),
        cut_function="y",
        cut_levels=(Fraction(-3, 2), Fraction(-1, 2), Fraction(-5, 4), Fraction(-2, 3), Fraction(-7, 4)),
    )


def _susp3() -> Fixture:
    cx = EmbeddedComplex(
        2,
        [
            Vec.of(0, 2),
            Vec.of(0, -2),
            Vec.of(-1, 0),
            Vec.of(0, 0),
            Vec.of(1, 0),
        ],
        [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "random0": _random_alpha(cx, 106),
    }
    morse = {
        "y_minus_2": _affine(0, 1, constant=-2),
        "y_plus_2": _affine(0, 1, constant=2),
    }
    expected = {
        ("euler", "one"): Expected(-1, "derived: alternating count 5-6, cross-checked by betti_oracle"),
    }
    cases = (
        TheoremCase("one", "y_minus_2", -2, "derived: north pole multiplicity 1-3"),
        TheoremCase("one", "y_plus_2", 1, "derived: south pole is the unique minimum"),
        TheoremCase("dual_one", "y_minus_2", 1, "derived: dual pole value -2 plus three slice values -1"),
    )
    return Fixture(
        "susp3",
        cx,
        funcs,
        morse,
        expected,
        cases,
        (),
        _std_subcomplexes(cx),
        cut_function="y_minus_2",
        cut_levels=(Fraction(-3), Fraction(-5, 2), Fraction(-3, 2), Fraction(-1), Fraction(-1, 2)),
    )


def _sphere() -> Fixture:
    cx = EmbeddedComplex(
        3,
        [Vec.of(0, 0, 0), Vec.of(2, 0, 0), Vec.of(0, 2, 0), Vec.of(0, 0, 2)],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "bottom_face": from_values(cx, {simplex([0, 1, 2]): 1}),
        "random0": _random_alpha(cx, 107),
    }
    morse = {
        "z": _affine(0, 0, 1),
        "z_minus_2": _affine(0, 0, 1, constant=-2),
    }
    expected = {
        ("euler", "one"): Expected(2, "derived: betti_oracle gives b0=b2=1"),
        ("euler", "dual_one"): Expected(2, "derived: dual of 1 is 1 on a closed surface"),
    }
    cases = (
        TheoremCase("one", "z", 1, "derived: zero level is the closed bottom face, slice empty"),
        TheoremCase("one", "z_minus_2", 1, "derived: apex multiplicity 1-0 from the circle halflink"),
    )
    return Fixture(
        "sphere",
        cx,
        funcs,
        morse,
        expected,
        cases,
        (),
        _std_subcomplexes(cx),
        cut_function="z",
        cut_levels=(Fraction(1, 4), Fraction(1, 3), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)),
    )


def _book() -> Fixture:
    cx = EmbeddedComplex(
        3,
        [
            Vec.of(0, 0, 0),
            Vec.of(2, 0, 0),
            Vec.of(1, 2, 0),
            Vec.of(1, 0, 2),
            Vec.of(1, -2, 0),
        ],
        [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "page1": from_values(cx, {simplex([0, 1, 2]): 1}),
        "random0": _random_alpha(cx, 108),
    }
    morse = {
        "x": _affine(1, 0, 0),
        "x_minus_2": _affine(1, 0, 0, constant=-2),
    }
    expected = {
        ("euler", "one"): Expected(1, "derived: alternating count 5-7+3, cross-checked by betti_oracle"),
        # spine chamber multiplicities: 1 minus the number of pages on the
        # negative side, indexed by signs against pages (2,3,4)
        ("spine_multiplicity", (1, 1, -1)): Expected(0, "derived: one page below"),
        ("spine_multiplicity", (1, -1, -1)): Expected(-1, "derived: two pages below"),
        ("spine_multiplicity", (-1, 1, 1)): Expected(0, "derived: one page below"),
        ("spine_multiplicity", (-1, -1, 1)): Expected(-1, "derived: two pages below"),
    }
    cases = (
        TheoremCase("one", "x", 1, "derived: left spine endpoint has empty lower halflink"),
    )
    negatives = (
        NegativeCase("one", "x_minus_2", "HypothesisViolationError"),
    )
    return Fixture(
        "book",
        cx,
        funcs,
        morse,
        expected,
        cases,
        negatives,
        _std_subcomplexes(cx),
        cut_function="x",
        cut_levels=(Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(7, 4)),
    )


def _elbow() -> Fixture:
    cx = EmbeddedComplex(
        2,
        [Vec.of(0, 0), Vec.of(1, 0), Vec.of(1, 1)],
        [[0, 1], [1, 2]],
        close=True,
    )
    one = constant_function(cx)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "ab_open": from_values(cx, {simplex([0, 1]): 1}),
        "bc_closed": from_values(
            cx, {simplex([1]): 1, simplex([2]): 1, simplex([1, 2]): 1}
        ),
        "bc_open": from_values(cx, {simplex([1, 2]): 1}),
        "random0": _random_alpha(cx, 109),
    }
    morse = {
        "y": _affine(0, 1),
        "x": _affine(1, 0),
    }
    expected = {
        ("euler", "one"): Expected(1, "trivial: path"),
        ("euler", "ab_open"): Expected(-1, "trivial: one open 1-cell"),
    }
    cases = (
        TheoremCase("one", "y", 1, "derived: zero level is the closed horizontal edge, slice empty"),
        TheoremCase("ab_open", "y", -1, "derived: endpoint terms cancel against the interior critical point"),
        TheoremCase("bc_closed", "y", 1, "derived: corner vertex carries multiplicity 1, slice empty"),
    )
    negatives = (
        NegativeCase("bc_open", "y", "HypothesisViolationError"),
    )
    return Fixture(
        "elbow",
        cx,
        funcs,
        morse,
        expected,
        cases,
        negatives,
        _std_subcomplexes(cx),
        cut_function="x",
        cut_levels=(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)),
    )


def builtin_fixtures() -> list[Fixture]:
    """The nine curated complexes with their hand-derived expectations."""
    return [
        _interval(),
        _circle(),
        _triangle(),
        _ygraph(),
        _cone3(),
        _susp3(),
        _sphere(),
        _book(),
        _elbow(),
    ]


def fixture_by_name(name: str) -> Fixture:
    for fx in builtin_fixtures():
        if fx.name == name:
            return fx
    raise InputError(f"unknown fixture {name!r}")


def random_fixture(seed: int, ambient_dim: int = 2, size_budget: int = 150) -> Fixture:
    """Seed-deterministic subcomplex of an iterated barycentric subdivision.

    Starts from one scaled standard simplex, subdivides while the result
    stays within the size budget, then keeps a random subset of maximal
    cells (closed up).  Alpha values are uniform integers in [-3, 3].
    """
    if ambient_dim not in (1, 2, 3):
        raise InputError("ambient_dim must be 1, 2 or 3")
    if size_budget < 3:
        raise InputError("size_budget too small for a nonempty complex")
    verts = [Vec.zero(ambient_dim)] + [
        Vec.unit(ambient_dim, i).scale(4) for i in range(ambient_dim)
    ]
    cx = EmbeddedComplex(ambient_dim, verts, [range(ambient_dim + 1)], close=True)
    while True:
        candidate = barycentric_subdivide(cx, 1)
        if len(candidate.complex.simplices) > size_budget:
            break
        cx = candidate.complex
    sampler = RationalSampler(seed)
    maximal = cx.maximal_simplices()
    keep = [s for s in maximal if sampler.integer(0, 2) > 0]
    if not keep:
        keep = [maximal[0]]
    region = close_under_faces(keep)
    small, _ = induced_complex(cx, region)
    one = constant_function(small)
    funcs = {
        "one": one,
        "dual_one": dual(one),
        "random0": _random_alpha(small, seed * 31 + 7),
    }
    name = f"random-{seed}-d{ambient_dim}"
    return Fixture(
        name,
        small,
        funcs,
        {},
        {},
        (),
        (),
        _std_subcomplexes(small),
    )


def vertex_pair_lines(cx: EmbeddedComplex, seed: int, count: int) -> list[AffineFunction]:
    """Level functions of lines through pairs of vertices of a plane complex.

    Each pair (p, q) is drawn by random.Random(seed); the function is
    (q - p) rotated a quarter turn, paired with y - p.  Such a line holds an
    edge whenever p and q span one, which gives theorem 1 strata on which f
    is flat.
    """
    if cx.ambient_dim != 2:
        raise InputError("lines through vertex pairs need a plane complex")
    rng = random.Random(seed)
    out: list[AffineFunction] = []
    for _ in range(count):
        p, q = (cx.vertices[i] for i in rng.sample(range(len(cx.vertices)), 2))
        normal = Vec((p[1] - q[1], q[0] - p[0]))
        out.append(AffineFunction(normal, -normal.dot(p)))
    return out
