"""The integer kernel against the Fraction linear algebra it replaced.

Systems are drawn with zero rows, rows that combine earlier ones (rank
deficient) and right-hand sides that are either read off a point
(consistent) or drawn freely (often inconsistent).  Every result must be the
oracle's exactly: the same Fractions, the same basis, the same witness.
"""

from __future__ import annotations

from fractions import Fraction

import linalg_oracle as oracle
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from eulercc import InputError, SymMatrix, Vec, strict_feasibility
from eulercc.linalg import inertia, matrix_rank, orthogonal_complement, solve_affine

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
# many zero entries make elimination meet zero factors below and above pivots
sparse = st.one_of(st.just(Fraction(0)), rationals)


def vecs(dim: int):
    return st.lists(sparse, min_size=dim, max_size=dim).map(
        lambda values: Vec(tuple(values))
    )


@st.composite
def rows(draw, dim: int, max_size: int = 5) -> list[Vec]:
    out: list[Vec] = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(("free", "zero", "combination")))
        if kind == "zero":
            out.append(Vec.zero(dim))
        elif kind == "combination" and out:
            i = draw(st.integers(0, len(out) - 1))
            j = draw(st.integers(0, len(out) - 1))
            out.append(out[i].scale(draw(rationals)) + out[j].scale(draw(rationals)))
        else:
            out.append(draw(vecs(dim)))
    return out


@st.composite
def systems(draw, dim: int, max_size: int = 5) -> list[tuple[Vec, Fraction]]:
    normals = draw(rows(dim, max_size))
    if draw(st.booleans()):
        x0 = draw(vecs(dim))
        return [(n, n.dot(x0)) for n in normals]
    return [(n, draw(rationals)) for n in normals]


dims = st.integers(1, 4)


@given(st.integers(0, 5).flatmap(lambda d: st.tuples(vecs(d), vecs(d))))
def test_dot_matches_fraction_sum(pair) -> None:
    a, b = pair
    got = a.dot(b)
    assert type(got) is Fraction
    assert got == oracle.fraction_dot(a, b)


@given(dims.flatmap(lambda d: st.tuples(st.just(d), systems(d))))
def test_solve_affine_matches_fraction_rref(case) -> None:
    dim, equations = case
    assert solve_affine(equations, dim) == oracle.solve_affine(equations, dim)


@given(dims.flatmap(rows))
def test_matrix_rank_matches_fraction_rref(normals) -> None:
    assert matrix_rank(normals) == oracle.matrix_rank(normals)


@given(dims.flatmap(lambda d: st.tuples(st.just(d), rows(d, 3))))
def test_orthogonal_complement_matches_fraction_rref(case) -> None:
    dim, vectors = case
    assume(oracle.matrix_rank(vectors) == len(vectors))
    assert orthogonal_complement(vectors, dim) == oracle.orthogonal_complement(vectors, dim)


@given(
    dims.flatmap(
        lambda d: st.tuples(st.just(d), systems(d, 2), systems(d, 4), systems(d, 3))
    )
)
def test_strict_feasibility_matches_fraction_fourier_motzkin(case) -> None:
    dim, eqs, stricts, weaks = case
    got = strict_feasibility(eqs, stricts, weaks, dim)
    want = oracle.strict_feasibility(eqs, stricts, weaks, dim)
    assert (got.feasible, got.witness, got.dim) == (want.feasible, want.witness, want.dim)


@st.composite
def symmetric(draw, dim: int) -> SymMatrix:
    """A symmetric matrix, its diagonal all zero half the time, so that the
    congruence that makes a diagonal entry from an off-diagonal one runs;
    zero rows and repeated rows make it singular."""
    zero_diagonal = draw(st.booleans())
    data = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if i == j and zero_diagonal:
                continue
            data[i][j] = data[j][i] = draw(sparse)
    return SymMatrix.from_rows(data)


@given(st.integers(0, 5).flatmap(symmetric))
def test_inertia_matches_fraction_congruence(matrix) -> None:
    assert inertia(matrix) == oracle.inertia(matrix)


def test_inertia_reaches_the_off_diagonal_congruence() -> None:
    # every diagonal entry is zero at the start and again after the first pivot
    m = SymMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, "2/3"], [0, 0, "2/3", 0]]
    )
    assert inertia(m) == oracle.inertia(m) == (2, 2, 0)


@pytest.mark.parametrize(
    "op",
    [
        lambda v, w: v.dot(w),
        lambda v, w: v + w,
        lambda v, w: w + v,
        lambda v, w: v - w,
        lambda v, w: v.scale(2),
    ],
    ids=["dot", "add", "radd", "sub", "scale"],
)
def test_kernel_rejects_a_float_entry(op) -> None:
    # the direct constructor does not coerce, so the kernel must check
    v = Vec((0.5, Fraction(1)))
    with pytest.raises(InputError, match="not an exact rational: 0.5"):
        op(v, Vec.of(1, 1))
