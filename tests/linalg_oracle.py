"""The Fraction linear algebra that the integer kernel replaced, kept as a test oracle.

The library clears denominators and runs dot products, elimination and
Fourier-Motzkin over plain int.  This module keeps the rules it replaced,
every step over `fractions.Fraction`: a dot product as a sum of Fraction
products; reduced row echelon form by dividing each pivot row by its pivot;
Fourier-Motzkin with each constraint divided by the absolute value of its
lead coefficient; and the inertia of a symmetric matrix by congruence
elimination with the factor A[q][p] / A[p][p].  solve_affine, matrix_rank,
orthogonal_complement and strict_feasibility are the library's, rebuilt on
these parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from eulercc import Vec
from eulercc.linalg import AffineSubspace, FeasibilityResult, Inertia, SymMatrix, rat

_Con = tuple[tuple[Fraction, ...], Fraction, bool]  # (coeffs, rhs, strict)


def fraction_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a.entries, b.entries)), Fraction(0))


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (matrix, pivot column list)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if matrix[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = Fraction(1) / matrix[r][c]
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c] != 0:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return matrix, pivots


def matrix_rank(rows: Sequence[Vec]) -> int:
    if not rows:
        return 0
    _, pivots = rref([list(v.entries) for v in rows])
    return len(pivots)


def solve_affine(equations: Sequence[tuple[Vec, Fraction]], dim: int) -> AffineSubspace | None:
    if not equations:
        return AffineSubspace(Vec.zero(dim), tuple(Vec.unit(dim, i) for i in range(dim)))
    reduced, pivots = rref([list(a.entries) + [rat(c)] for a, c in equations])
    for row in reduced[len(pivots):]:
        if row[-1] != 0:
            return None
    if dim in pivots:
        return None
    pivot_set = set(pivots)
    point = [Fraction(0)] * dim
    for i, c in enumerate(pivots):
        point[c] = reduced[i][-1]
    basis = []
    for f in (c for c in range(dim) if c not in pivot_set):
        direction = [Fraction(0)] * dim
        direction[f] = Fraction(1)
        for i, c in enumerate(pivots):
            direction[c] = -reduced[i][f]
        basis.append(Vec(tuple(direction)))
    return AffineSubspace(Vec(tuple(point)), tuple(basis))


def orthogonal_complement(vectors: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    sol = solve_affine([(v, Fraction(0)) for v in vectors], dim)
    assert sol is not None
    return sol.basis


def normalize_con(con: _Con) -> _Con:
    coeffs, rhs, strict = con
    lead = next((abs(c) for c in coeffs if c != 0), None)
    if lead is None:
        return con
    inv = Fraction(1) / lead
    return (tuple(c * inv for c in coeffs), rhs * inv, strict)


def fm_feasible(constraints: list[_Con], k: int) -> Vec | None:
    """Fourier-Motzkin over R^k; returns a witness or None."""
    cons = [normalize_con(c) for c in constraints]
    levels: list[list[_Con]] = []
    for var in range(k - 1, -1, -1):
        cons = list(dict.fromkeys(cons))
        levels.append(cons)
        lowers = [c for c in cons if c[0][var] > 0]
        uppers = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for lc, lr, ls in lowers:
            la = lc[var]
            for uc, ur, us in uppers:
                ua = uc[var]
                coeffs = tuple(lc[i] * (-ua) + uc[i] * la for i in range(k))
                rhs = lr * (-ua) + ur * la
                new.append(normalize_con((coeffs, rhs, ls or us)))
        cons = new
    for _, rhs, strict in cons:
        if not (rhs < 0 if strict else rhs <= 0):
            return None
    values: list[Fraction] = [Fraction(0)] * k
    for var in range(k):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, rhs, strict in levels[k - 1 - var]:
            a = coeffs[var]
            if a == 0:
                continue
            bound = (rhs - sum((coeffs[i] * values[i] for i in range(var)), Fraction(0))) / a
            if a > 0:
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo:
                    lo_strict = lo_strict or strict
            else:
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi:
                    hi_strict = hi_strict or strict
        if lo is not None and hi is not None:
            values[var] = lo if lo == hi else (lo + hi) / 2
        elif lo is not None:
            values[var] = lo + 1 if lo_strict else lo
        elif hi is not None:
            values[var] = hi - 1 if hi_strict else hi
    return Vec(tuple(values))


def strict_feasibility(equalities, strict_inequalities, weak_inequalities, dim) -> FeasibilityResult:
    sol = solve_affine(list(equalities), dim)
    if sol is None:
        return FeasibilityResult(False, None, -1)
    k = sol.dim
    point, basis = sol.point, sol.basis

    def reduce(ineqs, strict: bool) -> list[_Con] | None:
        out: list[_Con] = []
        for a, c in ineqs:
            coeffs = tuple(fraction_dot(a, b) for b in basis)
            rhs = rat(c) - fraction_dot(a, point)
            if all(x == 0 for x in coeffs):
                if not (rhs < 0 if strict else rhs <= 0):
                    return None
                continue
            out.append((coeffs, rhs, strict))
        return out

    strict_cons = reduce(strict_inequalities, True)
    weak_cons = reduce(weak_inequalities, False)
    if strict_cons is None or weak_cons is None:
        return FeasibilityResult(False, None, -1)

    def embed(t: Vec) -> Vec:
        x = point
        for coeff, b in zip(t.entries, basis):
            x = Vec(tuple(p + coeff * q for p, q in zip(x.entries, b.entries)))
        return x

    if k == 0:
        return FeasibilityResult(True, point, 0)
    witness_t = fm_feasible(strict_cons + weak_cons, k)
    if witness_t is None:
        return FeasibilityResult(False, None, -1)
    if not weak_cons:
        return FeasibilityResult(True, embed(witness_t), k)
    implicit_normals: list[Vec] = []
    probes: list[Vec] = []
    for i, (coeffs, rhs, _) in enumerate(weak_cons):
        others = strict_cons + [w for j, w in enumerate(weak_cons) if j != i]
        probe = fm_feasible(others + [(coeffs, rhs, True)], k)
        if probe is None:
            implicit_normals.append(Vec(coeffs))
        else:
            probes.append(probe)
    if probes:
        interior_t = Vec(
            tuple(sum(column, Fraction(0)) / len(probes) for column in zip(*probes))
        )
    else:
        interior_t = witness_t
    return FeasibilityResult(True, embed(interior_t), k - matrix_rank(implicit_normals))


def inertia(matrix: SymMatrix) -> Inertia:
    """Signature (n_pos, n_neg, n_zero) by congruence diagonalization over Fraction."""
    n = matrix.n
    work = [list(row) for row in matrix.rows]
    n_pos = n_neg = n_zero = 0
    idx = list(range(n))
    start = 0
    while start < n:
        pivot = None
        for i in range(start, n):
            if work[idx[i]][idx[i]] != 0:
                pivot = i
                break
        if pivot is None:
            off = None
            for i in range(start, n):
                for j in range(i + 1, n):
                    if work[idx[i]][idx[j]] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                n_zero += n - start
                break
            i, j = off
            ri, rj = idx[i], idx[j]
            # congruence by adding row/col j to row/col i makes the diagonal nonzero
            for k in range(n):
                work[ri][k] += work[rj][k]
            for k in range(n):
                work[k][ri] += work[k][rj]
            pivot = i
        idx[start], idx[pivot] = idx[pivot], idx[start]
        p = idx[start]
        d = work[p][p]
        if d > 0:
            n_pos += 1
        else:
            n_neg += 1
        for i2 in range(start + 1, n):
            q = idx[i2]
            if work[q][p] != 0:
                factor = work[q][p] / d
                for k in range(n):
                    work[q][k] -= factor * work[p][k]
                for k in range(n):
                    work[k][q] -= factor * work[k][p]
        start += 1
    return Inertia(n_pos, n_neg, n_zero)
