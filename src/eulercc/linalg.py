"""Exact rational linear algebra on an integer kernel.

Values enter and leave as `fractions.Fraction` (`rat`, `Vec`, the returned
solutions and witnesses), and no floating point enters at any stage.  Inside,
the hot loops run on plain int: a `Vec` operation accumulates over integer
numerators and denominators and builds one normalized Fraction per result or
entry; `clear_denominators` and `int_dot` give the integer multiples and
pairings that sign tests use; elimination, symmetric elimination included,
is fraction-free (Bareiss) on rows scaled to integers; and Fourier-Motzkin
keeps each constraint as a primitive integer vector.  The three workhorses are
`solve_affine` (exact affine solve with a parametrized solution set),
`inertia` (signature of a symmetric form by congruence), and
`strict_feasibility` (Fourier-Motzkin decision procedure for mixed
strict/weak linear systems, with an exact interior witness and the dimension
of the feasible set).  tests/linalg_oracle.py keeps the Fraction
implementations they replaced.  No verifier calls `strict_feasibility` any
more: chamber enumeration and closure queries pass their primitive strict
rows, which need no reduction, to `_fm_feasible` directly.  It stays for
complexes.validate, morse.critical_points and the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError

Rational = Fraction


def rat(value) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to Fraction.

    Floats are rejected: exactness is a hard invariant of this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed rational {value!r}: {exc}") from exc
    raise InputError(f"not an exact rational: {value!r} ({type(value).__name__})")


def _not_rational(*rows: Iterable) -> InputError:
    """The error for a kernel input with an entry that is not an int or Fraction."""
    bad = next(
        x for row in rows for x in row if not isinstance(x, (int, Fraction))
    )
    return InputError(f"not an exact rational: {bad!r} ({type(bad).__name__})")


def clear_denominators(*vectors: "Vec") -> tuple[tuple[int, ...], ...]:
    """The vectors times the lcm of all their denominators, as int tuples.

    One common positive multiplier, so every sign of a pairing and every
    ratio of two pairings with the results is that of the vectors.
    """
    try:
        m = lcm(*(x.denominator for v in vectors for x in v.entries))
        return tuple(
            tuple(x.numerator * (m // x.denominator) for x in v.entries)
            for v in vectors
        )
    except AttributeError:
        raise _not_rational(*(v.entries for v in vectors)) from None


def _dot_ratio(xs: Sequence, ys: Sequence) -> tuple[int, int]:
    """(num, den) with den > 0 and num / den = sum of x * y over int or Fraction
    entries, summed over one running integer numerator and denominator."""
    num, den = 0, 1
    try:
        for x, y in zip(xs, ys):
            d = x.denominator * y.denominator
            if d == den:
                num += x.numerator * y.numerator
            else:
                num = num * d + x.numerator * y.numerator * den
                den *= d
    except AttributeError:
        raise _not_rational(xs, ys) from None
    return num, den


def int_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators: integer, same solutions."""
    try:
        m = lcm(*(x.denominator for x in row))
        return [x.numerator * (m // x.denominator) for x in row]
    except AttributeError:
        raise _not_rational(row) from None


def format_rational(q: Fraction) -> str:
    """Serialize as 'p' or 'p/q' with positive denominator."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Vec:
    """Immutable rational vector."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(*values) -> "Vec":
        return Vec(tuple(rat(v) for v in values))

    @staticmethod
    def from_seq(values: Iterable) -> "Vec":
        return Vec(tuple(rat(v) for v in values))

    @staticmethod
    def zero(dim: int) -> "Vec":
        return Vec((Fraction(0),) * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "Vec":
        return Vec(tuple(Fraction(1 if j == i else 0) for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __add__(self, other: "Vec") -> "Vec":
        return self._combine(other, 1)

    def __sub__(self, other: "Vec") -> "Vec":
        return self._combine(other, -1)

    def _combine(self, other: "Vec", sign: int) -> "Vec":
        """self + sign * other, one integer numerator per entry."""
        self._check_dim(other)
        out = []
        try:
            for a, b in zip(self.entries, other.entries):
                ad, bd = a.denominator, b.denominator
                if ad == bd:
                    out.append(Fraction(a.numerator + sign * b.numerator, ad))
                else:
                    out.append(
                        Fraction(a.numerator * bd + sign * b.numerator * ad, ad * bd)
                    )
        except AttributeError:
            raise _not_rational(self.entries, other.entries) from None
        return Vec(tuple(out))

    def scale(self, c) -> "Vec":
        c = rat(c)
        cn, cd = c.numerator, c.denominator
        try:
            return Vec(
                tuple([Fraction(cn * a.numerator, cd * a.denominator) for a in self.entries])
            )
        except AttributeError:
            raise _not_rational(self.entries) from None

    def dot(self, other: "Vec") -> Fraction:
        self._check_dim(other)
        return Fraction(*_dot_ratio(self.entries, other.entries))

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _check_dim(self, other: "Vec") -> None:
        if len(self.entries) != len(other.entries):
            raise InputError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return "Vec(" + ", ".join(format_rational(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric rational matrix."""

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "SymMatrix":
        data = tuple(tuple(rat(v) for v in row) for row in rows)
        n = len(data)
        for row in data:
            if len(row) != n:
                raise InputError("symmetric matrix must be square")
        for i in range(n):
            for j in range(i):
                if data[i][j] != data[j][i]:
                    raise InputError(f"matrix not symmetric at ({i},{j})")
        return SymMatrix(data)

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        return SymMatrix(
            tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zero(n: int) -> "SymMatrix":
        return SymMatrix(tuple((Fraction(0),) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def apply(self, v: Vec) -> Vec:
        if v.dim != self.n:
            raise InputError("matrix/vector dimension mismatch")
        return Vec(tuple(sum((r[j] * v[j] for j in range(self.n)), Fraction(0)) for r in self.rows))

    def quad_form(self, v: Vec) -> Fraction:
        return v.dot(self.apply(v))

    def scale(self, c) -> "SymMatrix":
        c = rat(c)
        return SymMatrix(tuple(tuple(c * x for x in row) for row in self.rows))

    def add(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise InputError("matrix dimension mismatch")
        return SymMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def restrict(self, basis: Sequence[Vec]) -> "SymMatrix":
        """Pull back along the linear map sending e_i to basis[i]: B^T A B."""
        images = [self.apply(b) for b in basis]
        return SymMatrix(
            tuple(tuple(basis[i].dot(images[j]) for j in range(len(basis))) for i in range(len(basis)))
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)


class Inertia(NamedTuple):
    n_pos: int
    n_neg: int
    n_zero: int


@dataclass(frozen=True)
class AffineSubspace:
    """Solution set {point + span(basis)} of an affine system."""

    point: Vec
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _rref(matrix: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination in place; returns the pivot columns.

    Bareiss's integer-preserving elimination ("Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 1968),
    applied to the rows above each pivot as well as below: every row is
    replaced by (p * row - row[c] * pivot row) / p', with p the new pivot and
    p' the previous one.  After step k every entry is a k- or (k+1)-rowed
    minor of the input, so each division is exact.  At the end every pivot
    row i holds d times row i of the reduced row echelon form, where
    d = matrix[i][pivots[i]] is the same for all of them, and the rows past
    the rank are zero.  A row scaling does not move the zero pattern, so the
    pivot columns are those of the reduced form, which is unique.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if matrix[i][c]), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        top = matrix[r]
        p = top[c]
        for i in range(rows):
            if i == r:
                continue
            row = matrix[i]
            factor = row[c]
            if factor:
                matrix[i] = [(p * a - factor * b) // prev for a, b in zip(row, top)]
            elif p != prev:
                matrix[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def matrix_rank(rows: Sequence[Vec]) -> int:
    return len(_rref([_integer_row(v.entries) for v in rows]))


def solve_affine(equations: Sequence[tuple[Vec, Fraction]], dim: int) -> AffineSubspace | None:
    """Solve {a_i . x = c_i} exactly.

    Returns the full solution set as a basepoint plus a basis of the homogeneous
    kernel, or None when inconsistent.  `dim` is the number of unknowns; it must
    be given explicitly so the empty system is well defined.
    """
    for a, _ in equations:
        if a.dim != dim:
            raise InputError("equation dimension mismatch")
    if not equations:
        return AffineSubspace(Vec.zero(dim), tuple(Vec.unit(dim, i) for i in range(dim)))
    aug = [_integer_row(a.entries + (rat(c),)) for a, c in equations]
    pivots = _rref(aug)
    if dim in pivots:
        return None  # pivot in the constant column: inconsistent
    pivot_set = set(pivots)
    free = [c for c in range(dim) if c not in pivot_set]
    point = [Fraction(0)] * dim
    for row, c in zip(aug, pivots):
        point[c] = Fraction(row[-1], row[c])
    basis = []
    for f in free:
        direction = [Fraction(0)] * dim
        direction[f] = Fraction(1)
        for row, c in zip(aug, pivots):
            direction[c] = Fraction(-row[f], row[c])
        basis.append(Vec(tuple(direction)))
    return AffineSubspace(Vec(tuple(point)), tuple(basis))


def orthogonal_complement(vectors: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Basis of {x : x . v = 0 for all given v} w.r.t. the standard inner product.

    The input vectors must be linearly independent (exact rank check), matching
    the direction-basis use sites; the empty input yields the standard basis.
    """
    for v in vectors:
        if v.dim != dim:
            raise InputError("vector dimension mismatch")
    if vectors and matrix_rank(vectors) != len(vectors):
        raise InputError("orthogonal_complement requires independent input vectors")
    sol = solve_affine([(v, Fraction(0)) for v in vectors], dim)
    assert sol is not None  # homogeneous system is always consistent
    return sol.basis


def inertia(matrix: SymMatrix) -> Inertia:
    """Signature (n_pos, n_neg, n_zero) by fraction-free congruence diagonalization.

    Sylvester's law makes the triple invariant under A -> B^T A B for
    invertible B, which is the property the tests pin down.  The entries are
    scaled to integers by one positive multiplier, which keeps the triple,
    and eliminated symmetrically by Bareiss's rule: after k pivots the
    active block is D_k times the Schur complement of the eliminated
    indices, D_k the last pivot (a k-rowed principal minor), so each
    division by it is exact, and the k-th diagonal entry of the congruent
    diagonal form is D_k / D_(k-1).  When every active diagonal entry is
    zero, adding row and column j to row and column i makes it 2 A[i][j];
    that integer congruence on the active indices keeps the divisions exact.
    """
    n = matrix.n
    try:
        m = lcm(*(x.denominator for row in matrix.rows for x in row))
        work = [[x.numerator * (m // x.denominator) for x in row] for row in matrix.rows]
    except AttributeError:
        raise _not_rational(*matrix.rows) from None
    active = list(range(n))
    n_pos = n_neg = 0
    prev = 1
    while active:
        i = next((i for i in active if work[i][i]), None)
        if i is None:
            pair = next(
                ((i, j) for i in active for j in active if i != j and work[i][j]), None
            )
            if pair is None:
                break
            i, j = pair
            for k in active:
                work[i][k] += work[j][k]
            for k in active:
                work[k][i] += work[k][j]
        p = work[i][i]
        if (p > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        active.remove(i)
        top = work[i]
        for q in active:
            row = work[q]
            factor = row[i]
            for k in active:
                row[k] = (p * row[k] - factor * top[k]) // prev
        prev = p
    return Inertia(n_pos, n_neg, len(active))


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: Vec | None
    dim: int  # dimension of the feasible set; -1 when infeasible


# Internal constraint form: coeffs . t  (>|>=)  rhs, as a primitive integer
# vector (coeffs, rhs): two constraints are positively proportional exactly
# when their primitive forms are equal
_Con = tuple[tuple[int, ...], int, bool]  # (coeffs, rhs, strict)


def _primitive(row: list[int], strict: bool) -> _Con:
    """The constraint row[:-1] . t (>|>=) row[-1] divided by the gcd of its entries."""
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return (tuple(row[:-1]), row[-1], strict)


def _fm_feasible(cons: list[_Con], k: int) -> Vec | None:
    """Fourier-Motzkin over R^k; returns a witness or None.

    Strictness is tracked through eliminations: a combined bound is strict when
    either parent is strict.  Every constraint is kept primitive, so repeats
    are dropped exactly when they are positively proportional, and each
    back-substitution bound is a ratio, unchanged by the scaling.
    """
    levels: list[list[_Con]] = []
    for var in range(k - 1, -1, -1):
        deduped: list[_Con] = []
        seen: set[_Con] = set()
        for c in cons:
            if c not in seen:
                seen.add(c)
                deduped.append(c)
        cons = deduped
        levels.append(cons)
        lowers, uppers, rest = [], [], []
        for coeffs, rhs, strict in cons:
            a = coeffs[var]
            if a > 0:
                lowers.append((coeffs, rhs, strict))
            elif a < 0:
                uppers.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        new = list(rest)
        for lc, lr, ls in lowers:
            la = lc[var]
            for uc, ur, us in uppers:
                ua = uc[var]
                # eliminate var from la*var >= lr - ... and ua*var >= ur - ... (ua < 0)
                row = [x * (-ua) + y * la for x, y in zip(lc, uc)]
                row.append(lr * (-ua) + ur * la)
                new.append(_primitive(row, ls or us))
        cons = new
    for coeffs, rhs, strict in cons:
        assert all(c == 0 for c in coeffs)
        if strict:
            if not rhs < 0:
                return None
        else:
            if not rhs <= 0:
                return None
    # back-substitute, outermost variable first
    values: list[Fraction] = [Fraction(0)] * k
    for var in range(k):
        level = levels[k - 1 - var]
        lo: Fraction | None = None
        lo_strict = False
        hi: Fraction | None = None
        hi_strict = False
        for coeffs, rhs, strict in level:
            a = coeffs[var]
            if a == 0:
                continue
            # this level still contains vars 0..var; earlier ones are assigned
            num, den = _dot_ratio(coeffs, values[:var])
            bound = Fraction(rhs * den - num, a * den)
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
            # feasible FM guarantees lo <= hi, with lo < hi whenever either is strict
            if lo == hi and (lo_strict or hi_strict):
                raise AssertionError("inconsistent bounds after feasible elimination")
            values[var] = lo if lo == hi else (lo + hi) / 2
        elif lo is not None:
            values[var] = lo + 1 if lo_strict else lo
        elif hi is not None:
            values[var] = hi - 1 if hi_strict else hi
        else:
            values[var] = Fraction(0)
    for coeffs, rhs, strict in levels[0]:
        num, den = _dot_ratio(coeffs, values)  # den > 0
        assert num > rhs * den if strict else num >= rhs * den, "witness fails a constraint"
    return Vec(tuple(values))


def strict_feasibility(
    equalities: Sequence[tuple[Vec, Fraction]],
    strict_inequalities: Sequence[tuple[Vec, Fraction]],
    weak_inequalities: Sequence[tuple[Vec, Fraction]],
    dim: int,
) -> FeasibilityResult:
    """Decide {a.x = c} & {a.x > c} & {a.x >= c} exactly.

    Returns (feasible, witness, dim of the feasible set).  The witness
    satisfies every strict constraint strictly; the dimension is that of the
    affine hull of the feasible set (-1 when infeasible).  Weak constraints
    that hold with equality on the whole feasible set are detected by repeated
    feasibility probes, which is exact if slow; call sites keep systems small.
    """
    sol = solve_affine(list(equalities), dim)
    if sol is None:
        return FeasibilityResult(False, None, -1)
    k = sol.dim
    point, basis = sol.point, sol.basis

    def reduce(ineqs: Sequence[tuple[Vec, Fraction]], strict: bool) -> list[_Con] | None:
        out: list[_Con] = []
        for a, c in ineqs:
            if a.dim != dim:
                raise InputError("inequality dimension mismatch")
            c = rat(c)
            coeffs = tuple(a.dot(b) for b in basis)
            rhs = c - a.dot(point)
            if all(x == 0 for x in coeffs):
                if strict:
                    if not rhs < 0:
                        return None
                else:
                    if not rhs <= 0:
                        return None
                continue
            out.append(_primitive(_integer_row(coeffs + (rhs,)), strict))
        return out

    strict_cons = reduce(strict_inequalities, True)
    weak_cons = reduce(weak_inequalities, False)
    if strict_cons is None or weak_cons is None:
        return FeasibilityResult(False, None, -1)

    def embed(t: Vec) -> Vec:
        x = point
        for coeff, b in zip(t.entries, basis):
            x = x + b.scale(coeff)
        return x

    if k == 0:
        return FeasibilityResult(True, point, 0)

    witness_t = _fm_feasible(strict_cons + weak_cons, k)
    if witness_t is None:
        return FeasibilityResult(False, None, -1)
    if not weak_cons:
        return FeasibilityResult(True, embed(witness_t), k)

    implicit_normals: list[list[int]] = []
    probes: list[Vec] = []
    for i, (coeffs, rhs, _) in enumerate(weak_cons):
        others = strict_cons + [w for j, w in enumerate(weak_cons) if j != i]
        probe = _fm_feasible(others + [(coeffs, rhs, True)], k)
        if probe is None:
            implicit_normals.append(list(coeffs))
        else:
            probes.append(probe)
    if probes:
        # average of the probes is strictly inside every non-implicit constraint
        acc = Vec.zero(k)
        for p in probes:
            acc = acc + p
        interior_t = acc.scale(Fraction(1, len(probes)))
    else:
        interior_t = witness_t
    rank = len(_rref(implicit_normals))
    return FeasibilityResult(True, embed(interior_t), k - rank)
