"""Dense vectors/matrices, Kronecker powers, and covariances.

Everything here is written once over duck-typed scalars and works for two
fields: 64-bit floats and exact rationals (int / fractions.Fraction).  The
int scalars 0 and 1 embed in both fields, so identity matrices and empty
products stay field-agnostic.

Each matrix operation is one kernel on plain row tuples (`matmul_rows`,
`transpose_rows`, `cleared_rows`, ...).  The `DenseMatrix` and
`DenseVector` methods check shapes and wrap them; `coeffs`, for every
(A, M), and `polyoracle` call them on rows directly.  A product entry
is `left_sum(map(mul, row, col))`.  Every float sum runs left to right from
the int 0, in `left_sum` or a loop folding the same way, so float bits do
not depend on the interpreter.  `cleared_rows` writes exact rows, floats
included, as C/d, C int rows.  A `DenseMatrix` keeps the (C, d) of its
rows once asked for (`DenseMatrix.cleared_rows`), so each matrix is
cleared at most once: its inverse, the exact (A, M) built from it and the
oracle's polynomials all read the same pair.

Each product kernel has one body for both fields, so no entry changes
type and a power of degree 0 is the int [1].  Exact work that a workload
repeats runs on int rows: every inverse, by one fraction-free Gauss-Jordan
elimination (`_eliminate`; Bareiss, Math. Comp. 22, 1968), and in the
callers every exact (A, M) build and coefficient sweep of `coeffs`, the
oracle's polynomials, and the kron suite's exact half, which `verify`
runs on integer numerators.

A covariance is an `SpdMatrix`: the checked matrix and its inverse.
`covariance` holds the one rule for outside input.  A float covariance
must be positive definite and not singular to working precision
(`spd_factorize`); a float is a dyadic rational, so its inverse is the
exact one rounded once per entry.  An exact one need only be symmetric
and invertible.  `exact_covariance` applies that rule to a matrix its
caller has already tested exact, without testing it again; `invert_matrix`
tests its input and runs the same elimination.  A covariance is checked
when it is made, and the (A, M) builder of `coeffs` checks the two
matrices it reads, Sigma^-1 and Upsilon, again.

Flat tensor addressing: a 0-based slot tuple (j_1, ..., j_K) in [0, n)^K
maps to flat index sum_p j_p * n^(K-1-p), which is exactly the layout
produced by iterated `_kron_entries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
    SizeLimitError,
)
from .multiindex import MultiIndex

# Tensor results above this length are rejected; sizes are desk scale.
MAX_TENSOR_LEN = 10**7

# Relative tolerance of every float symmetry check.
SPD_SYMMETRY_RTOL = 1e-12

# Unit roundoff of a double, 2^-52: a float covariance S of dimension n is
# singular to working precision when n * eps * max|S| * max|S^-1| >= 1.
_EPS = 2.0**-52

_EXACT_TYPES = frozenset((int, Fraction))


def left_sum(values):
    """values added left to right from the int 0, on every Python: builtin
    sum compensates float sums from Python 3.12 on (gh-100425)."""
    return reduce(add, values, 0)


def is_exact_scalar(v) -> bool:
    """True for scalars of the exact rational field (int or Fraction)."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _check_finite(values: Iterable) -> None:
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"non-finite entry {v!r}")


# ------------------------------------------------ kernels on row tuples
#
# A matrix is a tuple of equal-length row tuples, a vector a tuple.  The
# kernels do no shape checks; the DenseMatrix and DenseVector methods do.


def cleared_rows(rows: tuple) -> tuple[tuple, int]:
    """(C, d) with rows = C/d for exact rows: d is the lcm of the entry
    denominators and C holds ints."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    d = math.lcm(*[q for row in ratios for _, q in row])
    return tuple(tuple([p * (d // q) for p, q in row]) for row in ratios), d


def transpose_rows(rows: tuple) -> tuple:
    return tuple(zip(*rows))


def matmul_rows(a: tuple, b: tuple) -> tuple:
    """left_sum(map(mul, row, col)) for each row of a and column of b."""
    cols = tuple(zip(*b))
    return tuple([tuple([left_sum(map(mul, row, col)) for col in cols]) for row in a])


def entrywise_rows(op, a: tuple, b: tuple) -> tuple:
    """op(x, y) for each entry x of a and the entry y of b at its place."""
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))


def scale_rows(c, rows: tuple) -> tuple:
    """c * v for every entry v, in that operand order."""
    return tuple(tuple([c * v for v in row]) for row in rows)


def fraction_rows(rows: tuple, den: int) -> tuple:
    """Fraction(v, den) for every int entry v."""
    return tuple(tuple([Fraction(v, den) for v in row]) for row in rows)


def check_symmetric_rows(rows: tuple, exact: bool):
    """Raise NotSymmetricError unless square rows are symmetric: exactly if
    exact, else by |m_ij - m_ji| <= SPD_SYMMETRY_RTOL * max_kl |m_kl|, which
    scaling the rows does not change.  Every covariance, and the Sigma^-1
    and Upsilon of each (A, M) build, is checked by this one rule."""
    tol = 0 if exact else SPD_SYMMETRY_RTOL * max(abs(v) for row in rows for v in row)
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            a, b = row[j], rows[j][i]
            if a != b and (exact or not abs(a - b) <= tol):
                raise NotSymmetricError(
                    f"entries ({i},{j}) and ({j},{i}) differ: {a} vs {b}"
                )


def _eliminate(c: tuple) -> tuple:
    """Fraction-free Gauss-Jordan (Bareiss) on [C | I], C square int rows:
    (N, D, bad) with C^-1 = N/D, or N None when C is singular.  Each step
    replaces every row r but the pivot row by (p a_r - a_r[j] a_j) / prev,
    p the pivot and prev the one before, an exact division.  Rows swap only
    at a zero pivot, so until then step j's pivot is the leading principal
    minor Delta_{j+1}(C) and prev is Delta_j(C): bad is (j, Delta_{j+1},
    Delta_j) at the first minor not > 0, None when C is positive definite
    (Sylvester's criterion)."""
    n = len(c)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(c)]
    prev, bad = 1, None
    for col in range(n):
        if bad is None and not a[col][col] > 0:
            bad = (col, a[col][col], prev)
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None, 0, bad
        a[col], a[piv] = a[piv], a[col]
        top, p = a[col], a[col][col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], top)]
        prev = p
    return [row[n:] for row in a], prev, bad


def _round(num: int, den: int) -> float:
    """num/den correctly rounded, or the infinity of its sign beyond float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


@dataclass(frozen=True)
class DenseVector:
    """Immutable dense vector over floats or exact rationals."""

    entries: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) < 1:
            raise DimensionMismatchError("vector dimension must be >= 1")

    @classmethod
    def from_entries(cls, values: Sequence) -> "DenseVector":
        entries = tuple(values)
        _check_finite(entries)
        return cls(entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def dot(self, other: "DenseVector"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dot of dims {self.dim} and {other.dim}"
            )
        return left_sum(map(mul, self.entries, other.entries))


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable row-major dense matrix over floats or exact rationals."""

    rows: int
    cols: int
    data: tuple  # tuple of row tuples
    # cleared_rows(data) once asked for; not part of equality or repr.
    _cleared: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatchError("matrix dimensions must be >= 1")
        if len(self.data) != self.rows or set(map(len, self.data)) != {self.cols}:
            raise DimensionMismatchError("matrix data does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "DenseMatrix":
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatchError("matrix must be non-empty")
        for row in data:
            _check_finite(row)
        return cls(len(data), len(data[0]), data)

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        data = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        return cls(n, n, data)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.cols, self.rows, transpose_rows(self.data))

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"matmul of {self.rows}x{self.cols} and "
                f"{other.rows}x{other.cols}"
            )
        return DenseMatrix(self.rows, other.cols, matmul_rows(self.data, other.data))

    def matvec(self, v: DenseVector) -> DenseVector:
        if self.cols != v.dim:
            raise DimensionMismatchError(
                f"matvec of {self.rows}x{self.cols} and dim {v.dim}"
            )
        x = v.entries
        return DenseVector(tuple([left_sum(map(mul, row, x)) for row in self.data]))

    def scale(self, c) -> "DenseMatrix":
        return DenseMatrix(self.rows, self.cols, scale_rows(c, self.data))

    def is_exact(self) -> bool:
        """True when every entry is an exact scalar.  A float first entry
        answers at once; bools and int or Fraction subclasses go one by one."""
        if type(self.data[0][0]) is float:
            return False
        if set(map(type, chain.from_iterable(self.data))) <= _EXACT_TYPES:
            return True
        return all(map(is_exact_scalar, chain.from_iterable(self.data)))

    def cleared_rows(self) -> tuple[tuple, int]:
        """`cleared_rows` of the matrix's rows, made on the first call
        and kept, so each matrix is cleared at most once."""
        got = self._cleared
        if got is None:
            got = cleared_rows(self.data)
            object.__setattr__(self, "_cleared", got)
        return got


def _check_len(length: int) -> None:
    if length > MAX_TENSOR_LEN:
        raise SizeLimitError(
            f"tensor of length {length} exceeds cap {MAX_TENSOR_LEN}"
        )


def _kron_entries(a: tuple, b: tuple) -> tuple:
    """Entries of the Kronecker product of two vectors: a[i]*b[j] at
    i*len(b)+j."""
    return tuple(x * y for x in a for y in b)


def _power_entries(v: tuple, p: int) -> tuple:
    out = (1,)
    for _ in range(p):
        out = _kron_entries(out, v)
    return out


def kron_power(v: DenseVector, p: int) -> DenseVector:
    """p-fold Kronecker power of a vector; the 0th power is [1]."""
    if p < 0:
        raise DomainError(f"Kronecker power must be >= 0, got {p}")
    _check_len(v.dim**p)
    return DenseVector(_power_entries(v.entries, p))


def colwise_kron_power(a: DenseMatrix, q: MultiIndex | Iterable[int]) -> DenseVector:
    """Kronecker product of column powers: column j of `a` enters q_j times,
    columns in increasing order.  The zero index gives [1]."""
    q = MultiIndex.of(q)
    if q.arity != a.cols:
        raise DimensionMismatchError(
            f"index arity {q.arity} does not match column count {a.cols}"
        )
    _check_len(a.rows ** q.degree())
    return DenseVector(_colwise_entries(a.data, q.parts))


def _colwise_entries(rows: tuple, parts: tuple) -> tuple:
    out = (1,)
    for j, power in enumerate(parts):
        if power:
            column = tuple(row[j] for row in rows)
            out = _kron_entries(out, _power_entries(column, power))
    return out


def invert_matrix(m: DenseMatrix) -> DenseMatrix:
    """Exact inverse of a matrix of int/Fraction entries, one Fraction per
    entry (`_inverse`).  Raises SingularMatrixError.  Float matrices raise
    DomainError: a float inverse is read only through a covariance."""
    if m.rows != m.cols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    if not m.is_exact():
        raise DomainError("invert_matrix requires exact rational entries")
    return _inverse(m, exact=True, definite=False)


def _inverse(m: DenseMatrix, exact: bool, definite: bool) -> DenseMatrix:
    """m^-1 = d N / D for m = C/d its cleared rows and C^-1 = N/D: Fractions
    if exact, else each entry rounded once, C read from its lower triangle.
    Refusals come in the order `spd_factorize` states; definite asks for
    the test of the leading minors, which a float m always gets."""
    n = m.rows
    c, d = m.cleared_rows()
    if not exact:
        c = tuple(c[i][:i] + tuple([row[i] for row in c[i:]]) for i in range(n))
    num, den, bad = _eliminate(c)
    ratio = Fraction if exact else _round
    inv = num and tuple(tuple([ratio(d * v, den) for v in row]) for row in num)
    if not exact:
        size = math.inf
        if inv:
            size = n * _EPS * max(map(abs, chain.from_iterable(m.data)))
            size *= max(map(abs, chain.from_iterable(inv)))
        if not size < 1:
            raise NotPositiveDefiniteError(
                f"covariance is singular to working precision: "
                f"n*eps*max|S|*max|S^-1| = {size:.3g} >= 1"
            )
    if bad and definite:
        j, minor, prev = bad
        raise NotPositiveDefiniteError(f"non-positive pivot {ratio(minor, d * prev)!r} at index {j}")
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return DenseMatrix(n, n, inv)


class SpdMatrix:
    """A checked covariance and its inverse: `H_k(x; S)` reads S only
    through S^-1.

    `spd_factorize` builds one that it has certified positive definite;
    `covariance` also builds exact ones that are only symmetric and
    invertible, so the name says more than an exact instance promises.
    """

    __slots__ = ("matrix", "_inverse")

    def __init__(self, matrix: DenseMatrix, inverse: DenseMatrix):
        self.matrix = matrix
        self._inverse = inverse

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def inverse(self) -> DenseMatrix:
        return self._inverse

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim})"


def spd_factorize(s: DenseMatrix) -> SpdMatrix:
    """Validate symmetry, certify positive definiteness and invert, by one
    `_eliminate` on the cleared rows of S.

    Every leading principal minor must be > 0 (Sylvester's criterion); at
    the first that is not, the message gives the L*D*L^T pivot
    Delta_{j+1}(S) / Delta_j(S).  A float S is read from its lower triangle,
    so S^-1 is correctly rounded and exactly symmetric.  Before its pivots,
    a float S is refused as singular to working precision when it is
    singular, an entry of S^-1 is beyond float range, or
    n * eps * max|S| * max|S^-1| >= 1 (eps = 2^-52), which scaling S does
    not change.
    """
    if s.rows != s.cols:
        raise DimensionMismatchError("SPD input must be square")
    exact = s.is_exact()
    check_symmetric_rows(s.data, exact)
    return SpdMatrix(s, _inverse(s, exact, definite=True))


def covariance(m: DenseMatrix) -> SpdMatrix:
    """The one rule for a covariance read from outside input.

    A float matrix must be symmetric positive definite (`spd_factorize`).
    An exact matrix need only be symmetric and invertible: `H_k(x; S)`
    reads S only through S^-1, so the exact algebra holds for an indefinite
    S too.  Raises NotSymmetricError, NotPositiveDefiniteError or
    SingularMatrixError.
    """
    if not m.is_exact():
        return spd_factorize(m)
    return exact_covariance(m)


def exact_covariance(m: DenseMatrix) -> SpdMatrix:
    """`covariance` of a matrix that the caller has tested exact."""
    if m.rows != m.cols:
        raise DimensionMismatchError("symmetry check on a non-square matrix")
    check_symmetric_rows(m.data, True)
    return SpdMatrix(m, _inverse(m, exact=True, definite=False))
