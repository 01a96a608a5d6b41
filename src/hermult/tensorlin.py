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
not depend on the interpreter.  `cleared_rows` writes exact rows as C/d,
C int rows; `inverse_rows` is exact only and fraction-free on C.  A
`DenseMatrix` keeps the (C, d) of its rows once asked for
(`DenseMatrix.cleared_rows`), so each exact matrix is cleared at most once:
its inverse, the exact (A, M) built from it and the oracle's polynomials
all read the same pair.

Each product kernel has one body for both fields, so no entry changes
type and a power of degree 0 is the int [1].  Exact work that a workload
repeats runs on int rows: `inverse_rows` for every exact inverse, and in
the callers every exact (A, M) build and coefficient sweep of `coeffs`,
the oracle's polynomials, and the kron suite's exact half, which `verify`
runs on integer numerators.

A covariance is an `SpdMatrix`: the checked matrix and its inverse.
`covariance` holds the one rule for outside input.  A float covariance
must be positive definite and is inverted through its L*D*L^T
factorization (`spd_factorize`), and must not be singular to working
precision; an exact one need only be symmetric and invertible.
`exact_covariance` applies that rule to a matrix its caller has already
tested exact, so each input is tested once; `invert_matrix` tests its
input and wraps the same row helpers.

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

# Relative symmetry tolerance for float-valued SPD inputs.
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


def check_symmetric_rows(rows: tuple, exact: bool, rtol: float = SPD_SYMMETRY_RTOL):
    """Raise NotSymmetricError unless square rows are symmetric: exactly if
    exact, else by |m_ij - m_ji| <= rtol * max_kl |m_kl|, which scaling the
    rows does not change."""
    tol = 0 if exact else rtol * max(abs(v) for row in rows for v in row)
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            a, b = row[j], rows[j][i]
            if a != b and (exact or not abs(a - b) <= tol):
                raise NotSymmetricError(
                    f"entries ({i},{j}) and ({j},{i}) differ: {a} vs {b}"
                )


def inverse_rows(c: tuple, d: int) -> tuple:
    """`invert_matrix` of the exact square matrix C/d, given as its
    `cleared_rows` (C, d)."""
    n = len(c)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(c)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        top, p = a[col], a[col][col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], top)]
        prev = p
    return tuple(tuple([Fraction(d * v, prev) for v in row[n:]]) for row in a)


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
        """`cleared_rows` of an exact matrix's rows, made on the first call
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
    """Exact inverse of a matrix of int/Fraction entries, by fraction-free
    Gauss-Jordan elimination (Bareiss).

    With m = C/d, step `col` replaces each row r but the pivot row of
    [C | I] by (p a_r - a_r[col] a_col) / prev, p the pivot and prev the one
    before; the division is exact (Sylvester's identity).  [D I | D C^-1]
    results, so m^-1 = (d/D) (D C^-1), one Fraction per entry.  Any nonzero
    pivot will do.  Float matrices raise DomainError: the float path
    inverts covariances in `spd_factorize`.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    if not m.is_exact():
        raise DomainError("invert_matrix requires exact rational entries")
    return DenseMatrix(m.rows, m.rows, inverse_rows(*m.cleared_rows()))


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
    """Validate symmetry, certify positive definiteness by the pivots of the
    square-root-free L*D*L^T factorization (all d_i > 0), and invert.

    The factorization stays inside the scalar field: exact for rational
    entries, ordinary doubles for floats.  The inverse solves L D L^T X = I
    by one forward pass, a scaling by D and one back pass, run on every
    column of X at once; each inner sum is a loop folding as `left_sum`
    does.  Rounding can keep every pivot of a singular float matrix
    positive, so a float S is also refused unless
    n * eps * max|S| * max|S^-1| < 1 (eps = 2^-52), a test that scaling S
    does not change.
    """
    if s.rows != s.cols:
        raise DimensionMismatchError("SPD input must be square")
    exact = s.is_exact()
    check_symmetric_rows(s.data, exact)
    n = s.rows
    if exact:
        a = [[Fraction(v) for v in row] for row in s.data]
    else:
        a = [[float(v) for v in row] for row in s.data]
    cols = range(n)
    low = [[1 if i == c else 0 for c in cols] for i in cols]
    diag = [0] * n
    for j in cols:
        lj = low[j]
        for i in range(j, n):
            li = low[i]
            acc = 0
            for k in range(j):
                acc = acc + li[k] * lj[k] * diag[k]
            v = a[i][j] - acc
            if i > j:
                li[j] = v / diag[j]
            elif v > 0:
                diag[j] = v
            else:
                raise NotPositiveDefiniteError(f"non-positive pivot {v!r} at index {j}")
    x = [[1 if i == c else 0 for c in cols] for i in cols]
    for i in cols:
        li, xi = low[i], x[i]
        for c in cols:
            acc = 0
            for j in range(i):
                acc = acc + li[j] * x[j][c]
            xi[c] = xi[c] - acc
    x = [[v / d for v in row] for row, d in zip(x, diag)]
    for i in range(n - 1, -1, -1):
        xi = x[i]
        for c in cols:
            acc = 0
            for j in range(i + 1, n):
                acc = acc + low[j][i] * x[j][c]
            xi[c] = xi[c] - acc
    if not exact:
        size = n * _EPS * max(map(abs, chain.from_iterable(a)))
        size *= max(map(abs, chain.from_iterable(x)))
        if not size < 1:
            raise NotPositiveDefiniteError(
                f"covariance is singular to working precision: "
                f"n*eps*max|S|*max|S^-1| = {size:.3g} >= 1"
            )
    return SpdMatrix(s, DenseMatrix(n, n, tuple(tuple(row) for row in x)))


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
    return SpdMatrix(m, DenseMatrix(m.rows, m.rows, inverse_rows(*m.cleared_rows())))
