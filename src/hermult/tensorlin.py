"""Dense vectors/matrices, Kronecker powers, and covariances.

Everything here is written once over duck-typed scalars and works for two
fields: 64-bit floats and exact rationals (int / fractions.Fraction).  The
int scalars 0 and 1 embed in both fields, so identity matrices and empty
products stay field-agnostic.

Each matrix operation is one kernel on plain row tuples (`matmul_rows`,
`transpose_rows`, `cleared_rows`, ...).  The `DenseMatrix` and
`DenseVector` methods check shapes and wrap them; the exact paths of
`coeffs` and `polyoracle` call them on int rows directly.  A product entry
is `sum(map(mul, row, col))`: the operands, order and builtin `sum` of a
plain loop, so float bits do not depend on the kernel.  `cleared_rows`
writes exact rows as C/d with C int rows; `inverse_rows` is exact only and
fraction-free on C.  A `DenseMatrix` keeps the (C, d) of its rows once
asked for (`DenseMatrix.cleared_rows`), so each exact matrix is cleared at
most once: its inverse, the exact (A, M) built from it and the oracle's
polynomials all read the same pair.

One rule covers every exact product.  When every entry of the operands is
a Fraction, matrix and vector products, dot products and Kronecker powers
(`kron_power` is `colwise_kron_power` of a one-column matrix) run the same
products on the cleared integers and make one Fraction per result entry:
over the product of the operands' d's, or over d^p for a p-fold power.
Every other operand (float, int, or int and Fraction mixed) runs the plain
products, so no entry changes type; a power of degree 0 is the int [1].

A covariance is an `SpdMatrix`: the checked matrix and its inverse.
`covariance` holds the one rule for outside input.  A float covariance
must be positive definite and is inverted through its L*D*L^T
factorization (`spd_factorize`), and must not be singular to working
precision; an exact one need only be symmetric and invertible.
`exact_covariance` applies that rule to a matrix its caller has already
tested exact, so each input is tested once; `check_symmetric` and
`invert_matrix` test their input and wrap the same row helpers.

Flat tensor addressing: a 0-based slot tuple (j_1, ..., j_K) in [0, n)^K
maps to flat index sum_p j_p * n^(K-1-p), which is exactly the layout
produced by iterated `_kron_entries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub
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


def all_fractions(*rows: tuple) -> bool:
    """True when every entry of the given rows is a Fraction: the operands
    that the exact paths clear to integers.  The first entry is tested
    before the scan, so a float or int operand costs one test."""
    return type(rows[0][0]) is Fraction and all(
        type(v) is Fraction for row in rows for v in row
    )


def cleared_rows(rows: tuple) -> tuple[tuple, int]:
    """(C, d) with rows = C/d for exact rows: d is the lcm of the entry
    denominators and C holds ints."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    d = math.lcm(*[q for row in ratios for _, q in row])
    return tuple(tuple([p * (d // q) for p, q in row]) for row in ratios), d


def transpose_rows(rows: tuple) -> tuple:
    return tuple(zip(*rows))


def matmul_rows(a: tuple, b: tuple) -> tuple:
    """sum(map(mul, row, col)) for each row of a and column of b, or
    `_fraction_products` when every entry of a and b is a Fraction."""
    cols = tuple(zip(*b))
    if all_fractions(*a, *cols):
        return _fraction_products(a, cols)
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _fraction_products(rows: tuple, cols: tuple) -> tuple:
    """sum(map(mul, row, col)) for each row and column of Fraction operands,
    run on their cleared integers and made one Fraction over the product of
    the two denominators: the value and type of the sum of Fractions."""
    (rows, dr), (cols, dc) = cleared_rows(rows), cleared_rows(cols)
    den = dr * dc
    return tuple(
        tuple([Fraction(sum(map(mul, row, col)), den) for col in cols]) for row in rows
    )


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
    """`check_symmetric` on square rows whose exactness the caller knows."""
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
        a, b = self.entries, other.entries
        if all_fractions(a, b):
            return _fraction_products((a,), (b,))[0][0]
        return sum(map(mul, a, b))


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
        rows, x = self.data, v.entries
        if all_fractions(*rows, x):
            return DenseVector(tuple([r[0] for r in _fraction_products(rows, (x,))]))
        return DenseVector(tuple([sum(map(mul, row, x)) for row in rows]))

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        self._same_shape(other)
        data = entrywise_rows(add, self.data, other.data)
        return DenseMatrix(self.rows, self.cols, data)

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        self._same_shape(other)
        data = entrywise_rows(sub, self.data, other.data)
        return DenseMatrix(self.rows, self.cols, data)

    def scale(self, c) -> "DenseMatrix":
        return DenseMatrix(self.rows, self.cols, scale_rows(c, self.data))

    def _same_shape(self, other: "DenseMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )

    def is_exact(self) -> bool:
        """True when every entry is an exact scalar; bools and subclasses
        of int or Fraction go through `is_exact_scalar` one by one."""
        if set(map(type, chain.from_iterable(self.data))) <= _EXACT_TYPES:
            return True
        return all(map(is_exact_scalar, chain.from_iterable(self.data)))

    def to_lists(self) -> list[list]:
        return [list(row) for row in self.data]

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
    column = DenseMatrix(v.dim, 1, tuple((x,) for x in v.entries))
    return colwise_kron_power(column, (p,))


def colwise_kron_power(a: DenseMatrix, q: MultiIndex | Iterable[int]) -> DenseVector:
    """Kronecker product of column powers: column j of `a` enters q_j times,
    columns in increasing order.  The zero index gives [1]."""
    q = MultiIndex.of(q)
    if q.arity != a.cols:
        raise DimensionMismatchError(
            f"index arity {q.arity} does not match column count {a.cols}"
        )
    degree = q.degree()
    _check_len(a.rows**degree)
    if degree and all_fractions(*a.data):
        c, d = a.cleared_rows()
        den = d**degree
        return DenseVector(
            tuple(Fraction(x, den) for x in _colwise_entries(c, q.parts))
        )
    return DenseVector(_colwise_entries(a.data, q.parts))


def _colwise_entries(rows: tuple, parts: tuple) -> tuple:
    out = (1,)
    for j, power in enumerate(parts):
        if power:
            column = tuple(row[j] for row in rows)
            out = _kron_entries(out, _power_entries(column, power))
    return out


def cleared(mat: DenseMatrix) -> tuple[DenseMatrix, int]:
    """(C, d) with mat = C/d for an exact matrix: d is the lcm of the entry
    denominators and C has int entries."""
    c, d = mat.cleared_rows()
    return DenseMatrix(mat.rows, mat.cols, c), d


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


def check_symmetric(m: DenseMatrix, rtol: float = SPD_SYMMETRY_RTOL) -> None:
    """Raise NotSymmetricError unless m is symmetric.

    Exact-field matrices must be exactly symmetric.  Float matrices are
    checked entrywise against |m_ij - m_ji| <= rtol * max_kl |m_kl|, a
    normwise test that scaling m does not change.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("symmetry check on a non-square matrix")
    check_symmetric_rows(m.data, m.is_exact(), rtol)


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
    column of X at once.  Rounding can keep every pivot of a singular float
    matrix positive, so a float S is also refused unless
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
    low = [[0] * n for _ in range(n)]
    diag = [0] * n
    for j in range(n):
        pivot = a[j][j] - sum(low[j][k] * low[j][k] * diag[k] for k in range(j))
        if not pivot > 0:
            raise NotPositiveDefiniteError(
                f"non-positive pivot {pivot!r} at index {j}"
            )
        diag[j] = pivot
        low[j][j] = 1
        for i in range(j + 1, n):
            v = a[i][j] - sum(low[i][k] * low[j][k] * diag[k] for k in range(j))
            low[i][j] = v / pivot
    cols = range(n)
    x = [[1 if i == c else 0 for c in cols] for i in cols]
    for i in range(n):
        x[i] = [x[i][c] - sum(low[i][j] * x[j][c] for j in range(i)) for c in cols]
    x = [[v / d for v in row] for row, d in zip(x, diag)]
    for i in range(n - 1, -1, -1):
        x[i] = [
            x[i][c] - sum(low[j][i] * x[j][c] for j in range(i + 1, n)) for c in cols
        ]
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
