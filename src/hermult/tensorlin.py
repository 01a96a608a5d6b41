"""Dense vectors/matrices, Kronecker powers, and covariances.

Everything here is written once over duck-typed scalars and works for two
fields: 64-bit floats and exact rationals (int / fractions.Fraction).  The
int scalars 0 and 1 embed in both fields, so identity matrices and empty
products stay field-agnostic.  `cleared` writes an exact matrix as C/d
with C an int matrix; `invert_matrix` is exact only and fraction-free on
C.  Kronecker powers (`kron_power` is `colwise_kron_power` of a
one-column matrix) and dot products of operands whose entries are all
Fractions run the same products on the cleared integers and divide once:
by d^p for each entry of a p-fold power, by the product of the two d's
for a dot.  Every other operand (float, int, or int and Fraction mixed)
runs the plain products, so no entry changes type; a power of degree 0 is
the int [1].

A covariance is an `SpdMatrix`: the checked matrix and its inverse.
`covariance` holds the one rule for outside input.  A float covariance
must be positive definite and is inverted through its L*D*L^T
factorization (`spd_factorize`); an exact one need only be symmetric and
invertible (`invert_matrix`).

Flat tensor addressing: a 0-based slot tuple (j_1, ..., j_K) in [0, n)^K
maps to flat index sum_p j_p * n^(K-1-p), which is exactly the layout
produced by iterated `_kron_entries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def is_exact_scalar(v) -> bool:
    """True for scalars of the exact rational field (int or Fraction)."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _check_finite(values: Iterable) -> None:
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"non-finite entry {v!r}")


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
        if all_fractions(self.entries, other.entries):
            a, da = _cleared_entries(self.entries)
            b, db = _cleared_entries(other.entries)
            return Fraction(sum(x * y for x, y in zip(a, b)), da * db)
        return sum(a * b for a, b in zip(self.entries, other.entries))


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable row-major dense matrix over floats or exact rationals."""

    rows: int
    cols: int
    data: tuple  # tuple of row tuples

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatchError("matrix dimensions must be >= 1")
        if len(self.data) != self.rows or any(
            len(row) != self.cols for row in self.data
        ):
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
        data = tuple(
            tuple(self.data[i][j] for i in range(self.rows))
            for j in range(self.cols)
        )
        return DenseMatrix(self.cols, self.rows, data)

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"matmul of {self.rows}x{self.cols} and "
                f"{other.rows}x{other.cols}"
            )
        data = tuple(
            tuple(
                sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return DenseMatrix(self.rows, other.cols, data)

    def matvec(self, v: DenseVector) -> DenseVector:
        if self.cols != v.dim:
            raise DimensionMismatchError(
                f"matvec of {self.rows}x{self.cols} and dim {v.dim}"
            )
        return DenseVector(
            tuple(
                sum(row[k] * v.entries[k] for k in range(self.cols))
                for row in self.data
            )
        )

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        self._same_shape(other)
        data = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        )
        return DenseMatrix(self.rows, self.cols, data)

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        self._same_shape(other)
        data = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        )
        return DenseMatrix(self.rows, self.cols, data)

    def scale(self, c) -> "DenseMatrix":
        data = tuple(tuple(c * v for v in row) for row in self.data)
        return DenseMatrix(self.rows, self.cols, data)

    def _same_shape(self, other: "DenseMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )

    def is_exact(self) -> bool:
        return all(is_exact_scalar(v) for row in self.data for v in row)

    def to_lists(self) -> list[list]:
        return [list(row) for row in self.data]


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
        c, d = cleared(a)
        den = d**degree
        return DenseVector(
            tuple(Fraction(x, den) for x in _colwise_entries(c.data, q.parts))
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
    d = math.lcm(*[v.denominator for row in mat.data for v in row])
    data = tuple(
        tuple([v.numerator * (d // v.denominator) for v in row]) for row in mat.data
    )
    return DenseMatrix(mat.rows, mat.cols, data), d


def all_fractions(*rows: tuple) -> bool:
    """True when every entry of the given rows is a Fraction: the operands
    that the exact paths clear to integers."""
    return all(type(v) is Fraction for row in rows for v in row)


def _cleared_entries(entries: tuple) -> tuple[tuple, int]:
    """`cleared` for the entries of a vector: (c, d) with entries = c/d."""
    c, d = cleared(DenseMatrix(1, len(entries), (entries,)))
    return c.data[0], d


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
    n = m.rows
    c, d = cleared(m)
    eye = DenseMatrix.identity(n).data
    a = [list(row + one) for row, one in zip(c.data, eye)]
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
    data = tuple(tuple(Fraction(d * v, prev) for v in row[n:]) for row in a)
    return DenseMatrix(n, n, data)


def check_symmetric(m: DenseMatrix, rtol: float = SPD_SYMMETRY_RTOL) -> None:
    """Raise NotSymmetricError unless m is symmetric.

    Exact-field matrices must be exactly symmetric.  Float matrices are
    checked entrywise against |m_ij - m_ji| <= rtol * max_kl |m_kl|, a
    normwise test that scaling m does not change.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("symmetry check on a non-square matrix")
    exact = m.is_exact()
    tol = 0 if exact else rtol * max(abs(v) for row in m.data for v in row)
    for i in range(m.rows):
        for j in range(i + 1, m.cols):
            a, b = m.data[i][j], m.data[j][i]
            if a != b and (exact or not abs(a - b) <= tol):
                raise NotSymmetricError(
                    f"entries ({i},{j}) and ({j},{i}) differ: {a} vs {b}"
                )


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
    column of X at once.
    """
    if s.rows != s.cols:
        raise DimensionMismatchError("SPD input must be square")
    check_symmetric(s)
    n = s.rows
    exact = s.is_exact()
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
    check_symmetric(m)
    return SpdMatrix(m, invert_matrix(m))
