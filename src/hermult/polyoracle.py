"""Exact sparse multivariate polynomials over rationals, and the
brute-force symbolic oracle built on them.

The oracle side constructs Hermite polynomials purely by symbolic
differentiation of the Gaussian exponent and compares them, as exact
polynomials, against the coefficient machinery of the main modules.  It
never shares an evaluation path with the numeric recurrences it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import coeffs
from .errors import (
    DimensionMismatchError,
    DomainError,
    SizeLimitError,
)
from .multiindex import MultiIndex
from .tensorlin import DenseMatrix, check_symmetric, invert_matrix

# Symbolic construction above this total degree is rejected.
MAX_SYMBOLIC_DEGREE = 8

# Full oracle comparisons are capped lower; each one expands a whole table.
MAX_ORACLE_DEGREE = 5


def as_rational(value) -> Fraction:
    """Coerce int/Fraction/"p/q" strings to Fraction; floats are refused."""
    if isinstance(value, bool):
        raise DomainError(f"not a rational scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise DomainError(f"not an exact rational scalar: {value!r}")


def rational_matrix(rows: Iterable[Iterable]) -> DenseMatrix:
    """Build an exact-rational matrix, coercing entries via as_rational."""
    return DenseMatrix.from_rows(
        [[as_rational(v) for v in row] for row in rows]
    )


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map exponent tuples (one natural per variable) to nonzero
    Fractions; the zero polynomial has no terms.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple, Fraction] | None = None):
        if arity < 1:
            raise DimensionMismatchError("polynomial arity must be >= 1")
        self.arity = arity
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                mono = tuple(mono)
                if len(mono) != arity:
                    raise DimensionMismatchError(
                        f"monomial {mono} does not have arity {arity}"
                    )
                c = as_rational(c)
                if c:
                    self.terms[mono] = c

    @classmethod
    def zero(cls, arity: int) -> "MPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, c) -> "MPoly":
        return cls(arity, {(0,) * arity: as_rational(c)})

    @classmethod
    def variable(cls, arity: int, i: int) -> "MPoly":
        if not 0 <= i < arity:
            raise DimensionMismatchError(
                f"variable index {i} out of range for arity {arity}"
            )
        mono = tuple(1 if j == i else 0 for j in range(arity))
        return cls(arity, {mono: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_arity(self, other: "MPoly") -> None:
        if self.arity != other.arity:
            raise DimensionMismatchError(
                f"arity mismatch {self.arity} vs {other.arity}"
            )

    def add(self, other: "MPoly") -> "MPoly":
        self._check_arity(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = MPoly(self.arity)
        res.terms = out
        return res

    def neg(self) -> "MPoly":
        res = MPoly(self.arity)
        res.terms = {mono: -c for mono, c in self.terms.items()}
        return res

    def sub(self, other: "MPoly") -> "MPoly":
        return self.add(other.neg())

    def scale(self, c) -> "MPoly":
        c = as_rational(c)
        res = MPoly(self.arity)
        if c:
            res.terms = {mono: c * v for mono, v in self.terms.items()}
        return res

    def mul(self, other: "MPoly") -> "MPoly":
        self._check_arity(other)
        out: dict[tuple, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(a + b for a, b in zip(ma, mb))
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        res = MPoly(self.arity)
        res.terms = out
        return res

    def derivative(self, i: int) -> "MPoly":
        """Exact partial derivative in coordinate i (0-based)."""
        if not 0 <= i < self.arity:
            raise DimensionMismatchError(
                f"coordinate {i} out of range for arity {self.arity}"
            )
        out: dict[tuple, Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e:
                lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
                out[lowered] = out.get(lowered, Fraction(0)) + e * c
        res = MPoly(self.arity)
        res.terms = {m: c for m, c in out.items() if c}
        return res

    def compose_linear(self, lin: DenseMatrix) -> "MPoly":
        """Substitute each variable y_j by the linear form given by row j
        of `lin`; the result is a polynomial in lin.cols new variables."""
        if lin.rows != self.arity:
            raise DimensionMismatchError(
                f"substitution matrix has {lin.rows} rows, arity is {self.arity}"
            )
        m = lin.cols
        row_forms = [
            MPoly(m, {
                tuple(1 if c == j else 0 for c in range(m)): as_rational(lin.data[r][j])
                for j in range(m)
                if lin.data[r][j]
            })
            for r in range(lin.rows)
        ]
        pow_cache: dict[tuple[int, int], MPoly] = {}

        def power(r: int, e: int) -> MPoly:
            key = (r, e)
            got = pow_cache.get(key)
            if got is None:
                got = MPoly.constant(m, 1) if e == 0 else power(r, e - 1).mul(row_forms[r])
                pow_cache[key] = got
            return got

        res = MPoly.zero(m)
        for mono, c in self.terms.items():
            term = MPoly.constant(m, c)
            for r, e in enumerate(mono):
                if e:
                    term = term.mul(power(r, e))
            res = res.add(term)
        return res

    def evaluate(self, xs: Iterable) -> Fraction:
        xs = [as_rational(v) for v in xs]
        if len(xs) != self.arity:
            raise DimensionMismatchError(
                f"point of dim {len(xs)} for arity {self.arity}"
            )
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for x, e in zip(xs, mono):
                if e:
                    v = v * x**e
            total += v
        return total

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in canonical monomial order."""
        return sorted(
            self.terms.items(), key=lambda kv: MultiIndex(kv[0]).sort_key()
        )

    def to_json_obj(self) -> list[dict]:
        return [
            {"mono": list(mono), "coeff": str(c)}
            for mono, c in self.sorted_terms()
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "MPoly(0)"
        bits = []
        for mono, c in self.sorted_terms():
            factors = [str(c)]
            factors += [
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(mono)
                if e
            ]
            bits.append("*".join(factors))
        return "MPoly(" + " + ".join(bits) + ")"


class SymbolicHermiteFamily:
    """Hermite polynomials of one exact symmetric exponent matrix, built by
    the differentiation recursion p_{k+e_i} = (b x)_i p_k - d_i p_k starting
    from 1, with shared sub-indices cached.

    Nothing here depends on the numeric recurrence used by the evaluators.
    """

    def __init__(self, b: DenseMatrix):
        if b.rows != b.cols:
            raise DimensionMismatchError("exponent matrix must be square")
        if not b.is_exact():
            raise DomainError(
                "symbolic construction requires exact rational entries"
            )
        check_symmetric(b)
        n = b.rows
        self.arity = n
        self._rows = [
            MPoly(n, {
                tuple(1 if c == j else 0 for c in range(n)): as_rational(b.data[r][j])
                for j in range(n)
                if b.data[r][j]
            })
            for r in range(n)
        ]
        self._memo: dict[tuple, MPoly] = {(0,) * n: MPoly.constant(n, 1)}

    def poly(self, k: MultiIndex | Iterable[int]) -> MPoly:
        k = MultiIndex.of(k)
        if k.arity != self.arity:
            raise DimensionMismatchError(
                f"index arity {k.arity} does not match matrix dim {self.arity}"
            )
        if k.degree() > MAX_SYMBOLIC_DEGREE:
            raise SizeLimitError(
                f"symbolic degree {k.degree()} exceeds cap {MAX_SYMBOLIC_DEGREE}"
            )
        return self._raise(k.parts)

    def _raise(self, parts: tuple) -> MPoly:
        got = self._memo.get(parts)
        if got is not None:
            return got
        i = len(parts) - 1
        while parts[i] == 0:
            i -= 1
        lowered = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
        prev = self._raise(lowered)
        res = self._rows[i].mul(prev).sub(prev.derivative(i))
        self._memo[parts] = res
        return res


def hermite_symbolic(k: MultiIndex | Iterable[int], b: DenseMatrix) -> MPoly:
    """The Hermite polynomial of exponent matrix b as an exact polynomial."""
    return SymbolicHermiteFamily(b).poly(k)


@dataclass(frozen=True)
class OracleComparison:
    """Exact comparison of one expansion identity instance."""

    equal: bool
    lhs: MPoly
    rhs: MPoly
    diff: MPoly


def oracle_compare(
    k: MultiIndex | Iterable[int],
    lam: DenseMatrix,
    sigma: DenseMatrix,
    upsilon: DenseMatrix,
    variant: coeffs.CoeffVariant = coeffs.CoeffVariant.SYMMETRIZED,
) -> OracleComparison:
    """Expand both sides of the multiplication identity as exact
    polynomials and compare them.

    The left side is the symbolically differentiated Hermite polynomial
    with the mapped argument substituted in; the right side rebuilds the
    expansion from the production coefficient code, with symbolic Hermite
    polynomials as the basis.  Inputs must be exact rationals; the
    covariances must be symmetric and invertible (positive definiteness is
    not needed for the algebra).
    """
    k = MultiIndex.of(k)
    if k.degree() > MAX_ORACLE_DEGREE:
        raise SizeLimitError(
            f"oracle degree {k.degree()} exceeds cap {MAX_ORACLE_DEGREE}"
        )
    for mat in (lam, sigma, upsilon):
        if not mat.is_exact():
            raise DomainError("oracle comparison requires exact rational inputs")
    check_symmetric(sigma)
    check_symmetric(upsilon)
    n, m = sigma.rows, upsilon.rows
    if lam.rows != m or lam.cols != n or k.arity != n:
        raise DimensionMismatchError(
            f"map shape {lam.rows}x{lam.cols} inconsistent with dims "
            f"n={n}, m={m}, arity {k.arity}"
        )
    sigma_inv = invert_matrix(sigma)
    upsilon_inv = invert_matrix(upsilon)

    lhs = hermite_symbolic(k, sigma_inv).compose_linear(lam.transpose())

    tmap = coeffs.transformed_map_from_inverses(lam, sigma_inv, upsilon)
    rhs = MPoly.zero(m)
    basis = SymbolicHermiteFamily(upsilon_inv)
    for term in coeffs.expand_from_map(k, tmap, variant):
        rhs = rhs.add(basis.poly(term.q).scale(term.coeff))
    diff = lhs.sub(rhs)
    return OracleComparison(equal=diff.is_zero(), lhs=lhs, rhs=rhs, diff=diff)
