"""Exact sparse multivariate polynomials over rationals, and the
brute-force symbolic oracle built on them.

The oracle side constructs Hermite polynomials purely by symbolic
differentiation of the Gaussian exponent and compares them, as exact
polynomials, against the coefficient machinery of the main modules.  It
never shares an evaluation path with the numeric recurrences it checks:
the left side is built by differentiation, never by the coefficient
recurrence in `coeffs`, and nothing is imported from `hermite`.  The only
production code it calls is `coeffs.expand_from_map` (with
`transformed_map_from_inverses`) for T[k,q] on the right side, and the
exact matrix inverse.

All building, substituting and comparing runs on integer coefficients.
For an exponent matrix B = C/d, with d the lcm of the entry denominators
and C an integer matrix, the differentiation recursion

    H_0 = 1,   H_{k+e_i}(y) = (B y)_i H_k(y) - d_i H_k(y)

multiplied through by d^(|k|+1) gives p_k = d^|k| H_k with

    p_0 = 1,   p_{k+e_i} = (C y)_i p_k - d * d_i p_k,

so every p_k has integer coefficients.  The left side H_k(Lambda^T x;
Sigma) uses B = Sigma^-1 = C/d.  With Lambda^T = L/e, a monomial y^a of
p_k becomes (L x)^a / e^|a|, and since |a| <= |k|,

    (d e)^|k| H_k(Lambda^T x; Sigma) = sum_a c_a e^(|k|-|a|) (L x)^a

is an integer polynomial.  The products (L x)^a are built once per
monomial prefix (a_0..a_j), each from its shorter prefix and one cached
power of a row form.  The right side uses Upsilon^-1 = G/f, so
f^|q| H_q(x; Upsilon) is integer; with w_q = T[k,q] / f^|q| and D the lcm
of the denominators of the w_q,

    D sum_q T[k,q] H_q(x; Upsilon) = sum_q (D w_q) f^|q| H_q(x; Upsilon)

is accumulated into one integer polynomial.  Both sides are brought to
the common denominator lcm((d e)^|k|, D), and the identity holds exactly
when the integer difference is zero.  `Fraction` coefficients are made
only for the returned `lhs`, `rhs` and `diff`; each is reduced over its
polynomial's denominator, so they equal a term-by-term rational build.
Matrices are cleared to (C, d) by `tensorlin.cleared`, the helper that
the exact inverse and the `coeffs` sweep use too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from . import coeffs
from .errors import (
    DimensionMismatchError,
    DomainError,
    SizeLimitError,
)
from .multiindex import MultiIndex
from .tensorlin import DenseMatrix, check_symmetric, cleared, invert_matrix

# Symbolic construction above this total degree is rejected.
MAX_SYMBOLIC_DEGREE = 8

# Full oracle comparisons are capped lower; each one expands a whole table.
MAX_ORACLE_DEGREE = 6


def as_rational(value) -> Fraction:
    """Coerce int/Fraction/"p/q" strings to Fraction; floats are refused."""
    if isinstance(value, bool):
        raise DomainError(f"not a rational scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational scalar: {value!r}") from exc
    raise DomainError(f"not an exact rational scalar: {value!r}")


def rational_matrix(rows: Iterable[Iterable]) -> DenseMatrix:
    """Build an exact-rational matrix, coercing entries via as_rational."""
    return DenseMatrix.from_rows(
        [[as_rational(v) for v in row] for row in rows]
    )


# Coefficient dicts {monomial: coefficient} shared by MPoly (Fraction
# coefficients) and the oracle (int coefficients).  Exact zeros are never
# stored.


def _mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _add_into(out: dict, terms: dict, scale=1) -> None:
    """out += scale * terms, in place."""
    for mono, c in terms.items():
        s = out.get(mono, 0) + scale * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)


def _derivative_terms(terms: dict, i: int) -> dict:
    # Lowering coordinate i is injective on monomials with mono[i] > 0.
    return {
        mono[:i] + (mono[i] - 1,) + mono[i + 1 :]: mono[i] * c
        for mono, c in terms.items()
        if mono[i]
    }


def _linear_forms(rows, arity: int) -> list[dict]:
    """Row r of `rows` as the linear form sum_j rows[r][j] x_j."""
    return [
        {
            tuple(1 if c == j else 0 for c in range(arity)): v
            for j, v in enumerate(row)
            if v
        }
        for row in rows
    ]


def _compose_terms(terms: dict, forms: list[dict], arity: int) -> dict:
    """Substitute variable r by the linear form forms[r] (in `arity` new
    variables).  Each product of powers is built once per monomial prefix."""
    one = {(0,) * arity: 1}
    powers = [[one] for _ in forms]
    prefix: dict[tuple, dict] = {}
    out: dict = {}
    for mono, c in terms.items():
        prod = one
        for j in range(1, len(mono) + 1):
            key = mono[:j]
            got = prefix.get(key)
            if got is None:
                e = mono[j - 1]
                if e:
                    pw = powers[j - 1]
                    while len(pw) <= e:
                        pw.append(_mul_terms(pw[-1], forms[j - 1]))
                    got = _mul_terms(prod, pw[e])
                else:
                    got = prod
                prefix[key] = got
            prod = got
        _add_into(out, prod, c)
    return out


def _over(arity: int, terms: dict, den: int) -> "MPoly":
    """The MPoly terms/den, for integer terms."""
    res = MPoly(arity)
    res.terms = {mono: Fraction(c, den) for mono, c in terms.items()}
    return res


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

    def is_zero(self) -> bool:
        return not self.terms

    def _check_arity(self, other: "MPoly") -> None:
        if self.arity != other.arity:
            raise DimensionMismatchError(
                f"arity mismatch {self.arity} vs {other.arity}"
            )

    def _plus(self, other: "MPoly", scale: int) -> "MPoly":
        self._check_arity(other)
        res = MPoly(self.arity)
        res.terms = dict(self.terms)
        _add_into(res.terms, other.terms, scale)
        return res

    def add(self, other: "MPoly") -> "MPoly":
        return self._plus(other, 1)

    def sub(self, other: "MPoly") -> "MPoly":
        return self._plus(other, -1)

    def mul(self, other: "MPoly") -> "MPoly":
        self._check_arity(other)
        res = MPoly(self.arity)
        res.terms = _mul_terms(self.terms, other.terms)
        return res

    def compose_linear(self, lin: DenseMatrix) -> "MPoly":
        """Substitute each variable y_j by the linear form given by row j
        of `lin`; the result is a polynomial in lin.cols new variables."""
        if lin.rows != self.arity:
            raise DimensionMismatchError(
                f"substitution matrix has {lin.rows} rows, arity is {self.arity}"
            )
        forms = _linear_forms(
            [[as_rational(v) for v in row] for row in lin.data], lin.cols
        )
        res = MPoly(lin.cols)
        res.terms = _compose_terms(self.terms, forms, lin.cols)
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
    """Hermite polynomials of one exact symmetric exponent matrix b = C/d,
    built by the differentiation recursion p_{k+e_i} = (b x)_i p_k - d_i p_k
    starting from 1, with shared sub-indices cached.  The cache holds the
    integer polynomials d^|k| p_k (see the module docstring).

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
        rows, self._den = cleared(b)
        self._rows = _linear_forms(rows.data, n)
        self._memo: dict[tuple, dict] = {(0,) * n: {(0,) * n: 1}}

    def poly(self, k: MultiIndex | Iterable[int]) -> MPoly:
        terms, den = self.scaled_terms(k)
        return _over(self.arity, terms, den)

    def scaled_terms(self, k: MultiIndex | Iterable[int]) -> tuple[dict, int]:
        """(terms, den) with p_k = terms / den: terms has int coefficients
        and den = d^|k|.  The dict is the cached one; do not mutate it."""
        k = MultiIndex.of(k)
        if k.arity != self.arity:
            raise DimensionMismatchError(
                f"index arity {k.arity} does not match matrix dim {self.arity}"
            )
        if k.degree() > MAX_SYMBOLIC_DEGREE:
            raise SizeLimitError(
                f"symbolic degree {k.degree()} exceeds cap {MAX_SYMBOLIC_DEGREE}"
            )
        return self._raise(k.parts), self._den ** k.degree()

    def _raise(self, parts: tuple) -> dict:
        got = self._memo.get(parts)
        if got is not None:
            return got
        i = len(parts) - 1
        while parts[i] == 0:
            i -= 1
        lowered = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
        prev = self._raise(lowered)
        res = _mul_terms(self._rows[i], prev)
        _add_into(res, _derivative_terms(prev, i), -self._den)
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
    polynomials as the basis.  Both are built and compared with integer
    coefficients over one denominator each (see the module docstring).
    Inputs must be exact rationals; the covariances must be symmetric and
    invertible (positive definiteness is not needed for the algebra).
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

    degree = k.degree()
    p, p_den = SymbolicHermiteFamily(sigma_inv).scaled_terms(k)
    lam_t, e = cleared(lam.transpose())
    lhs_terms = _compose_terms(
        {a: c * e ** (degree - sum(a)) for a, c in p.items()},
        _linear_forms(lam_t.data, m),
        m,
    )
    lhs_den = p_den * e**degree

    tmap = coeffs.transformed_map_from_inverses(lam, sigma_inv, upsilon)
    basis = SymbolicHermiteFamily(upsilon_inv)
    weighted = []
    for term in coeffs.expand_from_map(k, tmap, variant):
        h, h_den = basis.scaled_terms(term.q)
        c = term.coeff
        weighted.append((Fraction(c.numerator, c.denominator * h_den), h))
    rhs_den = math.lcm(*(w.denominator for w, _ in weighted))
    rhs_terms: dict = {}
    for w, h in weighted:
        _add_into(rhs_terms, h, w.numerator * (rhs_den // w.denominator))

    den = math.lcm(lhs_den, rhs_den)
    diff_terms = {mono: c * (den // lhs_den) for mono, c in lhs_terms.items()}
    _add_into(diff_terms, rhs_terms, -(den // rhs_den))
    return OracleComparison(
        equal=not diff_terms,
        lhs=_over(m, lhs_terms, lhs_den),
        rhs=_over(m, rhs_terms, rhs_den),
        diff=_over(m, diff_terms, den),
    )
