"""Exact sparse multivariate polynomials over rationals, and the
brute-force symbolic oracle built on them.

The oracle side constructs Hermite polynomials purely by symbolic
differentiation of the Gaussian exponent and compares them, as exact
polynomials, against the coefficient machinery of the main modules.  It
never shares an evaluation path with the numeric recurrences it checks:
the left side is built by differentiation, never by the coefficient
recurrence in `coeffs`, and nothing is imported from `hermite`.  The only
production code it calls is `tensorlin.covariance` for the checked exact
inverses of Sigma and Upsilon, `coeffs.transformed_map` and
`coeffs.expand_from_map` for T[k,q] on the right side, and the
`tensorlin` row kernels.

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

is an integer polynomial.  The right side uses Upsilon^-1 = G/f, so
f^|q| H_q(x; Upsilon) is integer; with w_q = T[k,q] / f^|q|, kept as the
int pair (numerator of T[k,q], its denominator times f^|q|), and D the lcm
of those denominators,

    D sum_q T[k,q] H_q(x; Upsilon) = sum_q (D w_q) f^|q| H_q(x; Upsilon)

is an integer polynomial too.

Both sums have the form sum_a W_a Op^a 1, with Op^a the product of the
Op_i^a_i.  On the right Op_i S = (G x)_i S - f dS/dx_i, as f^|q| H_q =
Op^q 1 by the recursion above; on the left Op_i S = (L x)_i S.  p_k
itself is Op^k 1 with C and d in place of G and f: the one weight 1 on k.
`_nested` sums them in nested (Horner) form over the tree in which the
parent of a is a with its rightmost positive part lowered:
S_a = W_a + sum over the children a + e_j of Op_j S_(a+e_j), and the sum
is S_0.  A node of degree |a| steps a polynomial of degree at most
top - |a|, so the many nodes of high degree step small polynomials,
where building each H_q, or each (L x)^a, on its own steps one of degree
|a| at every node.  Only the keys of W and their ancestors are visited,
so a long chain in many variables costs its length, not the number of
monomials below its degree.  The regrouping needs the Op_i to commute.
Products do; on the right Op_i Op_j - Op_j Op_i = f (G_ij - G_ji), which
is zero because `SymbolicHermiteFamily` refuses an asymmetric matrix.
The arithmetic is exact integer arithmetic, so each side is the same
polynomial as the sum taken term by term.

Both sides are brought to the common denominator lcm((d e)^|k|, D), and
the identity holds exactly when the integer difference is zero, so
`equal` is decided on the integer codes alone.  `Fraction` coefficients
are made only when the returned comparison's `lhs`, `rhs` or `diff` is
first read: each is then built from its int terms and denominator, and
kept.  Each coefficient is reduced over its polynomial's denominator, so
they equal a term-by-term rational build.  Matrices are cleared to (C, d)
by `DenseMatrix.cleared_rows`, which keeps the pair, so Sigma^-1 and Lambda
are cleared once for both the oracle and the (A, M) that `coeffs`
builds, and Upsilon once for its inverse and the map.
`oracle_compare` tests each input for exactness, so that a float one is
refused rather than read by the float rule, and hands Sigma and Upsilon to
`covariance`, which checks symmetry and inverts on the rows.
`coeffs.transformed_map` then checks the Sigma^-1 and Upsilon it reads,
and `SymbolicHermiteFamily` tests its matrix and checks its symmetry on
the rows.

Inside the oracle a monomial x^a is one int, its code: the parts of a as
digits in radix R = coeffs.MAX_EXPANSION_DEGREE + 1, most significant
first.  `SymbolicHermiteFamily.scaled_terms` refuses a degree above the
engine's cap, so no polynomial the oracle builds has a part above it: a
product of monomials is the sum of their codes, part i is code // w_i % R
with w_i = R^(n-1-i), and lowering part i subtracts w_i.  So the parent
of a code in the nested sum is the code less the weight of its lowest
nonzero digit, and every child's code is above its parent's.  Codes are
decoded to exponent tuples only where `MPoly` values are made, so
`MPoly.terms` and everything read from it keep tuple keys; `MPoly.mul`
and `compose_linear` code their operands in a radix they pick from the
operands' parts, and decode their results in it by `_over`.  The codes
are the oracle's own: it does not share the coder of `coeffs`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from . import coeffs
from .errors import (
    DimensionMismatchError,
    DomainError,
    SizeLimitError,
)
from .multiindex import MultiIndex
from .tensorlin import (
    DenseMatrix,
    check_symmetric_rows,
    covariance,
    is_exact_scalar,
    transpose_rows,
)

# A rational string is read by one grammar on every Python, as Fraction's
# own changes between versions: a sign, ASCII digits, then "/digits" or a
# decimal part with an exponent (DECIMAL, by which `eval` reads its floats
# too), whitespace only around it.  Its bounds are checked before
# `Fraction` sees it: Fraction expands a decimal exponent in full, so
# "1e200000" alone would build a 664,000-bit integer.
MAX_RATIONAL_DIGITS = 400
MAX_DECIMAL_EXPONENT = 400
DECIMAL = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?([0-9]+))?"
_RATIONAL = re.compile(rf"\s*(?:[-+]?[0-9]+/[0-9]+|{DECIMAL})\s*")


def as_rational(value) -> Fraction:
    """Coerce int/Fraction/"p/q" strings to Fraction; floats and bools are
    refused."""
    if is_exact_scalar(value):
        return Fraction(value)
    if isinstance(value, str):
        if sum(ch.isdigit() for ch in value) > MAX_RATIONAL_DIGITS:
            raise DomainError(
                f"rational string has more than {MAX_RATIONAL_DIGITS} digits"
            )
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise DomainError(f"not a rational scalar: {value!r}")
        if int(match.group(1) or 0) > MAX_DECIMAL_EXPONENT:
            raise DomainError(
                f"decimal exponent above {MAX_DECIMAL_EXPONENT} in {value!r}"
            )
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


# Coefficient dicts {monomial code: coefficient} shared by MPoly
# (Fraction coefficients) and the oracle (int coefficients).  A code is
# sum_i a_i w_i with w_i = radix^(arity-1-i) (see the module docstring);
# products of codes carry no digit while every part stays below the
# radix.  The oracle's radix is _RADIX; MPoly picks one above the parts
# of its result.  Exact zeros are never stored.

_RADIX = coeffs.MAX_EXPANSION_DEGREE + 1


def _encode(terms: Mapping[tuple, object], radix: int) -> dict:
    out = {}
    for mono, c in terms.items():
        code = 0
        for e in mono:
            code = code * radix + e
        out[code] = c
    return out


def _decode(code: int, arity: int, radix: int) -> tuple:
    parts = [0] * arity
    for i in range(arity - 1, -1, -1):
        code, parts[i] = divmod(code, radix)
    return tuple(parts)


def _code_degree(code: int) -> int:
    """Total degree of an oracle monomial code: its digit sum."""
    total = 0
    while code:
        code, e = divmod(code, _RADIX)
        total += e
    return total


def _mul_terms(a: dict, b: dict) -> dict:
    """a * b for coefficient dicts.  The products of one term of a have
    distinct monomials and nonzero coefficients, so the first term's fill
    the result directly and only the later terms' are merged in."""
    if not a:
        return {}
    terms = iter(a.items())
    ma, ca = next(terms)
    out = {ma + mb: ca * cb for mb, cb in b.items()}
    for ma, ca in terms:
        for mb, cb in b.items():
            mono = ma + mb
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _add_into(out: dict, terms: dict, scale=1) -> None:
    """out += scale * terms, in place (any monomial keys)."""
    for mono, c in terms.items():
        s = out.get(mono, 0) + scale * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)


def _add_constant(out: dict, c) -> None:
    """out += c, in place: the constant monomial's code is 0."""
    s = out.get(0, 0) + c
    if s:
        out[0] = s
    else:
        out.pop(0, None)


def _derivative_terms(terms: dict, w: int) -> dict:
    """d/dx_i of oracle terms, w = _RADIX^(arity-1-i) the weight of part i.
    Lowering part i is injective on the monomials where it is positive."""
    out = {}
    for code, c in terms.items():
        e = code // w % _RADIX
        if e:
            out[code - w] = e * c
    return out


def _linear_forms(rows, arity: int, radix: int) -> list[dict]:
    """Row r of `rows` as the linear form sum_j rows[r][j] x_j."""
    weights = [radix ** (arity - 1 - j) for j in range(arity)]
    return [{w: v for w, v in zip(weights, row) if v} for row in rows]


def _nested(weights: dict, forms: list[dict], den: int, radix: int = _RADIX) -> dict:
    """sum_a weights[a] * Op^a 1 in nested (Horner) form (see the module
    docstring), where Op^a = Op_0^a_0 ... Op_(n-1)^a_(n-1), n = len(forms),
    and Op_i S = forms[i] * S - den * d/dx_i S.  The Op_i must commute: den
    is 0, or the forms are the rows of a symmetric matrix.

    The keys of `weights` code exponent tuples in `radix` with n digits.
    The forms and the result have codes of their own, in `radix` too, and
    in _RADIX with the arity n when den is nonzero.  Only the keys and
    their ancestors are visited, in descending code order, so each child's
    stepped sum is in its parent's before the parent steps."""
    step_of = {radix ** (len(forms) - 1 - i): form for i, form in enumerate(forms)}
    raised: dict = {}
    for code in weights:
        while code and code not in raised:
            w = 1
            while code // w % radix == 0:
                w *= radix
            raised[code] = w
            code -= w
    sums: dict = {}
    for code in sorted(raised, reverse=True):
        acc = sums.pop(code, None)
        own = weights.get(code)
        if own:
            if acc is None:
                acc = {0: own}
            else:
                _add_constant(acc, own)
        if not acc:
            continue
        w = raised[code]
        stepped = _mul_terms(step_of[w], acc)
        if den:
            _add_into(stepped, _derivative_terms(acc, w), -den)
        parent = sums.get(code - w)
        if parent is None:
            sums[code - w] = stepped
        else:
            _add_into(parent, stepped)
    out = sums.pop(0, {})
    own = weights.get(0)
    if own:
        _add_constant(out, own)
    return out


def _over(arity: int, terms: dict, den: int, radix: int = _RADIX) -> "MPoly":
    """The MPoly terms/den, for terms coded in `radix`."""
    res = MPoly(arity)
    res.terms = {
        _decode(code, arity, radix): Fraction(c, den) for code, c in terms.items()
    }
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

    def _max_part(self) -> int:
        return max((max(mono) for mono in self.terms), default=0)

    def mul(self, other: "MPoly") -> "MPoly":
        self._check_arity(other)
        radix = self._max_part() + other._max_part() + 1
        prod = _mul_terms(_encode(self.terms, radix), _encode(other.terms, radix))
        return _over(self.arity, prod, 1, radix)

    def compose_linear(self, lin: DenseMatrix) -> "MPoly":
        """Substitute each variable y_j by the linear form given by row j
        of `lin`; the result is a polynomial in lin.cols new variables."""
        if lin.rows != self.arity:
            raise DimensionMismatchError(
                f"substitution matrix has {lin.rows} rows, arity is {self.arity}"
            )
        # Every part on either side is at most the largest total degree.
        radix = max((sum(mono) for mono in self.terms), default=0) + 1
        forms = _linear_forms(
            [[as_rational(v) for v in row] for row in lin.data], lin.cols, radix
        )
        out = _nested(_encode(self.terms, radix), forms, 0, radix)
        return _over(lin.cols, out, 1, radix)

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
    starting from 1, as the integer polynomials d^|k| p_k (see the module
    docstring): the chain of one index is `_nested` with the weight 1 on k.

    Nothing here depends on the numeric recurrence used by the evaluators.
    """

    def __init__(self, b: DenseMatrix):
        if b.rows != b.cols:
            raise DimensionMismatchError("exponent matrix must be square")
        if not b.is_exact():
            raise DomainError(
                "symbolic construction requires exact rational entries"
            )
        check_symmetric_rows(b.data, True)
        n = b.rows
        self.arity = n
        rows, self._den = b.cleared_rows()
        self._rows = _linear_forms(rows, n, _RADIX)

    def poly(self, k: MultiIndex | Iterable[int]) -> MPoly:
        terms, den = self.scaled_terms(k)
        return _over(self.arity, terms, den)

    def scaled_terms(self, k: MultiIndex | Iterable[int]) -> tuple[dict, int]:
        """(terms, den) with p_k = terms / den: terms is a new dict from
        oracle monomial codes to int coefficients and den = d^|k|."""
        k = MultiIndex.of(k)
        if k.arity != self.arity:
            raise DimensionMismatchError(
                f"index arity {k.arity} does not match matrix dim {self.arity}"
            )
        cap = coeffs.MAX_EXPANSION_DEGREE
        if k.degree() > cap:
            raise SizeLimitError(f"symbolic degree {k.degree()} exceeds cap {cap}")
        terms = _nested(_encode({k.parts: 1}, _RADIX), self._rows, self._den)
        return terms, self._den ** k.degree()


def _built(side) -> MPoly:
    """An MPoly as given, or one built by `_over` from (arity, int terms, den)."""
    return _over(*side) if type(side) is tuple else side


@dataclass(frozen=True, init=False)
class OracleComparison:
    """Exact comparison of one expansion identity instance: `equal`, and
    the left side, the right side and their difference as MPolys.

    `oracle_compare` decides `equal` on integer codes and passes each
    polynomial as (arity, int terms, den); an MPoly is built from it the
    first time `lhs`, `rhs` or `diff` is read, and then kept, so a caller
    that reads only `equal` builds none.  The instance is frozen, and its
    equality, hash and repr are those of a frozen dataclass of the four
    fields (equal, lhs, rhs, diff)."""

    equal: bool

    def __init__(self, equal: bool, lhs, rhs, diff):
        for name, value in (("equal", equal), ("_lhs", lhs), ("_rhs", rhs), ("_diff", diff)):
            object.__setattr__(self, name, value)

    lhs = cached_property(lambda self: _built(self._lhs))
    rhs = cached_property(lambda self: _built(self._rhs))
    diff = cached_property(lambda self: _built(self._diff))

    def _fields(self) -> tuple:
        return (self.equal, self.lhs, self.rhs, self.diff)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(equal={self.equal!r}, lhs={self.lhs!r}, "
            f"rhs={self.rhs!r}, diff={self.diff!r})"
        )


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
    coefficients over one denominator each (see the module docstring);
    the returned comparison makes its MPolys only when they are read.
    Inputs must be exact rationals; `tensorlin.covariance` checks that
    the covariances are symmetric and invertible (positive definiteness is
    not needed for the algebra), and `coeffs.transformed_map` builds the
    map from them.  A |k| above the engine's cap raises
    SizeLimitError in the left side's `scaled_terms` call, before any
    polynomial is built.
    """
    k = MultiIndex.of(k)
    for mat in (lam, sigma, upsilon):
        if not mat.is_exact():
            raise DomainError("oracle comparison requires exact rational inputs")
    sig, ups = covariance(sigma), covariance(upsilon)
    n, m = sigma.rows, upsilon.rows
    if lam.rows != m or lam.cols != n or k.arity != n:
        raise DimensionMismatchError(
            f"map shape {lam.rows}x{lam.cols} inconsistent with dims "
            f"n={n}, m={m}, arity {k.arity}"
        )

    degree = k.degree()
    p, p_den = SymbolicHermiteFamily(sig.inverse()).scaled_terms(k)
    lam_c, e = lam.cleared_rows()
    lam_t = transpose_rows(lam_c)
    lhs_terms = _nested(
        {a: c * e ** (degree - _code_degree(a)) for a, c in p.items()},
        _linear_forms(lam_t, m, _RADIX),
        0,
    )
    lhs_den = p_den * e**degree

    tmap = coeffs.transformed_map(lam, sig, ups)
    basis = SymbolicHermiteFamily(ups.inverse())
    weighted = []
    for term in coeffs.expand_from_map(k, tmap, variant):
        c = term.coeff
        weighted.append(
            (term.q.parts, c.numerator, c.denominator * basis._den ** term.q.degree())
        )
    rhs_den = math.lcm(*(w_den for _, _, w_den in weighted))
    rhs_terms = _nested(
        _encode({q: w_num * (rhs_den // w_den) for q, w_num, w_den in weighted}, _RADIX),
        basis._rows,
        basis._den,
    )

    den = math.lcm(lhs_den, rhs_den)
    diff_terms = {mono: c * (den // lhs_den) for mono, c in lhs_terms.items()}
    _add_into(diff_terms, rhs_terms, -(den // rhs_den))
    return OracleComparison(
        not diff_terms, (m, lhs_terms, lhs_den), (m, rhs_terms, rhs_den), (m, diff_terms, den)
    )
