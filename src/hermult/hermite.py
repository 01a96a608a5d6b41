"""Evaluation of univariate and general multivariate Hermite polynomials.

A univariate family (HermiteFamily) is one of the kinds "probabilists",
"physicists" or "scaled"; the multivariate evaluators take the general SPD
covariance itself.  All evaluators run three-term or coordinate-raising
recurrences rather than coefficient tables, and work in either scalar
field: float inputs give doubles, int/Fraction inputs give exact rationals.

hermite_uni_grid runs the univariate recurrence at each point of a list,
checking the degree and the family once; hermite_uni_all is its one-point
case and hermite_uni reads its top degree.

hermite_multi_batch runs the raising recurrence top down with one memo
keyed by index tuples, shared by all the indices of a call; hermite_multi
is the batch of one index.  gf_partial_sum needs every index up to its
degree cap, so it runs the same recurrence bottom up over a table built
once per (arity, cap): each entry holds the positions of the entries it
reads, and the sweep evaluates _raise_value's expression in the same
operand order, so both give the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .multiindex import MultiIndex, enumerate_fixed_degree, mi_factorial
from .tensorlin import DenseVector, SpdMatrix, is_exact_scalar

# Degrees above this are outside the supported (non-asymptotic) regime.
MAX_DEGREE = 60

# Generating-function partial sums are capped at this total degree.
MAX_GF_DEGREE = 12

PROBABILISTS_KIND = "probabilists"
PHYSICISTS_KIND = "physicists"
SCALED_KIND = "scaled"


@dataclass(frozen=True)
class HermiteFamily:
    """One of the supported univariate polynomial families.

    kind "probabilists" and "physicists" need no parameters; "scaled"
    carries a positive variance sigma_sq.  A general SPD covariance is not
    a family: hermite_multi takes it directly.
    """

    kind: str
    sigma_sq: object = None

    def __post_init__(self) -> None:
        if self.kind not in (PROBABILISTS_KIND, PHYSICISTS_KIND, SCALED_KIND):
            raise DomainError(f"unknown Hermite family kind {self.kind!r}")
        if self.kind == SCALED_KIND:
            s2 = self.sigma_sq
            if s2 is None or not s2 > 0:
                raise DomainError(f"scaled family needs sigma_sq > 0, got {s2!r}")
            if isinstance(s2, float) and not math.isfinite(s2):
                raise DomainError(f"scaled family needs finite sigma_sq, got {s2!r}")

    @classmethod
    def scaled(cls, sigma_sq) -> "HermiteFamily":
        return cls(SCALED_KIND, sigma_sq=sigma_sq)


PROBABILISTS = HermiteFamily(PROBABILISTS_KIND)
PHYSICISTS = HermiteFamily(PHYSICISTS_KIND)


def _inverse_variance(family: HermiteFamily):
    if family.kind == PROBABILISTS_KIND:
        return 1
    if family.kind == PHYSICISTS_KIND:
        return 2
    s2 = family.sigma_sq
    return Fraction(1) / s2 if is_exact_scalar(s2) else 1.0 / s2


def hermite_uni_all(family: HermiteFamily, k: int, x) -> list:
    """Values of degrees 0..k of the univariate polynomial of the given
    family at x."""
    return _uni_values(_checked_inverse_variance(family, k, (x,)), k, x)


def hermite_uni_grid(family: HermiteFamily, k: int, xs) -> list[list]:
    """hermite_uni_all at every point of xs, one list per point, with the
    degree and the family checked once."""
    b = _checked_inverse_variance(family, k, xs)
    return [_uni_values(b, k, x) for x in xs]


def _checked_inverse_variance(family: HermiteFamily, k: int, xs):
    """The family's inverse variance, once the degree k and every point
    of xs are checked."""
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    if k > MAX_DEGREE:
        raise SizeLimitError(f"degree {k} exceeds cap {MAX_DEGREE}")
    for x in xs:
        if isinstance(x, float) and not math.isfinite(x):
            raise DomainError(f"non-finite evaluation point {x!r}")
    return _inverse_variance(family)


def _uni_values(b, k: int, x) -> list:
    """Degrees 0..k at x from one pass of the recurrence
    p_{j+1} = b*x*p_j - j*b*p_{j-1}, b the inverse variance (1, 2, or
    1/sigma_sq)."""
    bx = b * x
    prev, cur = 0, 1
    values = [cur]
    for j in range(k):
        prev, cur = cur, bx * cur - j * b * prev
        values.append(cur)
    return values


def hermite_uni(family: HermiteFamily, k: int, x):
    """Value of the degree-k univariate polynomial of the given family."""
    return hermite_uni_all(family, k, x)[k]


def _raise_value(parts, bx, b_rows, memo):
    """Memoized coordinate-raising recurrence; the rightmost positive
    coordinate is lowered first, matching a left-to-right build order."""
    val = memo.get(parts)
    if val is not None:
        return val
    i = len(parts) - 1
    while parts[i] == 0:
        i -= 1
    lowered = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
    acc = bx[i] * _raise_value(lowered, bx, b_rows, memo)
    row = b_rows[i]
    for j, c in enumerate(lowered):
        if c:
            twice = lowered[:j] + (lowered[j] - 1,) + lowered[j + 1 :]
            acc = acc - c * row[j] * _raise_value(twice, bx, b_rows, memo)
    memo[parts] = acc
    return acc


def _evaluation_state(x: DenseVector, sigma: SpdMatrix):
    if x.dim != sigma.dim:
        raise DimensionMismatchError(
            f"point dim {x.dim} does not match covariance dim {sigma.dim}"
        )
    b = sigma.inverse()
    bx = b.matvec(x).entries
    memo = {(0,) * x.dim: 1}
    return bx, b.data, memo


def hermite_multi(k: MultiIndex | Iterable[int], x: DenseVector, sigma: SpdMatrix):
    """Value of the general multivariate Hermite polynomial at x."""
    return hermite_multi_batch([k], x, sigma)[0]


def hermite_multi_batch(
    ks: Iterable[MultiIndex | Iterable[int]], x: DenseVector, sigma: SpdMatrix
) -> list:
    """Values of several multivariate Hermite polynomials at one point,
    sharing the recurrence memo across indices."""
    bx, b_rows, memo = _evaluation_state(x, sigma)
    out = []
    for k in ks:
        k = MultiIndex.of(k)
        if k.arity != x.dim:
            raise DimensionMismatchError(
                f"index arity {k.arity} does not match point dim {x.dim}"
            )
        if k.degree() > MAX_DEGREE:
            raise SizeLimitError(
                f"total degree {k.degree()} exceeds cap {MAX_DEGREE}"
            )
        out.append(_raise_value(k.parts, bx, b_rows, memo))
    return out


def hermite_multi_product(
    k: MultiIndex | Iterable[int], x: DenseVector, family: HermiteFamily
):
    """Product-form evaluation at the isotropic covariance of a family:
    I, I/2, or sigma_sq * I for a scaled family."""
    k = MultiIndex.of(k)
    if k.arity != x.dim:
        raise DimensionMismatchError(
            f"index arity {k.arity} does not match point dim {x.dim}"
        )
    out = 1
    for ki, xi in zip(k.parts, x.entries):
        out = out * hermite_uni(family, ki, xi)
    return out


@functools.lru_cache(maxsize=64)
def _gf_table(n: int, degree_cap: int) -> tuple:
    """The sweep plan of gf_partial_sum: one entry per arity-n index k of
    total degree <= degree_cap, in ascending degree, then the enumeration
    order within a degree, so every entry comes after the entries it reads.

    An entry is (powers, 1/k!, float(1/k!), step).  `powers` holds the
    (j, k_j) with k_j > 0.  step is (i, low, twice): i is the rightmost
    positive coordinate of k, the one _raise_value lowers, `low` the
    position of k - e_i and `twice` the (j, c, position of k - e_i - e_j)
    for each j with c = (k - e_i)_j > 0, j ascending.  The first entry is
    k = 0, whose step is None.
    """
    position = {}
    out = []
    for d in range(degree_cap + 1):
        for k in enumerate_fixed_degree(n, d):
            parts = k.parts
            position[parts] = len(out)
            inv = Fraction(1, mi_factorial(k))
            powers = tuple((j, c) for j, c in enumerate(parts) if c)
            if not powers:
                out.append((powers, inv, float(inv), None))
                continue
            i = powers[-1][0]
            low = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
            twice = tuple(
                (j, c, position[low[:j] + (c - 1,) + low[j + 1 :]])
                for j, c in enumerate(low)
                if c
            )
            out.append((powers, inv, float(inv), (i, position[low], twice)))
    return tuple(out)


def gf_partial_sum(
    t: DenseVector, x: DenseVector, sigma: SpdMatrix, degree_cap: int
):
    """Partial sum over all indices of total degree <= degree_cap of
    t^k / k! times the Hermite value at x.

    The Hermite values come from one bottom-up sweep over _gf_table, which
    fills every entry, including those whose t^k is zero.  Each value is
    _raise_value's expression with its operands in the same order, so the
    sum has the same bits as a sum of per-index hermite_multi values."""
    if degree_cap < 0:
        raise DomainError(f"degree cap must be >= 0, got {degree_cap}")
    if degree_cap > MAX_GF_DEGREE:
        raise SizeLimitError(
            f"degree cap {degree_cap} exceeds limit {MAX_GF_DEGREE}"
        )
    if t.dim != x.dim:
        raise DimensionMismatchError(
            f"t dim {t.dim} does not match x dim {x.dim}"
        )
    bx, b_rows, _ = _evaluation_state(x, sigma)
    table = _gf_table(x.dim, degree_cap)
    h = [1] * len(table)
    for pos in range(1, len(table)):
        i, low, twice = table[pos][3]
        row = b_rows[i]
        acc = bx[i] * h[low]
        for j, c, below in twice:
            acc = acc - c * row[j] * h[below]
        h[pos] = acc
    t_powers = [[None] + [ti**c for c in range(1, degree_cap + 1)] for ti in t.entries]
    total = 0
    for (powers, inv_factorial, inv_factorial_f, _), hk in zip(table, h):
        tk = 1
        for j, c in powers:
            tk = tk * t_powers[j][c]
        if tk == 0:
            continue
        # Fraction * float computes float(Fraction) * float, so the float
        # twin gives the same bits without the Fraction dispatch.
        if isinstance(tk, float):
            total = total + inv_factorial_f * tk * hk
        else:
            total = total + inv_factorial * tk * hk
    return total
