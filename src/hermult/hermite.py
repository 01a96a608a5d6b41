"""Evaluation of univariate and general multivariate Hermite polynomials.

A univariate family (HermiteFamily) is one of the kinds "probabilists",
"physicists" or "scaled"; the multivariate evaluators take the general SPD
covariance itself.  All evaluators run three-term or coordinate-raising
recurrences rather than coefficient tables, and work in either scalar
field: float inputs give doubles, int/Fraction inputs give exact rationals.

hermite_uni_grid runs the univariate recurrence at each point of a list,
checking the degree once, and is the one checked univariate path:
hermite_uni reads the top degree of its one-point grid.

hermite_multi_batch runs the raising recurrence top down with one memo,
which it makes per call and shares across the call's indices;
hermite_multi is the batch of one index.  The memo is keyed by each
index's int code in radix MAX_DEGREE + 1, one digit per part, so reading
a lowered index costs one subtraction and one dict lookup, and no tuple.
No plan or memo outlives a call: a plan cached across calls runs faster
still, but the benchmark harness keeps a record per completed op, so the
extra eval-points ops would lift that workload's peak RSS past its bound
(ROADMAP item 13).

gf_partial_sum needs every index up to its degree cap, so it runs the
same recurrence bottom up over a table built once per (arity, cap) from
multiindex.raising_plan, as coeffs does: each entry holds the positions it
reads, and the sweep evaluates _raise_value's expression in its operand
order, with each c * B[i][j] formed once per call, so both give the same
bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .multiindex import MultiIndex, enumerate_fixed_degree, mi_factorial, raising_plan
from .tensorlin import DenseVector, SpdMatrix, is_exact_scalar

# Degrees above this are outside the supported (non-asymptotic) regime.
MAX_DEGREE = 60

# The base of hermite_multi_batch's memo codes: one digit per part, each
# part at most MAX_DEGREE once the total degree is checked.
_RADIX = MAX_DEGREE + 1

# Generating-function partial sums are capped at this total degree.
MAX_GF_DEGREE = 12

PROBABILISTS_KIND = "probabilists"
PHYSICISTS_KIND = "physicists"
SCALED_KIND = "scaled"


@dataclass(frozen=True)
class HermiteFamily:
    """One of the supported univariate polynomial families, and its
    inverse variance b, set and checked here for every reader: the int 1
    for kind "probabilists", the int 2 for "physicists" (neither takes a
    sigma_sq), 1/sigma_sq for "scaled", whose variance sigma_sq > 0 is an
    int or a Fraction (b a Fraction) or a float (b = 1.0 / sigma_sq, which
    must be finite).  A general SPD covariance is not a family:
    hermite_multi takes it directly.
    """

    kind: str
    sigma_sq: object = None
    inverse_variance: object = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind in (PROBABILISTS_KIND, PHYSICISTS_KIND) and self.sigma_sq is not None:
            raise DomainError(f"the {self.kind} family takes no sigma_sq, got {self.sigma_sq!r}")
        if self.kind == PROBABILISTS_KIND:
            b = 1
        elif self.kind == PHYSICISTS_KIND:
            b = 2
        elif self.kind != SCALED_KIND:
            raise DomainError(f"unknown Hermite family kind {self.kind!r}")
        else:
            s2 = self.sigma_sq
            exact = is_exact_scalar(s2)
            if not (exact or isinstance(s2, float)) or not s2 > 0:
                raise DomainError(f"sigma_sq must be an int, Fraction or float > 0, got {s2!r}")
            b = Fraction(1) / s2 if exact else 1.0 / s2
            if not 0 < b < math.inf:
                raise DomainError(f"scaled family needs a finite 1/sigma_sq > 0, got 1/{s2!r}")
        object.__setattr__(self, "inverse_variance", b)

    @classmethod
    def scaled(cls, sigma_sq) -> "HermiteFamily":
        return cls(SCALED_KIND, sigma_sq=sigma_sq)


PROBABILISTS = HermiteFamily(PROBABILISTS_KIND)
PHYSICISTS = HermiteFamily(PHYSICISTS_KIND)
# The families by the short names of `eval --family` and the verify reports.
FAMILIES_BY_NAME = {"he": PROBABILISTS, "h": PHYSICISTS}


def hermite_uni_grid(family: HermiteFamily, k: int, xs) -> list[list]:
    """Values of degrees 0..k of the univariate polynomial of the given
    family at every point of xs, one list per point, with the degree and
    every point checked before any value is computed."""
    xs = tuple(xs)
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    if k > MAX_DEGREE:
        raise SizeLimitError(f"degree {k} exceeds cap {MAX_DEGREE}")
    for x in xs:
        if isinstance(x, float) and not math.isfinite(x):
            raise DomainError(f"non-finite evaluation point {x!r}")
    b = family.inverse_variance
    return [_uni_values(b, k, x) for x in xs]


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
    return hermite_uni_grid(family, k, (x,))[0][k]


def _lowered(parts: tuple, i: int) -> tuple:
    """parts with part i lowered by one."""
    return parts[:i] + (parts[i] - 1,) + parts[i + 1 :]


def _raise_value(parts, code, bx, b_rows, weights, memo):
    """H_parts at the batch's point, for an index not yet in memo, by
    raising_plan's rule with every j read: a top-down memo, so a call plans
    only what its batch needs.

    memo is keyed by code = sum(parts[i] * weights[i]), weights[i] =
    _RADIX ** (n - 1 - i).  Every part is at most MAX_DEGREE, so no two
    indices share a code, and lowering part i subtracts weights[i].  The
    lowered and twice-lowered codes are looked up here, so a hit makes no
    call and builds no tuple; a parts tuple is built only to recurse on a
    miss.  The value is bx[i] * H(lowered), then minus c * B[i][j] *
    H(twice) for ascending j with c = lowered[j] > 0: the expression and
    operand order of gf_partial_sum's sweep."""
    i = len(parts) - 1
    while parts[i] == 0:
        i -= 1
    low = code - weights[i]
    v = memo.get(low)
    if v is None:
        v = _raise_value(_lowered(parts, i), low, bx, b_rows, weights, memo)
    acc = bx[i] * v
    row = b_rows[i]
    for j, c in enumerate(parts):
        if j == i:
            c -= 1
        if c:
            twice = low - weights[j]
            v = memo.get(twice)
            if v is None:
                v = _raise_value(
                    _lowered(_lowered(parts, i), j), twice, bx, b_rows, weights, memo
                )
            acc = acc - c * row[j] * v
    memo[code] = acc
    return acc


def _evaluation_state(x: DenseVector, sigma: SpdMatrix):
    if x.dim != sigma.dim:
        raise DimensionMismatchError(
            f"point dim {x.dim} does not match covariance dim {sigma.dim}"
        )
    b = sigma.inverse()
    return b.matvec(x).entries, b.data


def hermite_multi(k: MultiIndex | Iterable[int], x: DenseVector, sigma: SpdMatrix):
    """Value of the general multivariate Hermite polynomial at x."""
    return hermite_multi_batch([k], x, sigma)[0]


def hermite_multi_batch(
    ks: Iterable[MultiIndex | Iterable[int]], x: DenseVector, sigma: SpdMatrix
) -> list:
    """Values of several multivariate Hermite polynomials at one point,
    sharing the recurrence memo across indices."""
    bx, b_rows = _evaluation_state(x, sigma)
    n = x.dim
    weights = tuple(_RADIX ** (n - 1 - i) for i in range(n))
    memo = {0: 1}
    out = []
    for k in ks:
        parts = MultiIndex.of(k).parts
        if len(parts) != n:
            raise DimensionMismatchError(
                f"index arity {len(parts)} does not match point dim {n}"
            )
        degree = sum(parts)
        if degree > MAX_DEGREE:
            raise SizeLimitError(f"total degree {degree} exceeds cap {MAX_DEGREE}")
        code = 0
        for p in parts:
            code = code * _RADIX + p
        v = memo.get(code)
        if v is None:
            v = _raise_value(parts, code, bx, b_rows, weights, memo)
        out.append(v)
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
    """The sweep table of gf_partial_sum: an entry per arity-n index k with
    0 < |k| <= degree_cap, in the order of the raising_plan of degree
    degree_cap, which reaches every lower index.  Sweep position p holds
    entry p - 1 and position 0 holds k = 0.  The entry of k's plan entry
    (k, i, low, twice) is (i, position of low, ((w, position of lower), ...),
    prefix, power, 1/k!, float(1/k!)): w = (i*n + l)*cap + c - 1 is the
    place of c * B[i][l] among the sweep's products, and t^k is the t^k at
    position `prefix` (k with k_i zeroed) times t_i**k_i, the sweep's power
    at `power` = i*cap + k_i - 1: one multiply.
    """
    position = {(0,) * n: 0}
    out = []
    for level in raising_plan(enumerate_fixed_degree(n, degree_cap)):
        for k, i, low, twice in level:
            position[k] = len(out) + 1
            base = i * n * degree_cap - 1
            twice = tuple((base + l * degree_cap + c, position[lower]) for c, l, lower in twice)
            prefix = position[k[:i] + (0,) + k[i + 1 :]]
            inv = Fraction(1, mi_factorial(k))
            power = i * degree_cap + k[i] - 1
            out.append((i, position[low], twice, prefix, power, inv, float(inv)))
    return tuple(out)


def gf_partial_sum(
    t: DenseVector, x: DenseVector, sigma: SpdMatrix, degree_cap: int
):
    """Partial sum over all indices of total degree <= degree_cap of
    t^k / k! times the Hermite value at x.

    The Hermite values come from one bottom-up sweep over _gf_table, which
    fills every entry, including those whose t^k is zero.  Each value is
    _raise_value's expression in the same operand order, with c * B[i][j]
    formed once, so the sum has the bits of per-index hermite_multi values."""
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
    bx, b_rows = _evaluation_state(x, sigma)
    # c * B[i][j] at (i*n + j)*cap + c - 1 and t_i**c at i*cap + c - 1, for
    # c = 1..cap: the places _gf_table's entries name.
    cb = [c * v for row in b_rows for v in row for c in range(1, degree_cap + 1)]
    t_powers = [ti**c for ti in t.entries for c in range(1, degree_cap + 1)]
    h, t_ks = [1], [1]
    add_h, add_tk = h.append, t_ks.append
    # The k = 0 term, 1/0! * t^0 * H_0: the double 1.0 when t or B x holds a
    # float, so a sum in which no other term survives keeps its field, else
    # the Fraction 1.  1.0 + v has the bits of Fraction(1) + v for a float v.
    total = 1.0 if any(isinstance(v, float) for v in t.entries + bx) else Fraction(1)
    for i, low, twice, prefix, power, inv_factorial, inv_factorial_f in _gf_table(
        x.dim, degree_cap
    ):
        hk = bx[i] * h[low]
        for w, below in twice:
            hk = hk - cb[w] * h[below]
        add_h(hk)
        tk = t_ks[prefix] * t_powers[power]
        add_tk(tk)
        if tk == 0:
            continue
        # Fraction * float computes float(Fraction) * float, so the float
        # twin gives the same bits without the Fraction dispatch.
        if isinstance(tk, float):
            total = total + inv_factorial_f * tk * hk
        else:
            total = total + inv_factorial * tk * hk
    return total
