"""Multiplication-theorem coefficients and full expansions.

Given covariances for both sides and a linear map, the Hermite polynomial
of the mapped argument expands over Hermite polynomials of the original
argument; this module computes the expansion coefficients in full
generality plus the inner-product and univariate reductions.

The map Lambda is m x n: its transpose sends points in R^m to arguments in
R^n, and the left index k has arity n.  With A = Sigma^-1 Lambda^T Upsilon
and M = A Lambda Sigma^-1 - Sigma^-1, substituting s = A^T t in the
generating function exp(t^T Sigma^-1 y - t^T Sigma^-1 t / 2) at
y = Lambda^T x gives

    sum_k t^k/k! H_k(Lambda^T x; Sigma)
        = sum_q (A^T t)^q/q! H_q(x; Upsilon) exp(t^T M t / 2),

so T[k,q] is the k-th t-derivative at 0 of f_q = (A^T t)^q/q! exp(t^T M t/2).
From d_i f_q = sum_j A_ij f_{q-e_j} + (M t)_i f_q, Leibniz's rule gives

    T[k+e_i, q] = sum_j A_ij T[k, q-e_j] + sum_l M_il k_l T[k-e_l, q],
    T[0, 0] = 1.

Unrolled, this is the paper's form: k!/(2^i q! i!), i = (|k|-|q|)/2, times
A^{(.)q} (x) vec(M)^{(x)i} summed over the |k|!/k! slot tuples of k.  The
symmetrized variant runs the recurrence; paper-literal reads the ascending
slot tuple only.

The recurrence runs as one bottom-up sweep per source index k.  Its plan
lists the k' the sweep needs, from k down: with i the rightmost positive
coordinate of a needed k', it needs k' - e_i, and k' - e_i - e_l for every
l with M_il != 0 and c = (k' - e_i)_l > 0.  The plan (multiindex's
raising_plan, which hermite's partial sum reads too) depends only on k and
M's zero pattern, and holds the int c, not c * M_il, so it is cached under
that key (_sweep_levels) and one plan serves float and exact maps of the
same pattern.  The value pass visits the planned k' in increasing degree.
Each keeps one flat list of T[k', q'] over the q' of the parity of |k'| in
ascending degree, then canonical order (_q_layout), so degree d - 2 gives
a prefix of degree d: the A pulls fill it by position, then each M pull
runs over that prefix:

    acc = 0;  acc = acc + A_ij T[k'-e_i, q'-e_j]       for j ascending,
                    skipping A_ij == 0 and q'_j == 0;
    if |q'| < |k'|:  acc = acc + (c M_il) T[k'-e_i-e_l, q']  for l ascending,
                    c = (k'-e_i)_l, skipping M_il == 0 and c == 0.

While degree d is built, only the lists of degree d - 1 and d - 2 are kept.
Each entry is this one expression, in this operand order, over entries of
lower degree, so a float table is reproducible bit for bit and an entry no
pull reaches stays the int 0.  coeff_from_map finds q's position in
_q_level.

The field alone picks the rows, and one body serves both fields in the
build (transformed_map_from_inverses) and both readers (_read_coeffs).
Exact work runs on integers.  An exact map takes Sigma^-1 = S/s,
Lambda = L/e and Upsilon = U/u (each matrix's `DenseMatrix.cleared_rows`),
any other its own rows S, L, U over s = e = u = 1, and (A, M) comes from
the `tensorlin` products A_hat = S L^T U and M_hat = A_hat L S - s e^2 u S,
for floats the float expression in that operand order (1 * v is v, -0.0
included).  Sigma^-1 and Upsilon are checked for symmetry first, each by
its own field's rule, so M needs no check.  Each entry of an exact map is
one Fraction: A = A_hat/(s e u) and M = M_hat/(s^2 e^2 u).  It is swept
on the cleared rows of A = A_hat/alpha and M = M_hat/beta, which each
matrix keeps, so it is cleared once however often it is read.  T[k,q]
has degree |q| in A and (|k|-|q|)/2 in M, so
T[k,q] = T_hat[k,q] / (alpha^|q| beta^((|k|-|q|)/2)), T_hat being the
sweep on the int rows: each nonzero entry read becomes one Fraction, and a
zero stays the int 0 the sweep gives.  A float map, or one that mixes
floats with exact entries, is swept on its own entries.  The literal
product (`_literal_coeff`) makes one Fraction per exact coefficient, and
reads the slot tuples and factorials of k and q from a cache per index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul, sub
from typing import Iterable, NamedTuple

from .errors import (
    DimensionMismatchError,
    DomainError,
    ParityError,
    SizeLimitError,
)
from .hermite import (
    PROBABILISTS,
    HermiteFamily,
    hermite_multi_batch,
)
from .multiindex import (
    MultiIndex,
    ascending_tuple,
    enumerate_fixed_degree,
    mi_factorial,
    q_support,
    raising_plan,
)
from .tensorlin import (
    DenseMatrix,
    DenseVector,
    SpdMatrix,
    check_symmetric_rows,
    entrywise_rows,
    fraction_rows,
    left_sum,
    matmul_rows,
    scale_rows,
    transpose_rows,
)

# Expansion sources above this degree are rejected.  The recurrence is
# polynomial in |k|; the cap bounds the table built for outside input.
MAX_EXPANSION_DEGREE = 20


class CoeffVariant(Enum):
    """How the degree-matching step of the derivation is read.

    SYMMETRIZED sums over every slot tuple of k and is the correct form.
    PAPER_LITERAL reads only the ascending slot tuple; it coincides with
    SYMMETRIZED when k has at most one nonzero part, provably drops terms
    otherwise, and is retained to demonstrate that discrepancy.
    """

    SYMMETRIZED = "symmetrized"
    PAPER_LITERAL = "paper-literal"


@dataclass(frozen=True)
class TransformedMap:
    """The pair (A, M) that determines every coefficient.

    A = Sigma^-1 Lambda^T Upsilon is n x m, M = A Lambda Sigma^-1 - Sigma^-1
    is n x n and symmetric.  They split the generating function,
    G(Lambda^T x, t; Sigma) = G(x, A^T t; Upsilon) exp(t^T M t / 2), and its
    t_i-derivative gives T[k+e_i, q] = sum_j A_ij T[k, q-e_j]
    + sum_l M_il k_l T[k-e_l, q] with T[0, 0] = 1.
    """

    A: DenseMatrix
    M: DenseMatrix


class ExpansionTerm(NamedTuple):
    q: MultiIndex
    coeff: object


def transformed_map(
    lam: DenseMatrix, sigma: SpdMatrix, upsilon: SpdMatrix
) -> TransformedMap:
    """Build (A, M) from the map and the two covariances."""
    return transformed_map_from_inverses(lam, sigma.inverse(), upsilon.matrix)


def transformed_map_from_inverses(
    lam: DenseMatrix, sigma_inv: DenseMatrix, upsilon: DenseMatrix
) -> TransformedMap:
    """Build (A, M) given the already-inverted left covariance (the
    oracle holds Sigma^-1 already; `transformed_map` reads it from its
    `SpdMatrix`), in one body for both fields (see the module docstring).
    Sigma^-1 and Upsilon are checked for symmetry, each by the rule of its
    own field (`check_symmetric_rows`), before any product.  M is then
    symmetric and is not checked, so an M that is only rounding error
    (Sigma = Lambda^T Upsilon Lambda) passes."""
    n, m = lam.cols, lam.rows
    shapes = (sigma_inv.rows, sigma_inv.cols, upsilon.rows, upsilon.cols)
    if shapes != (n, n, m, m):
        raise DimensionMismatchError(
            "map shape %dx%d inconsistent with Sigma^-1 %dx%d and Upsilon %dx%d" % (m, n, *shapes)
        )
    sigma_exact, upsilon_exact = sigma_inv.is_exact(), upsilon.is_exact()
    check_symmetric_rows(sigma_inv.data, sigma_exact)
    check_symmetric_rows(upsilon.data, upsilon_exact)
    exact = sigma_exact and upsilon_exact and lam.is_exact()
    (sm, s), (lm, e), (um, u) = (
        (sigma_inv.cleared_rows(), lam.cleared_rows(), upsilon.cleared_rows()) if exact
        else ((sigma_inv.data, 1), (lam.data, 1), (upsilon.data, 1))
    )
    a_hat = matmul_rows(matmul_rows(sm, transpose_rows(lm)), um)
    p_hat = matmul_rows(matmul_rows(a_hat, lm), sm)
    m_hat = entrywise_rows(sub, p_hat, scale_rows(s * e * e * u, sm))
    if exact:
        a_hat, m_hat = fraction_rows(a_hat, s * e * u), fraction_rows(m_hat, s * s * e * e * u)
    return TransformedMap(A=DenseMatrix(n, m, a_hat), M=DenseMatrix(n, n, m_hat))


def _check_shape(k: MultiIndex, q_arity: int, tmap: TransformedMap) -> None:
    n, m, mm = tmap.A.rows, tmap.A.cols, tmap.M
    if k.arity != n or q_arity != m or mm.rows != n or mm.cols != n:
        raise DimensionMismatchError(
            f"arities ({k.arity}, {q_arity}) do not match map shapes "
            f"A {n}x{m}, M {mm.rows}x{mm.cols}"
        )
    if k.degree() > MAX_EXPANSION_DEGREE:
        raise SizeLimitError(
            f"degree {k.degree()} exceeds cap {MAX_EXPANSION_DEGREE}"
        )


def _parity_split(k: MultiIndex, q: MultiIndex) -> int:
    kd, qd = k.degree(), q.degree()
    if qd > kd or (kd - qd) % 2:
        raise ParityError(
            f"degrees |k|={kd}, |q|={qd} must satisfy |q| <= |k| with equal parity"
        )
    return (kd - qd) // 2


@functools.lru_cache(maxsize=256)
def _slots(parts: tuple) -> tuple:
    """(ascending slot tuple, index factorial) of an index's parts."""
    return ascending_tuple(parts), mi_factorial(parts)


def _literal_coeff(k: MultiIndex, q: MultiIndex, pairs: int, rows: tuple, den: int):
    """k!/(2^i q! i!), i = pairs, times the contraction tensor at the
    ascending slot tuple e of k, over den; rows = (A rows, M rows).  The
    first |q| slots of e run in blocks of sizes q_j, block j multiplying
    column j of A; the remaining 2*pairs slots are read pairwise, pair
    (a, b) reading M[b][a].  An exact product makes one Fraction.  A float
    product takes the int quotient k!/(2^i q! i! den), correctly rounded
    like the float of that Fraction, so the bits are those of Fraction's
    float fallback."""
    a_rows, m_rows = rows
    e, k_fact = _slots(k.parts)
    e_q, q_fact = _slots(q.parts)
    prod = 1
    for slot, col in zip(e, e_q):
        prod = prod * a_rows[slot][col]
    split = len(e_q)
    for p in range(split, split + 2 * pairs, 2):
        prod = prod * m_rows[e[p + 1]][e[p]]
    pden = (1 << pairs) * q_fact * math.factorial(pairs) * den
    if isinstance(prod, float):
        return k_fact / pden * prod
    return Fraction(k_fact * prod, pden)


def _sweep_rows(tmap: TransformedMap):
    """((A rows, M rows), scales): for an exact map the int rows of
    A = A_hat/alpha and M = M_hat/beta with (alpha, beta), each matrix's
    kept `DenseMatrix.cleared_rows`; for a float map its own rows and None."""
    if tmap.A.is_exact() and tmap.M.is_exact():
        (a, alpha), (m, beta) = tmap.A.cleared_rows(), tmap.M.cleared_rows()
        return (a, m), (alpha, beta)
    return (tmap.A.data, tmap.M.data), None


@functools.lru_cache(maxsize=128)
def _q_level(m: int, d: int) -> tuple:
    """The (pos, q) pairs of every arity-m index q of degree d, in canonical
    order, pos being q's position in the flat layout: the positions run on
    from the last q of degree d - 2."""
    first = _q_level(m, d - 2)[-1][0] + 1 if d > 1 else 0
    return tuple(enumerate(enumerate_fixed_degree(m, d), first))


@functools.lru_cache(maxsize=128)
def _q_layout(m: int, d: int) -> tuple:
    """(j, position of q - e_j) for each j with q_j > 0, ascending, for the
    q at each position of the flat layout of degree d: every arity-m q of
    degree d, d - 2, ..., in ascending degree, then canonical order."""
    below = {q.parts: pos for pos, q in _q_level(m, d - 1)} if d else {}
    level = [q.parts for _, q in _q_level(m, d)]
    return (_q_layout(m, d - 2) if d > 1 else ()) + tuple([
        tuple([(j, below[q[:j] + (p - 1,) + q[j + 1 :]]) for j, p in enumerate(q) if p])
        for q in level
    ])


@functools.lru_cache(maxsize=128)
def _sweep_levels(k: tuple, pattern: tuple) -> tuple:
    """k's raising_plan under pattern, M's zero pattern as rows of bools,
    as a tuple of level tuples: it reads only the truth of each entry, so
    one plan serves every M of that pattern, float or exact."""
    return tuple(map(tuple, raising_plan((k,), pattern)))


def _coeff_table(k: tuple, a_rows, m_rows) -> list:
    """T[k, q] for every q of the parity of |k|, at q's position in the
    flat layout: the value pass over k's raising_plan under M's zero
    pattern (see the module docstring)."""
    m = len(a_rows[0])
    levels = _sweep_levels(k, tuple([tuple(map(bool, row)) for row in m_rows]))
    below, prev = {}, {(0,) * len(k): [1]}
    for d in range(1, len(levels)):
        layout = _q_layout(m, d)
        cur = {}
        for kp, i, low, twice in levels[d]:
            src, a_row, m_row = prev[low], a_rows[i], m_rows[i]
            t = []
            for lowers in layout:
                acc = 0
                for j, p in lowers:
                    a = a_row[j]
                    if a:
                        acc = acc + a * src[p]
                t.append(acc)
            for c, l, lower in twice:
                cm, lower_t = c * m_row[l], below[lower]
                t[: len(lower_t)] = [x + cm * y for x, y in zip(t, lower_t)]
            cur[kp] = t
        below, prev = prev, cur
    return prev[k]


def _read_coeffs(k: MultiIndex, tmap: TransformedMap, variant, levels) -> tuple:
    """(terms, c): T[k, q] is read for each (pos, q) of each (d, qs) of
    levels, every q of qs having degree d and position pos in the flat
    layout; terms holds the ExpansionTerm of each nonzero one, in that
    order, and c is the last one read, zero or not.
    T[k, .] is the literal product at the ascending slot tuple under
    paper-literal, and under symmetrized when k has at most one nonzero
    part (its slot-tuple sum has a single tuple); else it is read from k's
    table, divided by alpha^d beta^((|k|-d)/2) on an exact map."""
    variant = CoeffVariant(variant)
    rows, scales = _sweep_rows(tmap)
    alpha, beta = scales or (1, 1)
    top = k.degree()
    literal = variant is CoeffVariant.PAPER_LITERAL or sum(1 for c in k.parts if c) <= 1
    table = None if literal else _coeff_table(k.parts, *rows)
    terms = []
    for d, qs in levels:
        pairs = (top - d) // 2
        den = alpha**d * beta**pairs
        for pos, q in qs:
            if table is None:
                c = _literal_coeff(k, q, pairs, rows, den)
            else:
                c = table[pos]
                if c and scales is not None:
                    c = Fraction(c, den)
            if c != 0:
                terms.append(ExpansionTerm(q, c))
    return terms, c


def coeff_from_map(
    k: MultiIndex | Iterable[int],
    q: MultiIndex | Iterable[int],
    tmap: TransformedMap,
    variant: CoeffVariant = CoeffVariant.SYMMETRIZED,
):
    """Expansion coefficient for one (k, q) pair from a prebuilt map: the
    one-q read of what expand_from_map returns, zeros included."""
    k = MultiIndex.of(k)
    q = MultiIndex.of(q)
    _check_shape(k, q.arity, tmap)
    _parity_split(k, q)
    pos = next(at for at, other in _q_level(q.arity, q.degree()) if other == q)
    return _read_coeffs(k, tmap, variant, ((q.degree(), ((pos, q),)),))[1]


def coeff_general(
    k: MultiIndex | Iterable[int],
    q: MultiIndex | Iterable[int],
    lam: DenseMatrix,
    sigma: SpdMatrix,
    upsilon: SpdMatrix,
    variant: CoeffVariant = CoeffVariant.SYMMETRIZED,
):
    """Expansion coefficient in full generality."""
    return coeff_from_map(k, q, transformed_map(lam, sigma, upsilon), variant)


def expand_general(
    k: MultiIndex | Iterable[int],
    lam: DenseMatrix,
    sigma: SpdMatrix,
    upsilon: SpdMatrix,
    variant: CoeffVariant = CoeffVariant.SYMMETRIZED,
) -> list[ExpansionTerm]:
    """All nonzero expansion terms of one source index; see expand_from_map."""
    return expand_from_map(k, transformed_map(lam, sigma, upsilon), variant)


def expand_from_map(
    k: MultiIndex | Iterable[int],
    tmap: TransformedMap,
    variant: CoeffVariant = CoeffVariant.SYMMETRIZED,
) -> list[ExpansionTerm]:
    """All nonzero expansion terms of one source index, in canonical order
    (descending degree, then descending-lex within a degree).  Only exact
    zeros are dropped, in float and exact mode alike."""
    k = MultiIndex.of(k)
    m = tmap.A.cols
    _check_shape(k, m, tmap)
    levels = [(d, _q_level(m, d)) for d in q_support(k.degree())]
    return _read_coeffs(k, tmap, variant, levels)[0]


@functools.lru_cache(maxsize=1024, typed=True)
def _closed_form_prefactor(k: int, q_parts: tuple, b) -> tuple:
    """(k! b^i/(2^i q! i!), its float twin) with b a family's inverse
    variance, i = (k - |q|)/2: the prefactor of the inner-product and
    univariate closed forms.  An exact b gives a Fraction, a float b a
    float.  Fraction * float computes float(Fraction) * float, so a float
    operand takes the float twin and gets the same bits without the
    Fraction dispatch.  Beyond float range the twin is the Fraction itself:
    an exact operand still gets its exact value, and a float operand raises
    the OverflowError of Fraction * float.  The cache is typed, so an exact
    b and an equal float b keep their own prefactors."""
    i = (k - sum(q_parts)) // 2
    pref = Fraction(
        math.factorial(k), (1 << i) * mi_factorial(q_parts) * math.factorial(i)
    ) * b**i
    try:
        return pref, float(pref)
    except OverflowError:
        return pref, pref


def _vec_steps(k: int, qs, b) -> tuple:
    """The plan of _vec_values for the indices qs (parts tuples) under the
    inverse variance b: (powers, exponents, steps).  powers lists each
    (j, c) with lam_j ** c needed by some q, exponents each
    i = (k - |q|)/2, in first use.  The step of q is (pref, its float twin,
    i's place in exponents, the place of its first power, those of its
    others), pref from _closed_form_prefactor and the powers lam_j ** q_j of
    q's nonzero parts in ascending j.  Power places count from 1: place 0
    holds the lam_q = 1 of q = 0."""
    powers, exponents, steps = {}, {}, []
    for parts in qs:
        pref, pref_f = _closed_form_prefactor(k, parts, b)
        i = (k - sum(parts)) // 2
        at = [powers.setdefault((j, c), len(powers) + 1) for j, c in enumerate(parts) if c]
        steps.append((
            pref, pref_f, exponents.setdefault(i, len(exponents)),
            at[0] if at else 0, tuple(at[1:]),
        ))
    return tuple(powers), tuple(exponents), tuple(steps)


@functools.lru_cache(maxsize=64, typed=True)
def _vec_plan(k: int, m: int, b) -> tuple:
    """(qs, plan): every arity-m q of k's parity with |q| <= k, in the order
    of expand_from_map, and their _vec_steps under the inverse variance b.
    It depends on the shape and b alone, so one plan serves every vector
    of dimension m in both fields."""
    qs = tuple([q for d in q_support(k) for _, q in _q_level(m, d)])
    return qs, _vec_steps(k, [q.parts for q in qs], b)


def _vec_values(plan: tuple, lam: tuple) -> list:
    """pref * lam_q * (norm_sq - 1) ** i for each step of a _vec_steps plan,
    lam_q the product of q's powers lam_j ** q_j left to right over j.
    Each power and each (norm_sq - 1) ** i is taken once for the plan.
    norm_sq folds from the first square and lam_q from the first power:
    floats get the bits of folds from the int 0 and 1, since a square is
    never -0.0 and 1 * p is p, and exact values their type, without a
    reverse dispatch on the int.  One body serves both fields:
    coeff_vec_table's tables, and coeff_vec one q per call."""
    powers, exponents, steps = plan
    norm_sq = lam[0] * lam[0]
    for lj in lam[1:]:
        norm_sq = norm_sq + lj * lj
    spread = norm_sq - 1
    spreads = [spread**i for i in exponents]
    lam_powers = [1] + [lam[j] ** c for j, c in powers]
    out = []
    for pref, pref_f, at_i, first, rest in steps:
        lam_q = lam_powers[first]
        for r in rest:
            lam_q = lam_q * lam_powers[r]
        if isinstance(lam_q, float):
            out.append(pref_f * lam_q * spreads[at_i])
        else:
            out.append(pref * lam_q * spreads[at_i])
    return out


def coeff_vec_table(
    k: int, lam: DenseVector, family: HermiteFamily
) -> list[ExpansionTerm]:
    """Every nonzero inner-product coefficient of degree k, in the order of
    expand_from_map, from one pass over the cached plan of k, lam's
    dimension and the family's inverse variance b (_vec_plan): for every
    family, the c_q = k! b^i/(2^i q! i!) lam^q (|lam|^2 - 1)^i of H_k(lam^T x)
    over the H_q(x) of covariance I/b, i = (k - |q|)/2."""
    qs, plan = _vec_plan(k, lam.dim, family.inverse_variance)
    values = _vec_values(plan, lam.entries)
    return [ExpansionTerm(q, t) for q, t in zip(qs, values) if t != 0]


def coeff_vec(k: int, q: MultiIndex | Iterable[int], lam: DenseVector, family: HermiteFamily):
    """The inner-product coefficient c_q of coeff_vec_table, zero included,
    from a plan of q alone: the same expression, so the same bits."""
    q = MultiIndex.of(q)
    if q.arity != lam.dim:
        raise DimensionMismatchError(
            f"index arity {q.arity} does not match vector dim {lam.dim}"
        )
    _parity_split(MultiIndex((k,)), q)
    plan = _vec_steps(k, (q.parts,), family.inverse_variance)
    return _vec_values(plan, lam.entries)[0]


def coeff_univariate(k: int, i: int, lam, family: HermiteFamily = PROBABILISTS):
    """Coefficient of the degree k-2i term in the univariate multiplication
    identity for the scaled argument lam * x."""
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    if i < 0 or 2 * i > k:
        raise DomainError(f"term index i={i} out of range for degree {k}")
    if isinstance(lam, float) and not math.isfinite(lam):
        raise DomainError(f"non-finite scale {lam!r}")
    pref, pref_f = _closed_form_prefactor(k, (k - 2 * i,), family.inverse_variance)
    spread = (lam * lam - 1) ** i
    if isinstance(spread, float):
        pref = pref_f
    return pref * spread * lam ** (k - 2 * i)


def evaluate_expansion(
    terms: Iterable[ExpansionTerm], x: DenseVector, upsilon: SpdMatrix
):
    """Right-hand-side value sum(coeff * H_q(x)) in the given term order."""
    terms = list(terms)
    values = hermite_multi_batch([t.q for t in terms], x, upsilon)
    return left_sum(map(mul, [t.coeff for t in terms], values))
