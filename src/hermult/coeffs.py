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
l with M_il != 0 and c = (k' - e_i)_l > 0.  The plan (_sweep_plan) depends
only on k and the zero pattern of M and holds the int c, not c * M_il.  The
value pass visits the planned k' in increasing degree and pulls each
T[k', q'] from the two layers below it, for every q' of the parity of |k'|:

    acc = 0;  acc = acc + A_ij T[k'-e_i, q'-e_j]       for j ascending,
                    skipping A_ij == 0 and q'_j == 0;
    if |q'| < |k'|:  acc = acc + (c M_il) T[k'-e_i-e_l, q']  for l ascending,
                    c = (k'-e_i)_l, skipping M_il == 0 and c == 0.

Only the layers of degree d-1 and d-2 are kept while degree d is built.
Each entry is this one expression, in this operand order, over entries of
lower degree, so a float table is reproducible bit for bit.  q' is
addressed by its digits in radix MAX_EXPANSION_DEGREE + 1, listed with the
codes of its q' - e_j (_q_level); expand_from_map reads every q from the
table of k and coeff_from_map reads one.

Exact work runs on integers.  An exact (A, M) is built on int rows: with
Sigma^-1 = S/s, Lambda = L/e and Upsilon = U/u (each matrix's
`DenseMatrix.cleared_rows`), A_hat = S L^T U and M_hat = A_hat L S -
s e^2 u S are products of int rows (the `tensorlin` kernels), M_hat's
symmetry is checked on those rows, and each returned entry is one
Fraction: A = A_hat/(s e u) and M = M_hat/(s^2 e^2 u).  That is done when
Sigma^-1 holds only Fractions and Lambda and Upsilon are exact; other
inputs run the plain products.  T[k,q] has degree |q| in A and
(|k|-|q|)/2 in M, so with A = A_hat/alpha and M = M_hat/beta,
T[k,q] = T_hat[k,q] / (alpha^|q| beta^((|k|-|q|)/2)), T_hat being the same
sweep on the int rows, and one Fraction is made per returned nonzero entry.
A map of Fractions is swept on the `DenseMatrix.cleared_rows` of A and M,
which each matrix keeps, so a map is cleared once however often it is
swept.  Other maps run on their own entries, so no entry changes type (an
entry that no pull reaches stays the int 0 it starts from).  The literal
product (`_literal_coeff`) makes one Fraction per exact coefficient, and
reads the slot tuples and factorials of k and q from a cache per index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import sub
from typing import Iterable, NamedTuple

from .errors import (
    DimensionMismatchError,
    DomainError,
    ParityError,
    SizeLimitError,
)
from .hermite import (
    PHYSICISTS_KIND,
    PROBABILISTS,
    PROBABILISTS_KIND,
    HermiteFamily,
    hermite_multi_batch,
)
from .multiindex import (
    MultiIndex,
    ascending_tuple,
    enumerate_fixed_degree,
    mi_factorial,
    q_support,
)
from .tensorlin import (
    DenseMatrix,
    DenseVector,
    SpdMatrix,
    all_fractions,
    check_symmetric,
    check_symmetric_rows,
    entrywise_rows,
    fraction_rows,
    matmul_rows,
    scale_rows,
    transpose_rows,
)

# Expansion sources above this degree are rejected.  The recurrence is
# polynomial in |k|; the cap bounds the table built for outside input.
MAX_EXPANSION_DEGREE = 20

# Relative symmetry tolerance for the float-valued quadratic part.
MAP_SYMMETRY_RTOL = 1e-10


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
    `SpdMatrix`)."""
    if lam.rows != upsilon.rows or lam.cols != sigma_inv.rows:
        raise DimensionMismatchError(
            f"map shape {lam.rows}x{lam.cols} inconsistent with matrix dims "
            f"{sigma_inv.rows} and {upsilon.rows}"
        )
    if all_fractions(*sigma_inv.data) and lam.is_exact() and upsilon.is_exact():
        # Every product of a Fraction Sigma^-1 is a Fraction, so they run on
        # the int rows of Sigma^-1 = S/s, Lambda = L/e, Upsilon = U/u: with
        # A_hat = S L^T U, A = A_hat/(s e u) and
        # M = (A_hat L S - s e^2 u S)/(s^2 e^2 u).
        (sm, s), (lm, e), (um, u) = (
            sigma_inv.cleared_rows(), lam.cleared_rows(), upsilon.cleared_rows()
        )
        a_hat = matmul_rows(matmul_rows(sm, transpose_rows(lm)), um)
        p_hat = matmul_rows(matmul_rows(a_hat, lm), sm)
        m_hat = entrywise_rows(sub, p_hat, scale_rows(s * e * e * u, sm))
        check_symmetric_rows(m_hat, True)
        n, m = lam.cols, lam.rows
        return TransformedMap(
            A=DenseMatrix(n, m, fraction_rows(a_hat, s * e * u)),
            M=DenseMatrix(n, n, fraction_rows(m_hat, s * s * e * e * u)),
        )
    a = sigma_inv.matmul(lam.transpose()).matmul(upsilon)
    p = a.matmul(lam).matmul(sigma_inv)
    # M = P - Sigma^-1 is checked term by term, so an M that is rounding
    # error alone (Sigma = Lambda^T Upsilon Lambda makes it 0) passes.
    check_symmetric(p, rtol=MAP_SYMMETRY_RTOL)
    check_symmetric(sigma_inv, rtol=MAP_SYMMETRY_RTOL)
    return TransformedMap(A=a, M=p.sub(sigma_inv))


def _check_shape(k: MultiIndex, q_arity: int, tmap: TransformedMap) -> None:
    if k.arity != tmap.A.rows or q_arity != tmap.A.cols:
        raise DimensionMismatchError(
            f"arities ({k.arity}, {q_arity}) do not match map shape "
            f"{tmap.A.rows}x{tmap.A.cols}"
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
    """((A rows, M rows), scales): for a map of Fractions the int rows of
    A = A_hat/alpha and M = M_hat/beta with (alpha, beta), each matrix's
    kept `DenseMatrix.cleared_rows`; else the map's rows and None."""
    if all_fractions(*tmap.A.data, *tmap.M.data):
        (a, alpha), (m, beta) = tmap.A.cleared_rows(), tmap.M.cleared_rows()
        return (a, m), (alpha, beta)
    return (tmap.A.data, tmap.M.data), None


def _pulls_into(k: tuple, q: tuple, a_rows, m_rows) -> bool:
    """Whether the sweep adds any pull into T[k, q], for k != 0."""
    i = max(j for j, c in enumerate(k) if c)
    low = k[:i] + (k[i] - 1,) + k[i + 1 :]
    return any(a and qj for a, qj in zip(a_rows[i], q)) or (
        sum(q) < sum(k) and any(mv and c for mv, c in zip(m_rows[i], low))
    )


# Indices q are coded by their digits in this radix: every part of an
# expanded q is at most MAX_EXPANSION_DEGREE.
_Q_RADIX = MAX_EXPANSION_DEGREE + 1


@functools.lru_cache(maxsize=128)
def _q_level(m: int, d: int) -> tuple:
    """The (code, q, lowers) triples of every arity-m index q of degree d,
    in canonical order; lowers holds (j, code of q - e_j) for each j with
    q_j > 0, ascending."""
    weights = [_Q_RADIX ** (m - 1 - j) for j in range(m)]
    codes = [(_q_code(q.parts), q) for q in enumerate_fixed_degree(m, d)]
    return tuple(
        (code, q, tuple((j, code - weights[j]) for j, p in enumerate(q.parts) if p))
        for code, q in codes
    )


def _q_code(parts: tuple) -> int:
    code = 0
    for p in parts:
        code = code * _Q_RADIX + p
    return code


def _sweep_plan(k: tuple, m_rows) -> list:
    """The sweep's steps: steps[d], for d = 1..|k|, maps each needed k' of
    degree d to (i, k' - e_i, ((c, l, k' - e_i - e_l), ...)).  It reads
    only which entries of M are nonzero; see the module docstring."""
    top = sum(k)
    steps = [{} for _ in range(top + 1)]
    steps[top][k] = None
    for d in range(top, 0, -1):
        for kp in steps[d]:
            i = len(kp) - 1
            while kp[i] == 0:
                i -= 1
            low = kp[:i] + (kp[i] - 1,) + kp[i + 1 :]
            twice = []
            for l, mv in enumerate(m_rows[i]):
                c = low[l]
                if mv and c:
                    lower = low[:l] + (c - 1,) + low[l + 1 :]
                    twice.append((c, l, lower))
                    steps[d - 2][lower] = None
            steps[d - 1][low] = None
            steps[d][kp] = (i, low, twice)
    return steps


def _coeff_table(k: tuple, a_rows, m_rows) -> dict:
    """T[k, q] for every q of the parity of |k|, keyed by _q_code(q): the
    value pass over _sweep_plan (see the module docstring)."""
    m = len(a_rows[0])
    steps = _sweep_plan(k, m_rows)
    below, prev = {}, {(0,) * len(k): {0: 1}}
    for d in range(1, len(steps)):
        cur = {}
        for kp, (i, low, twice) in steps[d].items():
            src = prev[low]
            a_row, m_row = a_rows[i], m_rows[i]
            m_pulls = [(c * m_row[l], below[lower]) for c, l, lower in twice]
            t = {}
            for dq in range(d, -1, -2):
                pulls = m_pulls if dq < d else ()
                for code, _, lowers in _q_level(m, dq):
                    acc = 0
                    for j, lower_code in lowers:
                        a = a_row[j]
                        if a:
                            acc = acc + a * src[lower_code]
                    for cm, lower_t in pulls:
                        acc = acc + cm * lower_t[code]
                    t[code] = acc
            cur[kp] = t
        below, prev = prev, cur
    return prev[k]


def _reads_one_tuple(k: MultiIndex, variant: CoeffVariant) -> bool:
    """Whether T[k, .] is the literal product at the ascending slot tuple:
    always under paper-literal, and under symmetrized when k has at most
    one nonzero part, so its slot-tuple sum has a single tuple."""
    return variant is CoeffVariant.PAPER_LITERAL or sum(1 for c in k.parts if c) <= 1


def coeff_from_map(
    k: MultiIndex | Iterable[int],
    q: MultiIndex | Iterable[int],
    tmap: TransformedMap,
    variant: CoeffVariant = CoeffVariant.SYMMETRIZED,
):
    """Expansion coefficient for one (k, q) pair from a prebuilt map: one
    entry of the table that expand_from_map reads."""
    k = MultiIndex.of(k)
    q = MultiIndex.of(q)
    _check_shape(k, q.arity, tmap)
    pairs = _parity_split(k, q)
    rows, scales = _sweep_rows(tmap)
    alpha, beta = scales or (1, 1)
    den = alpha ** q.degree() * beta**pairs
    if _reads_one_tuple(k, variant):
        return _literal_coeff(k, q, pairs, rows, den)
    c = _coeff_table(k.parts, *rows)[_q_code(q.parts)]
    if scales is None or not (c or _pulls_into(k.parts, q.parts, *rows)):
        return c
    return Fraction(c, den)


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
    _check_shape(k, tmap.A.cols, tmap)
    top = k.degree()
    rows, scales = _sweep_rows(tmap)
    alpha, beta = scales or (1, 1)
    table = None if _reads_one_tuple(k, variant) else _coeff_table(k.parts, *rows)
    terms = []
    for d in q_support(top):
        pairs = (top - d) // 2
        den = alpha**d * beta**pairs
        for code, q, _ in _q_level(tmap.A.cols, d):
            if table is None:
                c = _literal_coeff(k, q, pairs, rows, den)
            else:
                c = table[code]
                if c and scales is not None:
                    c = Fraction(c, den)
            if c != 0:
                terms.append(ExpansionTerm(q, c))
    return terms


@functools.lru_cache(maxsize=1024)
def _closed_form_prefactor(k: int, q_parts: tuple, pair_weight: int) -> tuple:
    """(k!/(w^i q! i!), its float) with w = pair_weight, i = (k - |q|)/2:
    the prefactor of the inner-product and univariate closed forms.
    Fraction * float computes float(Fraction) * float, so a float operand
    takes the float twin and gets the same bits without the Fraction
    dispatch."""
    i = (k - sum(q_parts)) // 2
    pref = Fraction(
        math.factorial(k), pair_weight**i * mi_factorial(q_parts) * math.factorial(i)
    )
    return pref, float(pref)


def _vec_coeff(k: int, q: MultiIndex, lam: DenseVector, pair_weight: int):
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    if q.arity != lam.dim:
        raise DimensionMismatchError(
            f"index arity {q.arity} does not match vector dim {lam.dim}"
        )
    qd = q.degree()
    if qd > k or (k - qd) % 2:
        raise ParityError(
            f"degrees k={k}, |q|={qd} must satisfy |q| <= k with equal parity"
        )
    return _vec_values(k, (q.parts,), lam.entries, pair_weight)[0]


def _vec_values(k: int, qs, lam: tuple, pair_weight: int) -> list:
    """pref * lam_q * (norm_sq - 1) ** i for each q of qs (parts tuples),
    i = (k - |q|)/2, pref from _closed_form_prefactor and lam_q the product
    of lam_j ** q_j built left to right over j.  norm_sq - 1, each of its
    powers and each lam_j ** c are taken once for all of qs.  A lam of
    Fractions runs on its int rows: with lam = L/d and N = |L|^2 - d^2,
    the entry is pref * L^q * N^i / d^k, one Fraction per entry."""
    scale = None
    if all_fractions(lam):
        d = math.lcm(*[v.denominator for v in lam])
        lam = [v.numerator * (d // v.denominator) for v in lam]
        scale = d**k
        spread = sum(lj * lj for lj in lam) - d * d
    else:
        spread = sum(lj * lj for lj in lam) - 1
    spreads = {}
    powers = [{} for _ in lam]
    out = []
    for parts in qs:
        pref, pref_f = _closed_form_prefactor(k, parts, pair_weight)
        lam_q = 1
        for lj, seen, qj in zip(lam, powers, parts):
            if qj:
                p = seen.get(qj)
                if p is None:
                    p = seen[qj] = lj**qj
                lam_q = lam_q * p
        i = (k - sum(parts)) // 2
        s = spreads.get(i)
        if s is None:
            s = spreads[i] = spread**i
        if scale is not None:
            out.append(Fraction(pref.numerator * lam_q * s, pref.denominator * scale))
        elif isinstance(lam_q, float):
            out.append(pref_f * lam_q * s)
        else:
            out.append(pref * lam_q * s)
    return out


def coeff_vec_table(k: int, lam: DenseVector, pair_weight: int) -> list[ExpansionTerm]:
    """Every nonzero inner-product coefficient of degree k, in the order of
    expand_from_map, from one pass: pair_weight 2 gives coeff_vec_prob's
    values, 1 gives coeff_vec_phys's."""
    qs = [q for d in q_support(k) for q in enumerate_fixed_degree(lam.dim, d)]
    values = _vec_values(k, [q.parts for q in qs], lam.entries, pair_weight)
    return [ExpansionTerm(q, t) for q, t in zip(qs, values) if t != 0]


def coeff_vec_prob(k: int, q: MultiIndex | Iterable[int], lam: DenseVector):
    """Inner-product expansion coefficient, probabilists' family."""
    return _vec_coeff(k, MultiIndex.of(q), lam, 2)


def coeff_vec_phys(k: int, q: MultiIndex | Iterable[int], lam: DenseVector):
    """Inner-product expansion coefficient, physicists' family."""
    return _vec_coeff(k, MultiIndex.of(q), lam, 1)


def coeff_univariate(k: int, i: int, lam, family: HermiteFamily = PROBABILISTS):
    """Coefficient of the degree k-2i term in the univariate multiplication
    identity for the scaled argument lam * x."""
    if family.kind == PROBABILISTS_KIND:
        pair_weight = 2
    elif family.kind == PHYSICISTS_KIND:
        pair_weight = 1
    else:
        raise DomainError(
            f"univariate coefficients need probabilists or physicists, "
            f"got {family.kind!r}"
        )
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    if i < 0 or 2 * i > k:
        raise DomainError(f"term index i={i} out of range for degree {k}")
    pref, pref_f = _closed_form_prefactor(k, (k - 2 * i,), pair_weight)
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
    total = 0
    for t, h in zip(terms, values):
        total = total + t.coeff * h
    return total
