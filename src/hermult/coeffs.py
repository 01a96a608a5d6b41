"""Multiplication-theorem coefficients and full expansions.

Given covariances for both sides and a linear map, the Hermite polynomial
of the mapped argument expands over Hermite polynomials of the original
argument; this module computes the expansion coefficients in full
generality plus the isotropic, inner-product, and univariate reductions.

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

The recurrence runs as one bottom-up sweep per source index k.  A top-down
pass first finds the k' the sweep needs, starting from k: with i the
rightmost positive coordinate of a needed k', it needs k' - e_i, and
k' - e_i - e_l for every l with M_il != 0 and (k' - e_i)_l > 0.  The sweep
then visits those k' in increasing degree and pulls each T[k', q'] from
the two layers below it, for every q' of the parity of |k'|:

    acc = 0;  acc = acc + A_ij T[k'-e_i, q'-e_j]       for j ascending,
                    skipping A_ij == 0 and q'_j == 0;
    if |q'| < |k'|:  acc = acc + (c M_il) T[k'-e_i-e_l, q']  for l ascending,
                    c = (k'-e_i)_l, skipping M_il == 0 and c == 0.

Only the layers of degree d-1 and d-2 are kept while degree d is built.
Each entry is this one expression, in this operand order, over entries of
lower degree, so a float table is reproducible bit for bit.  q' is
addressed by its digits in radix MAX_EXPANSION_DEGREE + 1, so q' - e_j is
a fixed offset; expand_from_map reads every q from the table of k and
coeff_from_map reads one.

Exact maps run on integers.  T[k,q] has degree |q| in A and (|k|-|q|)/2
in M, so with A = A_hat/alpha and M = M_hat/beta,
T[k,q] = T_hat[k,q] / (alpha^|q| beta^((|k|-|q|)/2)), T_hat being the same
sweep on the int rows of A_hat and M_hat (`tensorlin.cleared` of A and
M), and one Fraction is made per returned nonzero entry.  That is done when
A and M hold only Fractions; other maps run on their own entries, so no
entry changes type (an entry that no pull reaches stays the int 0 it starts
from).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

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
    cleared,
    spd_factorize,
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


@dataclass(frozen=True)
class ExpansionTerm:
    q: MultiIndex
    coeff: object


def transformed_map(
    lam: DenseMatrix, sigma: SpdMatrix, upsilon: SpdMatrix
) -> TransformedMap:
    """Build (A, M) from the map and the two covariances."""
    if lam.rows != upsilon.dim or lam.cols != sigma.dim:
        raise DimensionMismatchError(
            f"map shape {lam.rows}x{lam.cols} inconsistent with covariance "
            f"dims {sigma.dim} and {upsilon.dim}"
        )
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
        # Sigma^-1 = S/s, Lambda = L/e, Upsilon = U/u: with A_hat = S L^T U,
        # A = A_hat/(s e u) and M = (A_hat L S - s e^2 u S)/(s^2 e^2 u).
        (sm, s), (lm, e), (um, u) = cleared(sigma_inv), cleared(lam), cleared(upsilon)
        a_hat = sm.matmul(lm.transpose()).matmul(um)
        m_hat = a_hat.matmul(lm).matmul(sm).sub(sm.scale(s * e * e * u))
        check_symmetric(m_hat)
        return TransformedMap(
            A=a_hat.scale(Fraction(1, s * e * u)),
            M=m_hat.scale(Fraction(1, s * s * e * e * u)),
        )
    a = sigma_inv.matmul(lam.transpose()).matmul(upsilon)
    m = a.matmul(lam).matmul(sigma_inv).sub(sigma_inv)
    check_symmetric(m, rtol=MAP_SYMMETRY_RTOL)
    return TransformedMap(A=a, M=m)


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


def _literal_coeff(k: MultiIndex, q: MultiIndex, pairs: int, rows: tuple, den: int):
    """k!/(2^i q! i!), i = pairs, times the contraction tensor at the
    ascending slot tuple e of k, over den; rows = (A rows, M rows).  The
    first |q| slots of e run in blocks of sizes q_j, block j multiplying
    column j of A; the remaining 2*pairs slots are read pairwise, pair
    (a, b) reading M[b][a]."""
    a_rows, m_rows = rows
    e = ascending_tuple(k)
    prod = 1
    for slot, col in zip(e, ascending_tuple(q)):
        prod = prod * a_rows[slot][col]
    split = q.degree()
    for p in range(split, split + 2 * pairs, 2):
        prod = prod * m_rows[e[p + 1]][e[p]]
    pref = Fraction(
        mi_factorial(k), (1 << pairs) * mi_factorial(q) * math.factorial(pairs) * den
    )
    return pref * prod


def _sweep_rows(tmap: TransformedMap):
    """((A rows, M rows), scales): the int rows of A_hat and M_hat with
    (alpha, beta) for a map of Fractions, else the map's rows and None."""
    if all_fractions(*tmap.A.data, *tmap.M.data):
        (a, alpha), (m, beta) = cleared(tmap.A), cleared(tmap.M)
        return (a.data, m.data), (alpha, beta)
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
    """The (code, q) pairs of every arity-m index q of degree d, in
    canonical order; lowering q_j subtracts _Q_RADIX**(m-1-j) from the code."""
    return tuple((_q_code(q.parts), q) for q in enumerate_fixed_degree(m, d))


def _q_code(parts: tuple) -> int:
    code = 0
    for p in parts:
        code = code * _Q_RADIX + p
    return code


def _coeff_table(k: tuple, a_rows, m_rows) -> dict:
    """T[k, q] for every q of the parity of |k|, keyed by _q_code(q); see
    the module docstring for the sweep."""
    top = sum(k)
    m = len(a_rows[0])
    weights = [_Q_RADIX ** (m - 1 - j) for j in range(m)]
    # Top down, the k' the sweep needs and how each is reached: the
    # rightmost positive coordinate i is lowered to give `low`, then each
    # l with M_il != 0 and low_l > 0 is lowered too.
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
                    twice.append((c * mv, lower))
                    steps[d - 2][lower] = None
            steps[d - 1][low] = None
            steps[d][kp] = (i, low, twice)
    # Bottom up, keeping only the layers of degree d-1 and d-2.
    below, prev = {}, {(0,) * len(k): {0: 1}}
    for d in range(1, top + 1):
        cur = {}
        for kp, (i, low, twice) in steps[d].items():
            src = prev[low]
            a_pulls = [(j, a, weights[j]) for j, a in enumerate(a_rows[i]) if a]
            m_pulls = [(cm, below[lower]) for cm, lower in twice]
            t = {}
            for dq in range(d, -1, -2):
                pulls = m_pulls if dq < d else ()
                for code, q in _q_level(m, dq):
                    parts = q.parts
                    acc = 0
                    for j, a, w in a_pulls:
                        if parts[j]:
                            acc = acc + a * src[code - w]
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
        for code, q in _q_level(tmap.A.cols, d):
            if table is None:
                c = _literal_coeff(k, q, pairs, rows, den)
            else:
                c = table[code]
                if c and scales is not None:
                    c = Fraction(c, den)
            if c != 0:
                terms.append(ExpansionTerm(q, c))
    return terms


def coeff_isotropic(
    k: MultiIndex | Iterable[int],
    q: MultiIndex | Iterable[int],
    lam: DenseMatrix,
    sigma_sq,
    variant: CoeffVariant = CoeffVariant.SYMMETRIZED,
):
    """Coefficient when both covariances are sigma_sq times the identity:
    coeff_general there, with A = Lambda^T, M = (Lambda^T Lambda - I) / sigma_sq."""
    if not sigma_sq > 0:
        raise DomainError(f"sigma_sq must be > 0, got {sigma_sq!r}")
    if isinstance(sigma_sq, float) and not math.isfinite(sigma_sq):
        raise DomainError(f"sigma_sq must be finite, got {sigma_sq!r}")
    sigma = spd_factorize(DenseMatrix.identity(lam.cols).scale(sigma_sq))
    upsilon = spd_factorize(DenseMatrix.identity(lam.rows).scale(sigma_sq))
    return coeff_general(k, q, lam, sigma, upsilon, variant)


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
    i = (k - qd) // 2
    pref, pref_f = _closed_form_prefactor(k, q.parts, pair_weight)
    lam_q = 1
    for lj, qj in zip(lam.entries, q.parts):
        if qj:
            lam_q = lam_q * lj**qj
    norm_sq = sum(lj * lj for lj in lam.entries)
    if isinstance(lam_q, float):
        pref = pref_f
    return pref * lam_q * (norm_sq - 1) ** i


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
