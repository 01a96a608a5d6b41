"""Randomized and exhaustive verification of the expansion identities.

A suite says only what a trial draws and what it checks.  `_run_trials`
hands trial t its own counter-based stream, a Philox4x64-10 keyed by
(seed, t) (`philox.PhiloxStream`), so reports depend only on the seed,
never on execution order.  Failures are data: `_report` counts them and
keeps the worst case instead of raising.

Per-trial error functions take plain JSON-friendly inputs (nested lists of
floats), so any report's worst case can be replayed directly.  The
univariate checks read tables built once per check: H_k at every point
from one call (`hermite.hermite_uni_grid`) and every inner-product
coefficient from one pass (`coeffs.coeff_vec_table`) over a plan cached
per degree, dimension and the family's inverse variance b.  The exact
chain's inner-product coefficients run the same body, one q each, and its
general ones the engine at each family's covariances I/b.  The kron suite's
exact half compares the two sides on the integer numerators of its
rational point: both sides have degree |k| in A and in b, so the common
denominator cancels (`kron_identity_exact`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

from . import coeffs
from .coeffs import CoeffVariant
from .errors import DomainError, SizeLimitError
from .hermite import (
    FAMILIES_BY_NAME,
    HermiteFamily,
    hermite_multi,
    hermite_multi_batch,
    hermite_uni,
    hermite_uni_grid,
    gf_partial_sum,
)
from .multiindex import MultiIndex, enumerate_fixed_degree, q_support
from .philox import PhiloxStream
from .tensorlin import (
    DenseMatrix,
    DenseVector,
    SpdMatrix,
    colwise_kron_power,
    kron_power,
    left_sum,
    spd_factorize,
)

RNG_NAME = "philox4x64"

# Interval of the uniform draws behind every randomized suite's inputs.
ENTRY_RANGE = (-2.0, 2.0)

# Largest dimension drawn for n and m by the main, gf and inner-product
# checks, and the largest degree |k| each randomized check draws.
MAX_DIM = 3
MAIN_MAX_DEGREE = 5
KRON_MAX_DEGREE = 4
UNIVARIATE_MAX_DEGREE = 12
INNER_PRODUCT_MAX_DEGREE = 8


@dataclass(frozen=True)
class TrialConfig:
    """Inputs controlling one randomized verification run."""

    seed: int
    trials: int = 100
    tol_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise DomainError("seed must be a natural below 2**64")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not self.tol_rel > 0:
            raise DomainError("tol_rel must be > 0")


@dataclass
class VerifyReport:
    """Aggregated outcome of one suite run."""

    checks_run: int
    failures: int
    max_rel_err: float
    worst_case: dict | None
    rng: str
    seed: int

    def to_json_obj(self) -> dict:
        # JSON has no nan or inf: a non-finite worst error is written as its repr.
        obj = asdict(self)
        if not math.isfinite(self.max_rel_err):
            obj["max_rel_err"] = obj["worst_case"]["rel_err"] = repr(self.max_rel_err)
        return obj


def trial_rng(seed: int, trial: int) -> PhiloxStream:
    """Independent per-trial stream: Philox4x64-10 keyed by (seed, trial),
    both in [0, 2**64).  Its draws are those of numpy's
    `Generator(Philox(key=[seed, trial]))` on the exact key; numpy rounds a
    key list holding a word >= 2**63 through float64, this stream does not."""
    return PhiloxStream(seed, trial)


def _spd_rows(rng, dim: int, lo: float, hi: float) -> list[list[float]]:
    """Q^T Q + I for uniform Q: symmetric, positive definite, moderate
    condition number.  Entry (i, j) is the left_sum of the products of
    columns i and j of Q, plus the int 1 on the diagonal, 0 off it."""
    q = list(zip(*rng.uniform(lo, hi, size=(dim, dim))))
    return [[left_sum(map(mul, a, b)) + (1 if a is b else 0) for b in q] for a in q]


def _draw_multiindex(rng, arity: int, degrees) -> MultiIndex:
    """A multi-index of the given arity, its degree drawn from degrees."""
    choices = enumerate_fixed_degree(arity, degrees[rng.integers(0, len(degrees))])
    return choices[rng.integers(0, len(choices))]


def _report(tol: float, seed: int, checks, rng_name: str = RNG_NAME) -> VerifyReport:
    """One pass over the (error, inputs) pairs of checks: an error not <= tol
    fails, and the largest error, or the first non-finite one, is the worst."""
    count = failures = 0
    max_err = 0.0
    worst = None
    for err, inputs in checks:
        count += 1
        if not err <= tol:
            failures += 1
        if worst is None or (math.isfinite(max_err) and not err <= max_err):
            max_err = err
            worst = dict(inputs, rel_err=err)
    return VerifyReport(
        checks_run=count,
        failures=failures,
        max_rel_err=max_err,
        worst_case=worst,
        rng=rng_name,
        seed=seed,
    )


def _run_trials(cfg: TrialConfig, checks) -> VerifyReport:
    """The report of cfg.trials trials: checks(rng, t) yields trial t's
    (error, inputs) pairs, drawing from rng = trial_rng(cfg.seed, t)."""
    trials = (checks(trial_rng(cfg.seed, t), t) for t in range(cfg.trials))
    return _report(cfg.tol_rel, cfg.seed, chain.from_iterable(trials))


def _guarded_rel_err(lhs: float, rhs: float, abs_term_sum: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs_term_sum)


def _sum_error(lhs: float, contribs) -> float:
    """Guarded relative error of lhs against the sum of contribs.  The sum
    and the sum of magnitudes run left to right from 0.0; the denominator
    max(1, |lhs|, sum |contrib|) keeps a cancelling sum from inflating it."""
    rhs = 0.0
    abs_sum = 0.0
    for contrib in contribs:
        rhs += contrib
        abs_sum += abs(contrib)
    return _guarded_rel_err(lhs, rhs, abs_sum)


def main_identity_error(
    k: list[int],
    lam: list[list[float]],
    sigma: list[list[float]],
    upsilon: list[list[float]],
    x: list[float],
    variant: CoeffVariant = CoeffVariant.SYMMETRIZED,
) -> float:
    """Relative discrepancy of one instance of the main expansion identity,
    with the cancellation-guarded denominator."""
    ki = MultiIndex.of(k)
    lam_m = DenseMatrix.from_rows(lam)
    sig = spd_factorize(DenseMatrix.from_rows(sigma))
    ups = spd_factorize(DenseMatrix.from_rows(upsilon))
    xv = DenseVector.from_entries(x)
    lhs = hermite_multi(ki, lam_m.transpose().matvec(xv), sig)
    terms = coeffs.expand_general(ki, lam_m, sig, ups, variant)
    values = hermite_multi_batch([term.q for term in terms], xv, ups)
    return _sum_error(lhs, [term.coeff * h for term, h in zip(terms, values)])


def verify_main_identity(
    cfg: TrialConfig, variant: CoeffVariant = CoeffVariant.SYMMETRIZED
) -> VerifyReport:
    lo, hi = ENTRY_RANGE

    def checks(rng, trial):
        n = rng.integers(1, MAX_DIM + 1)
        m = rng.integers(1, MAX_DIM + 1)
        k = _draw_multiindex(rng, n, range(MAIN_MAX_DEGREE + 1))
        inputs = {
            "trial": trial,
            "k": k.to_list(),
            "Lambda": rng.uniform(lo, hi, size=(m, n)),
            "Sigma": _spd_rows(rng, n, lo, hi),
            "Upsilon": _spd_rows(rng, m, lo, hi),
            "x": rng.uniform(lo, hi, size=m),
            "variant": variant.value,
        }
        yield main_identity_error(
            inputs["k"], inputs["Lambda"], inputs["Sigma"], inputs["Upsilon"],
            inputs["x"], variant,
        ), inputs

    return _run_trials(cfg, checks)


GF_DEGREE = 10


def gf_error(t: list[float], x: list[float], sigma: list[list[float]]) -> float:
    """Absolute gap between the degree-10 partial sum and the closed-form
    exponential."""
    sig = spd_factorize(DenseMatrix.from_rows(sigma))
    tv = DenseVector.from_entries(t)
    xv = DenseVector.from_entries(x)
    partial = gf_partial_sum(tv, xv, sig, GF_DEGREE)
    inv = sig.inverse()
    exponent = tv.dot(inv.matvec(xv)) - 0.5 * tv.dot(inv.matvec(tv))
    return abs(partial - math.exp(exponent))


def verify_generating_function(cfg: TrialConfig) -> VerifyReport:
    lo, hi = ENTRY_RANGE

    def checks(rng, trial):
        n = rng.integers(1, MAX_DIM + 1)
        scale_t = 0.1 / math.sqrt(n)
        scale_x = 1.0 / math.sqrt(n)
        inputs = {
            "trial": trial,
            "t": [scale_t * v for v in rng.uniform(-1.0, 1.0, size=n)],
            "x": [scale_x * v for v in rng.uniform(-1.0, 1.0, size=n)],
            "Sigma": _spd_rows(rng, n, lo, hi),
        }
        yield gf_error(inputs["t"], inputs["x"], inputs["Sigma"]), inputs

    return _run_trials(cfg, checks)


def _kron_sides(a: list[list], b: list, k: list[int]) -> tuple:
    """Both sides of the identity, in the field of the entries: the
    componentwise power (A^T b)^k and the columnwise-Kronecker-power
    contraction."""
    am = DenseMatrix.from_rows(a)
    bv = DenseVector.from_entries(b)
    ki = MultiIndex.of(k)
    lhs = 1
    for v, e in zip(am.transpose().matvec(bv).entries, ki.parts):
        lhs *= v**e
    return lhs, colwise_kron_power(am, ki).dot(kron_power(bv, ki.degree()))


def kron_identity_error(a: list[list[float]], b: list[float], k: list[int]) -> float:
    """Relative gap between the two sides of the identity at float inputs."""
    lhs, rhs = _kron_sides(a, b, k)
    return _sum_error(lhs, (rhs,))


def kron_identity_exact(a_num: list[list[int]], b_num: list[int], den: int, k: list[int]) -> bool:
    """Exact check of the same identity at the rational point
    A = a_num/den, b = b_num/den, run on the numerators.  Each side has
    degree |k| in A and |k| in b, so at that point both equal their value
    on the numerators times den^(-2|k|), and they agree there exactly when
    they agree on the integers.  den must be nonzero; a negative den names
    a valid point, since den^(2|k|) > 0."""
    if den == 0:
        raise DomainError("den must be nonzero")
    lhs, rhs = _kron_sides(a_num, b_num, k)
    return lhs == rhs


def verify_kron_identity(cfg: TrialConfig) -> VerifyReport:
    lo, hi = ENTRY_RANGE

    def checks(rng, trial):
        rows = rng.integers(1, 5)
        cols = rng.integers(1, 5)
        k = _draw_multiindex(rng, cols, range(KRON_MAX_DEGREE + 1))
        inputs = {
            "trial": trial,
            "A": rng.uniform(lo, hi, size=(rows, cols)),
            "b": rng.uniform(lo, hi, size=rows),
            "k": k.to_list(),
        }
        yield kron_identity_error(inputs["A"], inputs["b"], inputs["k"]), inputs
        a_num = rng.integers(-4, 5, size=(rows, cols))
        b_num = rng.integers(-4, 5, size=rows)
        den = rng.integers(1, 4)
        exact_inputs = {
            "trial": trial,
            "A_num": a_num,
            "b_num": b_num,
            "den": den,
            "k": k.to_list(),
        }
        ok = kron_identity_exact(a_num, b_num, den, inputs["k"])
        yield 0.0 if ok else 1.0, exact_inputs

    return _run_trials(cfg, checks)


def verify_selector_orthonormality(n: int, total_degree: int) -> VerifyReport:
    """Pairwise inner products of the identity's columnwise Kronecker
    powers at one fixed degree; exact 0/1 arithmetic throughout."""
    if n > 3 or total_degree > 4:
        raise SizeLimitError(
            f"selector check capped at n <= 3, degree <= 4, got ({n}, {total_degree})"
        )
    return _report(0.5, 0, _selector_checks(n, total_degree), rng_name="none")


def verify_selectors() -> VerifyReport:
    """The selector checks at every n <= 3 and degree <= 4, as one report."""
    checks = (_selector_checks(n, degree) for n in range(1, 4) for degree in range(5))
    return _report(0.5, 0, chain.from_iterable(checks), rng_name="none")


def _selector_checks(n: int, total_degree: int):
    """(|<s_a, s_b> - [a == b]|, inputs) for each pair a <= b of selectors."""
    eye = DenseMatrix.identity(n)
    ks = enumerate_fixed_degree(n, total_degree)
    selectors = [colwise_kron_power(eye, k) for k in ks]
    for a in range(len(ks)):
        for b in range(a, len(ks)):
            expected = 1 if a == b else 0
            dev = abs(selectors[a].dot(selectors[b]) - expected)
            yield float(dev), {
                "n": n,
                "degree": total_degree,
                "k_a": ks[a].to_list(),
                "k_b": ks[b].to_list(),
            }


def univariate_identity_error(
    family: HermiteFamily, k: int, lam: float, xs: list[float]
) -> float:
    """Worst guarded relative error of the univariate multiplication
    identity over the grid xs."""
    coefficients = [
        coeffs.coeff_univariate(k, i, lam, family) for i in range(k // 2 + 1)
    ]
    worst = 0.0
    types = tuple(map(type, (family.inverse_variance, *xs)))
    rows = _grid_rows(family, types, tuple(xs), max(k, UNIVARIATE_MAX_DEGREE))
    lhs_tables = hermite_uni_grid(family, k, [lam * x for x in xs])
    for lhs, values in zip(lhs_tables, rows):
        # coefficient i multiplies H_{k-2i}(x): values k, k-2, ... down.
        worst = max(worst, _sum_error(lhs[k], map(mul, coefficients, values[k::-2])))
    return worst


@functools.lru_cache(maxsize=16)
def _grid_rows(family: HermiteFamily, types: tuple, xs: tuple, degree: int) -> tuple:
    """hermite_uni_grid(family, degree, xs) as a tuple.  The recurrence's
    j-th value does not depend on the degree asked for, so the table of any
    k <= degree is a prefix of its row, bit for bit.  The types of b and of
    each x key it too: scaled(3) == scaled(3.0), but their bits differ."""
    return tuple(hermite_uni_grid(family, degree, xs))


def inner_product_error(
    family: HermiteFamily, k: int, lam: list[float], x: list[float]
) -> float:
    """Guarded relative error of the inner-product expansion identity at
    one point."""
    lam_v = DenseVector.from_entries(lam)
    x_v = DenseVector.from_entries(x)
    lhs = hermite_uni(family, k, lam_v.dot(x_v))
    tables = hermite_uni_grid(family, k, x)
    contribs = []
    for t in coeffs.coeff_vec_table(k, lam_v, family):
        prod = 1.0
        for qj, table in zip(t.q.parts, tables):
            prod *= table[qj]
        contribs.append(t.coeff * prod)
    return _sum_error(lhs, contribs)


_UNIVARIATE_GRID = tuple(round(-3.0 + 0.3 * j, 10) for j in range(21))


@functools.lru_cache(maxsize=16)
def _exact_covariances(b, m: int) -> tuple[SpdMatrix, ...]:
    """I/b of dimensions 1 and m, exact and factorised: the Sigma and
    Upsilon of the exact chain at the family of inverse variance b."""
    return tuple(spd_factorize(DenseMatrix.identity(d).scale(Fraction(1) / b)) for d in (1, m))


def _coeff_chain_exact(k: int, lam: Fraction, m: int, q: MultiIndex) -> bool:
    """Exact agreement of the univariate, inner-product, and general
    coefficient routes for one (k, q, lam) at each family of the suite,
    the general one at the family's covariances I/b."""
    lam_vec = DenseVector.from_entries([lam] * m)
    lam_mat = DenseMatrix(m, 1, tuple((lam,) for _ in range(m)))
    families = FAMILIES_BY_NAME.values()
    vec = [coeffs.coeff_vec(k, q, lam_vec, f) for f in families]
    gen = [
        coeffs.coeff_general((k,), q, lam_mat, *_exact_covariances(f.inverse_variance, m))
        for f in families
    ]
    if m > 1 or vec != gen:
        return vec == gen
    i = (k - q.degree()) // 2
    return all(v == coeffs.coeff_univariate(k, i, lam, f) for v, f in zip(vec, families))


def verify_univariate_closed_forms(cfg: TrialConfig) -> VerifyReport:
    """Multiplication identity for scalar and inner-product arguments, plus
    exact agreement of every coefficient specialization."""
    lo, hi = ENTRY_RANGE

    def checks(rng, trial):
        k = rng.integers(0, UNIVARIATE_MAX_DEGREE + 1)
        lam = rng.uniform(lo, hi)
        for name, family in FAMILIES_BY_NAME.items():
            err = univariate_identity_error(family, k, lam, _UNIVARIATE_GRID)
            yield err, {"trial": trial, "check": "scalar", "family": name, "k": k,
                        "lam": lam}
        m = rng.integers(1, MAX_DIM + 1)
        k_ip = rng.integers(0, INNER_PRODUCT_MAX_DEGREE + 1)
        lam_vec = rng.uniform(lo, hi, size=m)
        x_vec = rng.uniform(lo, hi, size=m)
        for name, family in FAMILIES_BY_NAME.items():
            err = inner_product_error(family, k_ip, lam_vec, x_vec)
            yield err, {"trial": trial, "check": "inner-product", "family": name,
                        "k": k_ip, "lam": lam_vec, "x": x_vec}
        lam_exact = Fraction(rng.integers(-4, 5), rng.integers(1, 4))
        q = _draw_multiindex(rng, m, q_support(k_ip))
        ok = _coeff_chain_exact(k_ip, lam_exact, m, q)
        yield 0.0 if ok else 1.0, {"trial": trial, "check": "coeff-chain", "k": k_ip,
                                   "lam": str(lam_exact), "q": q.to_list()}

    return _run_trials(cfg, checks)


# Each suite of `hermult verify`: a runner taking the trial config and the
# coefficient variant, and the default tolerance.  `all` runs them in this
# order.  The runners look each suite up by name when called, so a
# rebinding of this module's functions (as a tracer does) reaches them.
SUITES = {
    "main": (lambda cfg, variant: verify_main_identity(cfg, variant), 1e-8),
    "gf": (lambda cfg, variant: verify_generating_function(cfg), 1e-10),
    "kron": (lambda cfg, variant: verify_kron_identity(cfg), 1e-12),
    "selector": (lambda cfg, variant: verify_selectors(), 0.5),
    "univariate": (lambda cfg, variant: verify_univariate_closed_forms(cfg), 1e-9),
}
