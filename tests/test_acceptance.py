"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them on success)."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hermult import (
    CoeffVariant,
    DenseMatrix,
    DenseVector,
    coeff_general,
    coeff_univariate,
    coeff_vec,
    hermite_multi_batch,
    oracle_compare,
    spd_factorize,
)
from hermult.cli import load_problem_spec
from hermult import coeffs
from hermult.hermite import PHYSICISTS, PROBABILISTS
from hermult.multiindex import MultiIndex, enumerate_fixed_degree
from hermult.polyoracle import MPoly, SymbolicHermiteFamily
from hermult.tensorlin import colwise_kron_power, kron_power
from hermult.verify import (
    TrialConfig,
    inner_product_error,
    trial_rng,
    univariate_identity_error,
    verify_generating_function,
    verify_selector_orthonormality,
)
from matrices import gram_plus_identity
from polyvalue import poly_value


def _report(num, name, failures, started):
    status = "PASS" if not failures else "FAIL"
    elapsed = time.time() - started
    print(f"[ACCEPTANCE] {num} {name}: {status} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def _rat_matrix(rng, rows, cols, p_max=2, q_max=2):
    """Entries p/q with |p| <= p_max and 1 <= q <= q_max."""
    return DenseMatrix.from_rows(
        [
            [
                Fraction(int(a), int(b))
                for a, b in zip(
                    rng.integers(-p_max, p_max + 1, size=cols),
                    rng.integers(1, q_max + 1, size=cols),
                )
            ]
            for _ in range(rows)
        ]
    )


def _rat_spd(rng, dim):
    q = DenseMatrix.from_rows(
        [[int(v) for v in row] for row in rng.integers(-2, 3, size=(dim, dim))]
    )
    return gram_plus_identity(q)


def test_criterion_1_exact_oracle_equivalence():
    started = time.time()
    failures = []
    trial = 0
    for n in (1, 2, 3):
        ks = [k for d in range(5) for k in enumerate_fixed_degree(n, d)]
        for m in (1, 2, 3):
            for k in ks:
                for _ in range(20):
                    rng = trial_rng(20260801, trial)
                    trial += 1
                    lam = _rat_matrix(rng, m, n)
                    res = oracle_compare(
                        k, lam, _rat_spd(rng, n), _rat_spd(rng, m),
                        CoeffVariant.SYMMETRIZED,
                    )
                    if not res.equal:
                        failures.append((n, m, k.parts, trial - 1))
    assert trial == 3300
    _report(1, "exact-oracle-equivalence", failures, started)


def _oracle_failures_at_degree(degree, seed):
    """(failures, trials) of oracle_compare over every k of one degree, for
    n, m <= 3, one seeded rational instance per (n, m, k)."""
    failures = []
    trial = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for k in enumerate_fixed_degree(n, degree):
                rng = trial_rng(seed, trial)
                trial += 1
                lam = _rat_matrix(rng, m, n)
                res = oracle_compare(
                    k, lam, _rat_spd(rng, n), _rat_spd(rng, m),
                    CoeffVariant.SYMMETRIZED,
                )
                if not res.equal:
                    failures.append((n, m, k.parts, trial - 1))
    return failures, trial


def test_criterion_1_exact_oracle_at_degree_six():
    started = time.time()
    failures, trials = _oracle_failures_at_degree(6, 20261018)
    assert trials == 108
    _report(1, "exact-oracle-degree-6", failures, started)


def test_criterion_1_exact_oracle_at_degree_eight():
    # Certifies every |k| = 8 index for n, m <= 3.
    started = time.time()
    failures, trials = _oracle_failures_at_degree(8, 20261019)
    assert trials == 165
    _report(1, "exact-oracle-degree-8", failures, started)


def test_criterion_1_exact_oracle_at_the_engine_cap():
    # Certifies the coefficient recurrence at the engine's cap, which is the
    # oracle's too: one seeded instance per (n, m), Lambda entries p/q with
    # |p| <= 4 and q <= 4.  The symmetrized form must compare equal and the
    # paper-literal form unequal; n = m = 4 runs the symmetrized form only,
    # as the paper-literal counterexample is already shown for n <= 3.
    started = time.time()
    failures = []
    both = (
        (CoeffVariant.SYMMETRIZED, True), (CoeffVariant.PAPER_LITERAL, False)
    )
    cases = [
        (2, (10, 10), both),
        (2, (7, 7, 6), both),
        (3, (7, 7, 6), both),
        (4, (5, 5, 5, 5), both[:1]),
    ]
    for trial, (m, k, variants) in enumerate(cases):
        assert sum(k) == coeffs.MAX_EXPANSION_DEGREE
        rng = trial_rng(20261020, trial)
        n = len(k)
        lam = _rat_matrix(rng, m, n, p_max=4, q_max=4)
        sigma, upsilon = _rat_spd(rng, n), _rat_spd(rng, m)
        for variant, want in variants:
            if oracle_compare(k, lam, sigma, upsilon, variant).equal != want:
                failures.append((n, m, k, variant.value, trial))
    _report(1, "exact-oracle-at-cap", failures, started)


LAMBDAS_FLOAT = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
LAMBDAS_EXACT = [
    Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
    Fraction(1, 2), Fraction(1), Fraction(2),
]
GRID_21 = [-3.0 + 0.3 * j for j in range(21)]


def test_criterion_2_univariate_closed_forms():
    started = time.time()
    failures = []
    for k in range(13):
        for lam in LAMBDAS_FLOAT:
            for family, name in ((PROBABILISTS, "he"), (PHYSICISTS, "h")):
                err = univariate_identity_error(family, k, lam, GRID_21)
                if not err <= 1e-9:
                    failures.append(("identity", name, k, lam, err))
    eye1 = spd_factorize(DenseMatrix.identity(1))
    half1 = spd_factorize(DenseMatrix.from_rows([[Fraction(1, 2)]]))
    for k in range(13):
        for lam in LAMBDAS_EXACT:
            lam_vec = DenseVector.from_entries([lam])
            lam_mat = DenseMatrix.from_rows([[lam]])
            for i in range(k // 2 + 1):
                q = MultiIndex((k - 2 * i,))
                uni_p = coeff_univariate(k, i, lam, PROBABILISTS)
                uni_h = coeff_univariate(k, i, lam, PHYSICISTS)
                ok = (
                    uni_p == coeff_vec(k, q, lam_vec, PROBABILISTS)
                    and uni_h == coeff_vec(k, q, lam_vec, PHYSICISTS)
                    and uni_p == coeff_general((k,), q, lam_mat, eye1, eye1)
                    and uni_h == coeff_general((k,), q, lam_mat, half1, half1)
                )
                if not ok:
                    failures.append(("chain", k, i, str(lam)))
    _report(2, "univariate-closed-forms", failures, started)


def test_criterion_3_inner_product_identity():
    started = time.time()
    failures = []
    for trial in range(200):
        rng = trial_rng(33, trial)
        m = int(rng.integers(1, 6))
        k = int(rng.integers(0, 9))
        lam = rng.uniform(-2, 2, size=m)
        x = rng.uniform(-2, 2, size=m)
        for family, name in ((PROBABILISTS, "he"), (PHYSICISTS, "h")):
            err = inner_product_error(family, k, lam, x)
            if not err <= 1e-8:
                failures.append((name, trial, k, m, err))
    _report(3, "inner-product-identity", failures, started)


def test_criterion_4_generating_function():
    started = time.time()
    report = verify_generating_function(
        TrialConfig(seed=44, trials=100, tol_rel=1e-10)
    )
    failures = (
        [] if report.failures == 0 else [("gf", report.failures, report.max_rel_err)]
    )
    assert report.checks_run == 100
    _report(4, "generating-function", failures, started)


def test_criterion_5_kron_identity_and_selector():
    started = time.time()
    failures = []
    trial = 0
    for n in (1, 2, 3):
        for cols in (1, 2, 3):
            for degree in range(5):
                for k in enumerate_fixed_degree(cols, degree):
                    rng = trial_rng(55, trial)
                    trial += 1
                    a = _rat_matrix(rng, n, cols)
                    b = DenseVector.from_entries(
                        [Fraction(int(v), 2) for v in rng.integers(-4, 5, size=n)]
                    )
                    atb = a.transpose().matvec(b)
                    lhs = Fraction(1)
                    for v, e in zip(atb.entries, k.parts):
                        lhs *= v**e
                    rhs = colwise_kron_power(a, k).dot(kron_power(b, degree))
                    if lhs != rhs:
                        failures.append(("exact", n, cols, k.parts))
                    af = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(n, cols)))
                    bf = DenseVector.from_entries(rng.uniform(-2, 2, size=n))
                    atbf = af.transpose().matvec(bf)
                    lhs_f = 1.0
                    for v, e in zip(atbf.entries, k.parts):
                        lhs_f *= v**e
                    rhs_f = colwise_kron_power(af, k).dot(kron_power(bf, degree))
                    if not abs(lhs_f - rhs_f) <= 1e-12 * max(1.0, abs(lhs_f), abs(rhs_f)):
                        failures.append(("float", n, cols, k.parts))
    for n in (1, 2, 3):
        for degree in range(5):
            rep = verify_selector_orthonormality(n, degree)
            if rep.failures:
                failures.append(("selector", n, degree))
    _report(5, "kron-identity-and-selector", failures, started)


def test_criterion_6_recurrence_vs_symbolic():
    started = time.time()
    failures = []
    for n in (1, 2, 3):
        ks = [k for d in range(6) for k in enumerate_fixed_degree(n, d)]
        for instance in range(2):
            rng = trial_rng(66, 100 * n + instance)
            sigma = _rat_spd(rng, n)
            spd = spd_factorize(sigma)
            family = SymbolicHermiteFamily(spd.inverse())
            polys = [family.poly(k) for k in ks]
            for _ in range(50):
                xs = [
                    Fraction(int(a), int(b))
                    for a, b in zip(
                        rng.integers(-3, 4, size=n), rng.integers(1, 4, size=n)
                    )
                ]
                x = DenseVector.from_entries(xs)
                values = hermite_multi_batch(ks, x, spd)
                for k, poly, val in zip(ks, polys, values):
                    if val != poly_value(poly, xs):
                        failures.append((n, instance, k.parts, [str(v) for v in xs]))
    _report(6, "recurrence-vs-symbolic", failures, started)


def test_criterion_7_erratum_demonstration():
    started = time.time()
    failures = []
    lam = DenseMatrix.from_rows([[0, 1], [1, 0]])
    eye = DenseMatrix.identity(2)
    lit = oracle_compare((1, 1), lam, eye, eye, CoeffVariant.PAPER_LITERAL)
    sym = oracle_compare((1, 1), lam, eye, eye, CoeffVariant.SYMMETRIZED)
    if not (not lit.equal and lit.rhs.is_zero() and lit.diff == MPoly(2, {(1, 1): 1})):
        failures.append(("literal", lit.equal))
    if not sym.equal:
        failures.append(("symmetrized", sym.equal))
    eye1 = spd_factorize(DenseMatrix.identity(1))
    half1 = spd_factorize(DenseMatrix.from_rows([[Fraction(1, 2)]]))
    for k in range(13):
        for lam_s in LAMBDAS_EXACT:
            lam_mat = DenseMatrix.from_rows([[lam_s]])
            for i in range(k // 2 + 1):
                q = MultiIndex((k - 2 * i,))
                for sig in (eye1, half1):
                    a = coeff_general((k,), q, lam_mat, sig, sig,
                                      CoeffVariant.SYMMETRIZED)
                    b = coeff_general((k,), q, lam_mat, sig, sig,
                                      CoeffVariant.PAPER_LITERAL)
                    if a != b:
                        failures.append(("variant-n1", k, i, str(lam_s)))
    _report(7, "erratum-demonstration", failures, started)


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    started = time.time()
    failures = []
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "k": [2, 1],
                "Lambda": [[0.7, -0.3], [0.25, 1.1]],
                "Sigma": [[2.0, 0.5], [0.5, 1.0]],
                "Upsilon": [[1.5, -0.25], [-0.25, 2.0]],
            }
        )
    )

    # The child runs the package this test imports, installed or not.
    src = str(Path(coeffs.__file__).resolve().parent.parent)

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "hermult", *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )

    exp = run("expand", "--spec", str(spec_path))
    exp_path = tmp_path / "exp.json"
    exp_path.write_text(exp.stdout)
    ev = run(
        "eval", "--expansion", str(exp_path), "--spec", str(spec_path),
        "--at", "0.37,-1.42",
    )
    spec = load_problem_spec(str(spec_path))
    sig = spd_factorize(spec.sigma)
    ups = spd_factorize(spec.upsilon)
    terms = coeffs.expand_general(spec.k, spec.lam, sig, ups)
    lib_value = coeffs.evaluate_expansion(
        terms, DenseVector.from_entries([0.37, -1.42]), ups
    )
    if json.loads(ev.stdout)["value"] != lib_value:
        failures.append(("round-trip", ev.stdout))

    a = run("verify", "--suite", "main", "--seed", "7", "--trials", "40")
    b = run("verify", "--suite", "main", "--seed", "7", "--trials", "40")
    if a.stdout != b.stdout or a.stdout == "":
        failures.append(("determinism-verify",))
    c = run("expand", "--spec", str(spec_path))
    if c.stdout != exp.stdout:
        failures.append(("determinism-expand",))
    if a.returncode != 0 or ev.returncode != 0:
        failures.append(("exit-codes", a.returncode, ev.returncode))
    _report(8, "cli-determinism-and-round-trip", failures, started)
