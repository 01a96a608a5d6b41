import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import hermult
from hermult import coeffs, verify
from hermult.coeffs import CoeffVariant
from hermult.cli import main
from hermult.errors import DomainError, SizeLimitError
from hermult.hermite import (
    HermiteFamily,
    MAX_GF_DEGREE,
    PHYSICISTS,
    PROBABILISTS,
    gf_partial_sum,
    hermite_multi,
    hermite_uni,
)
from hermult.multiindex import (
    MultiIndex,
    enumerate_fixed_degree,
    mi_factorial,
    q_support,
)
from hermult.tensorlin import DenseMatrix, DenseVector, spd_factorize
from hermult.verify import (
    GF_DEGREE,
    MAIN_MAX_DEGREE,
    TrialConfig,
    gf_error,
    inner_product_error,
    kron_identity_error,
    main_identity_error,
    trial_rng,
    univariate_identity_error,
    verify_generating_function,
    verify_kron_identity,
    verify_main_identity,
    verify_selector_orthonormality,
    verify_univariate_closed_forms,
)
from matrices import gram_plus_identity


def test_main_identity_suite_passes():
    r = verify_main_identity(TrialConfig(seed=7, trials=40))
    assert r.checks_run == 40
    assert r.failures == 0
    assert r.max_rel_err <= 1e-10
    assert r.rng == "philox4x64"
    assert r.seed == 7


def test_main_identity_paper_literal_fails_somewhere():
    r = verify_main_identity(TrialConfig(seed=7, trials=15), CoeffVariant.PAPER_LITERAL)
    assert r.failures > 0


def test_variants_coincide_for_scalar_left_side():
    # At n = m = 1, k has one part, so its ascending slot tuple is its only
    # one and both variants give the same table.
    for trial in range(30):
        rng = trial_rng(7, trial)
        k = [int(rng.integers(0, MAIN_MAX_DEGREE + 1))]
        lam = [[float(rng.uniform(-2.0, 2.0))]]
        sigma = [[float(rng.uniform(0.5, 3.0))]]
        upsilon = [[float(rng.uniform(0.5, 3.0))]]
        x = [float(rng.uniform(-2.0, 2.0))]
        lit, sym = (
            main_identity_error(k, lam, sigma, upsilon, x, variant)
            for variant in (CoeffVariant.PAPER_LITERAL, CoeffVariant.SYMMETRIZED)
        )
        assert lit == sym <= 1e-8


def test_reports_are_deterministic():
    cfg = TrialConfig(seed=123, trials=25)
    a = verify_main_identity(cfg)
    b = verify_main_identity(cfg)
    assert a == b
    ga = verify_generating_function(TrialConfig(seed=5, trials=20, tol_rel=1e-10))
    gb = verify_generating_function(TrialConfig(seed=5, trials=20, tol_rel=1e-10))
    assert ga == gb


def test_worst_case_replays_main():
    r = verify_main_identity(TrialConfig(seed=11, trials=30))
    wc = r.worst_case
    err = main_identity_error(
        wc["k"], wc["Lambda"], wc["Sigma"], wc["Upsilon"], wc["x"],
        CoeffVariant(wc["variant"]),
    )
    assert err <= 2 * max(r.max_rel_err, 1e-300) or err == r.max_rel_err
    assert err == pytest.approx(wc["rel_err"], rel=1e-9, abs=1e-18)


@pytest.mark.parametrize("lam", [0.5, 3.0])
@pytest.mark.parametrize("ups", [1e-6, 1e6])
def test_main_identity_holds_under_scaled_covariance(lam, ups):
    # Terms small relative to the largest one still matter: the basis is
    # not normalised, so only exact zeros may be dropped.
    assert main_identity_error([10], [[lam]], [[1.0]], [[ups]], [0.9]) <= 1e-12


def test_main_identity_at_degree_twenty():
    err = main_identity_error(
        [10, 10],
        [[0.7, -0.3], [0.25, 1.1]],
        [[2.0, 0.5], [0.5, 1.0]],
        [[1.5, -0.25], [-0.25, 2.0]],
        [0.3, -0.4],
    )
    assert err <= 1e-12


def test_worst_case_replays_gf():
    r = verify_generating_function(TrialConfig(seed=11, trials=25, tol_rel=1e-10))
    wc = r.worst_case
    err = gf_error(wc["t"], wc["x"], wc["Sigma"])
    assert err == pytest.approx(wc["rel_err"], rel=1e-9, abs=1e-18)


def test_worst_case_replays_kron():
    r = verify_kron_identity(TrialConfig(seed=3, trials=25, tol_rel=1e-12))
    assert r.failures == 0
    wc = r.worst_case
    if "A" in wc:
        err = kron_identity_error(wc["A"], wc["b"], wc["k"])
        assert err == pytest.approx(wc["rel_err"], rel=1e-9, abs=1e-18)


def test_gf_suite_passes():
    r = verify_generating_function(TrialConfig(seed=2, trials=40, tol_rel=1e-10))
    assert r.failures == 0
    assert r.checks_run == 40


def test_gf_error_zero_displacement():
    assert gf_error([0.0, 0.0], [0.4, -0.2], [[1.0, 0.0], [0.0, 1.0]]) == 0.0


def test_kron_suite_counts_both_modes():
    r = verify_kron_identity(TrialConfig(seed=9, trials=20, tol_rel=1e-12))
    assert r.checks_run == 40
    assert r.failures == 0


def test_selector_suite():
    r = verify_selector_orthonormality(2, 2)
    assert r.failures == 0
    assert r.checks_run == 6  # three selectors, ordered pairs incl. self
    assert r.max_rel_err == 0.0
    r1 = verify_selector_orthonormality(1, 3)
    assert r1.checks_run == 1 and r1.failures == 0
    r2 = verify_selector_orthonormality(2, 1)
    assert r2.checks_run == 3 and r2.failures == 0
    with pytest.raises(SizeLimitError):
        verify_selector_orthonormality(4, 2)
    with pytest.raises(SizeLimitError):
        verify_selector_orthonormality(2, 5)


def test_univariate_suite_passes():
    r = verify_univariate_closed_forms(TrialConfig(seed=21, trials=40, tol_rel=1e-9))
    assert r.failures == 0
    assert r.checks_run == 40 * 5


def test_univariate_error_helpers():
    grid = [-3.0 + 0.3 * j for j in range(21)]
    assert univariate_identity_error(PROBABILISTS, 6, 1.0, grid) <= 1e-14
    assert univariate_identity_error(PHYSICISTS, 0, -2.0, grid) == 0.0
    assert inner_product_error(PROBABILISTS, 3, [0.5, -0.5], [1.0, 2.0]) <= 1e-12


def test_trial_rng_streams_are_stable_and_independent():
    a = trial_rng(42, 0).uniform(0, 1, 3)
    b = trial_rng(42, 0).uniform(0, 1, 3)
    c = trial_rng(42, 1).uniform(0, 1, 3)
    assert a == b
    assert a != c


def _draw_plan(pick: random.Random, count: int) -> list[tuple]:
    """Seeded mix of every draw pattern verify and the tests use, plus wide
    integer spans that take Lemire's rejection branch."""
    plan = []
    for _ in range(count):
        size = pick.choice([None, None, pick.randint(1, 5), (pick.randint(1, 4), pick.randint(1, 4))])
        kind = pick.random()
        if kind < 0.45:
            low = pick.randint(-20, 20)
            plan.append(("integers", (low, low + pick.randint(1, 40)), size))
        elif kind < 0.5:
            span = pick.choice([2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])
            plan.append(("integers", (-7, span - 7), size))
        elif kind < 0.6:
            plan.append(("uniform", (), None))
        else:
            low = pick.uniform(-3.0, 3.0)
            plan.append(("uniform", (low, low + pick.uniform(0.1, 4.0)), size))
    return plan


def _plain(value):
    """numpy draws as Python numbers and lists."""
    return value.tolist() if hasattr(value, "tolist") else value


def test_trial_rng_matches_numpy_philox_bit_for_bit():
    import numpy as np

    pick = random.Random(20261018)
    seeds = [0, 1, 42, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]
    seeds += [pick.randrange(2**64) for _ in range(12)] + [pick.randrange(1000) for _ in range(4)]
    trials = [0, 1, 2, 99, 2**31, 2**32 - 1, 2**32, 2**64 - 1]
    keys = [(s, t) for s in seeds for t in trials]
    assert len(keys) >= 200
    for seed, trial in keys:
        # A uint64 key array keys numpy exactly; below 2**63 it equals the
        # key list [seed, trial].
        twin = np.random.Generator(
            np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
        )
        stream = trial_rng(seed, trial)
        for method, args, size in _draw_plan(pick, 12):
            got = getattr(stream, method)(*args, size=size)
            want = _plain(getattr(twin, method)(*args, size=size))
            assert repr(got) == repr(want), (seed, trial, method, args, size)
    # Below 2**63 numpy takes the key list as it is.
    for seed, trial in [(2**63 - 1, 2**32), (7, 3)]:
        twin = np.random.Generator(np.random.Philox(key=[seed, trial]))
        assert trial_rng(seed, trial).uniform(size=9) == twin.uniform(size=9).tolist()


def test_trial_rng_integer_spans():
    stream = trial_rng(5, 5)
    assert stream.integers(-3, -2, size=(2, 3)) == [[-3] * 3] * 2
    # A span of 1 takes no draw.
    assert stream.integers(0, 9, size=5) == trial_rng(5, 5).integers(0, 9, size=5)
    for low, high in [(0, 0), (3, 2), (0, 2**32 + 1)]:
        with pytest.raises(DomainError):
            stream.integers(low, high)
    for key in [(2**64, 0), (0, -1)]:
        with pytest.raises(DomainError):
            trial_rng(*key)


def test_seeds_above_two_to_the_63_are_distinct():
    # numpy's key list went through float64 above 2**63: 2**63 + 1 gave the
    # trials of 2**63, and 2**64 - 1 those of seed 0.
    def body(seed):
        return dict(verify_main_identity(TrialConfig(seed=seed, trials=4)).to_json_obj(), seed=None)

    assert body(2**63) != body(2**63 + 1)
    assert body(2**64 - 1) != body(0)


def test_largest_seed_runs_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--suite", "main", "--seed", str(2**64 - 1), "--trials", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["report"]["seed"] == 2**64 - 1


@pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 2**65])
def test_seeds_from_two_to_the_64_are_refused(capsys, seed):
    with pytest.raises(DomainError):
        TrialConfig(seed=seed)
    assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_report_json_shape():
    r = verify_main_identity(TrialConfig(seed=1, trials=5))
    obj = r.to_json_obj()
    assert list(obj.keys()) == [
        "checks_run", "failures", "max_rel_err", "worst_case", "rng", "seed",
    ]



@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("before", [[], [1e-12]])
def test_first_non_finite_error_is_the_worst_case(bad, before):
    errs = [*before, bad, 1e-11, math.inf, math.nan]
    report = verify._report(1e-10, 3, ((err, {"trial": trial}) for trial, err in enumerate(errs)))
    assert report.failures == 3
    assert report.worst_case["trial"] == len(before)
    assert repr(report.max_rel_err) == repr(bad)
    # JSON has no nan or inf, so the report writes them as strings.
    obj = report.to_json_obj()
    assert obj["max_rel_err"] == obj["worst_case"]["rel_err"] == repr(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("suite", ["gf", "all"])
def test_non_finite_check_error_fails_the_run(monkeypatch, capsys, bad, suite):
    errs = iter([1e-16, bad])
    monkeypatch.setattr(verify, "gf_error", lambda t, x, sigma: next(errs, 1e-15))
    assert main(["verify", "--suite", suite, "--seed", "1", "--trials", "5"]) == 1
    out = json.loads(capsys.readouterr().out)
    report = out["report"] if suite == "gf" else out["reports"]["gf"]
    assert report["failures"] == 1
    assert report["max_rel_err"] == report["worst_case"]["rel_err"] == repr(bad)
    assert report["worst_case"]["trial"] == 1
    if suite == "all":
        others = [r for name, r in out["reports"].items() if name != "gf"]
        assert all(r["failures"] == 0 for r in others)

# Per-term references: every Hermite value is computed on its own.  The
# error functions share one recurrence pass per trial and must give the
# same bits.


def _guarded(lhs, rhs, abs_sum):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs_sum)


def _main_error_per_term(k, lam, sigma, upsilon, x, variant):
    ki = MultiIndex.of(k)
    lam_m = DenseMatrix.from_rows(lam)
    sig = spd_factorize(DenseMatrix.from_rows(sigma))
    ups = spd_factorize(DenseMatrix.from_rows(upsilon))
    xv = DenseVector.from_entries(x)
    lhs = hermite_multi(ki, lam_m.transpose().matvec(xv), sig)
    rhs = 0.0
    abs_sum = 0.0
    for term in coeffs.expand_general(ki, lam_m, sig, ups, variant):
        contrib = term.coeff * hermite_multi(term.q, xv, ups)
        rhs += contrib
        abs_sum += abs(contrib)
    return _guarded(lhs, rhs, abs_sum)


def _univariate_error_per_term(family, k, lam, xs):
    worst = 0.0
    for x in xs:
        lhs = hermite_uni(family, k, lam * x)
        rhs = 0.0
        abs_sum = 0.0
        for i in range(k // 2 + 1):
            contrib = coeffs.coeff_univariate(k, i, lam, family) * hermite_uni(
                family, k - 2 * i, x
            )
            rhs += contrib
            abs_sum += abs(contrib)
        worst = max(worst, _guarded(lhs, rhs, abs_sum))
    return worst


def _inner_product_error_per_term(family, k, lam, x):
    lam_v = DenseVector.from_entries(lam)
    lhs = hermite_uni(family, k, lam_v.dot(DenseVector.from_entries(x)))
    rhs = 0.0
    abs_sum = 0.0
    for d in q_support(k):
        for q in enumerate_fixed_degree(lam_v.dim, d):
            t = coeffs.coeff_vec(k, q, lam_v, family)
            if t == 0:
                continue
            prod = 1.0
            for qj, xj in zip(q.parts, x):
                prod *= hermite_uni(family, qj, xj)
            contrib = t * prod
            rhs += contrib
            abs_sum += abs(contrib)
    return _guarded(lhs, rhs, abs_sum)


def _gf_partial_per_term(tv, xv, sig, degree_cap):
    total = 0
    for d in range(degree_cap + 1):
        for k in enumerate_fixed_degree(xv.dim, d):
            tk = 1
            for ti, ki in zip(tv.entries, k.parts):
                if ki:
                    tk = tk * ti**ki
            if tk == 0:
                continue
            total = total + Fraction(1, mi_factorial(k)) * tk * hermite_multi(k, xv, sig)
    # A float input makes the sum a float even when only the k = 0 term is left.
    entries = tv.entries + xv.entries + sum(sig.matrix.data, ())
    return float(total) if any(isinstance(v, float) for v in entries) else total


def _gf_error_per_term(t, x, sigma):
    sig = spd_factorize(DenseMatrix.from_rows(sigma))
    tv = DenseVector.from_entries(t)
    xv = DenseVector.from_entries(x)
    total = _gf_partial_per_term(tv, xv, sig, GF_DEGREE)
    inv = sig.inverse()
    exponent = tv.dot(inv.matvec(xv)) - 0.5 * tv.dot(inv.matvec(tv))
    return abs(total - math.exp(exponent))


def _rows(rng, rows, cols):
    return [[rng.uniform(-2.0, 2.0) for _ in range(cols)] for _ in range(rows)]


def _spd(rng, dim):
    q = DenseMatrix.from_rows(_rows(rng, dim, dim))
    return [list(row) for row in gram_plus_identity(q).data]


@pytest.mark.parametrize("variant", list(CoeffVariant))
def test_main_identity_error_is_bit_identical_to_per_term(variant):
    rng = random.Random(31)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        degree = rng.randint(0, 6)
        k = rng.choice(enumerate_fixed_degree(n, degree)).to_list()
        args = (k, _rows(rng, m, n), _spd(rng, n), _spd(rng, m),
                [rng.uniform(-2.0, 2.0) for _ in range(m)])
        assert main_identity_error(*args, variant) == _main_error_per_term(*args, variant)


@pytest.mark.parametrize("family", [PROBABILISTS, PHYSICISTS])
def test_univariate_errors_are_bit_identical_to_per_term(family):
    rng = random.Random(32)
    grid = [round(-3.0 + 0.3 * j, 10) for j in range(21)]
    for _ in range(20):
        k, lam = rng.randint(0, 12), rng.uniform(-2.0, 2.0)
        assert univariate_identity_error(family, k, lam, grid) == (
            _univariate_error_per_term(family, k, lam, grid)
        )
        m, k_ip = rng.randint(1, 3), rng.randint(0, 8)
        lam_vec = [rng.uniform(-2.0, 2.0) for _ in range(m)]
        x_vec = [rng.uniform(-2.0, 2.0) for _ in range(m)]
        assert inner_product_error(family, k_ip, lam_vec, x_vec) == (
            _inner_product_error_per_term(family, k_ip, lam_vec, x_vec)
        )


def test_univariate_error_does_not_depend_on_call_history():
    # scaled(3) and scaled(3.0) are equal families with equal hashes, but b
    # is Fraction(1, 3) in one and 1 / 3.0 in the other: each call must read
    # its own family's grid, whichever filled the cache first.
    exact, flt = HermiteFamily.scaled(3), HermiteFamily.scaled(3.0)
    assert exact == flt and hash(exact) == hash(flt)
    grid = list(verify._UNIVARIATE_GRID)
    for family in (flt, exact, flt):
        assert univariate_identity_error(family, 8, 1.3, grid) == (
            _univariate_error_per_term(family, 8, 1.3, grid)
        )


def test_gf_error_is_bit_identical_to_per_term():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(1, 3)
        t = [0.1 / math.sqrt(n) * rng.uniform(-1.0, 1.0) for _ in range(n)]
        x = [rng.uniform(-1.0, 1.0) / math.sqrt(n) for _ in range(n)]
        sigma = _spd(rng, n)
        assert gf_error(t, x, sigma) == _gf_error_per_term(t, x, sigma)
    # The partial sum at every cap, with exact zeros in t (whose terms are
    # skipped) and in exact arithmetic, against a sum of hermite_multi values,
    # each from _raise_value's memoized recursion.
    for n in (1, 2, 3):
        for cap in range(MAX_GF_DEGREE + 1):
            x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            sig = spd_factorize(DenseMatrix.from_rows(_spd(rng, n)))
            exact_x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            q = DenseMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            exact_sig = spd_factorize(
                gram_plus_identity(q).scale(Fraction(1, 2))
            )
            for zeros in range(n + 1):
                # |t| up to 2.5 keeps the high-degree terms, and so a last-bit
                # change in any table entry, visible in the sum.
                t = [2.5 * rng.uniform(-1.0, 1.0) for _ in range(n)]
                exact_t = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                for j in rng.sample(range(n), zeros):
                    t[j], exact_t[j] = 0.0, Fraction(0)
                for tv, xv, s in (
                    (t, x, sig),
                    (exact_t, exact_x, exact_sig),
                    (t, exact_x, exact_sig),
                ):
                    tv, xv = DenseVector.from_entries(tv), DenseVector.from_entries(xv)
                    got = gf_partial_sum(tv, xv, s, cap)
                    want = _gf_partial_per_term(tv, xv, s, cap)
                    assert type(got) is type(want)
                    assert repr(got) == repr(want), (n, cap, zeros)


def test_import_does_not_load_numpy():
    # No hermult command needs numpy, the verify suites' streams included.
    src = str(Path(hermult.__file__).resolve().parent.parent)
    code = (
        "import contextlib, io, sys, hermult, hermult.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hermult.cli.main(['verify', '--suite', 'all', '--seed', '1', '--trials', '5'])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.split() == ["False", "0", "False"]


def test_each_exact_matrix_is_cleared_once(monkeypatch):
    # Every exact matrix keeps its cleared (C, d): across one oracle
    # comparison and one exact coefficient-chain trial, no matrix's rows
    # are cleared twice.
    from hermult import polyoracle, tensorlin, verify

    cleared = []
    real = tensorlin.cleared_rows

    def counting(rows):
        cleared.append(rows)
        return real(rows)

    monkeypatch.setattr(tensorlin, "cleared_rows", counting)
    lam = polyoracle.rational_matrix([["1/2", -1], [0, "3/2"], [2, "1/3"]])
    sigma = polyoracle.rational_matrix([[2, "1/2"], ["1/2", 3]])
    upsilon = polyoracle.rational_matrix([[3, 1, 0], [1, 2, "1/3"], [0, "1/3", 1]])
    assert polyoracle.oracle_compare((2, 1), lam, sigma, upsilon).equal
    # Sigma, Upsilon, their inverses, Lambda, and the map's A and M.
    assert len(cleared) == 7
    verify._exact_covariances.cache_clear()
    assert verify._coeff_chain_exact(4, Fraction(3, 2), 2, MultiIndex((1, 1)))
    # Lambda once; per family the 1x1 Sigma, its inverse, Upsilon, A and M.
    assert len(cleared) == 18
    # The two families' maps have equal A rows, held by two matrices, so
    # rows are told apart by the tuple object that holds them.
    assert len({id(rows) for rows in cleared}) == len(cleared)


def _kron_exact_draws(monkeypatch, seed, trials):
    # The (a_num, b_num, den, k) of each trial, as verify_kron_identity
    # draws them: its calls to kron_identity_exact are recorded.
    from hermult import verify

    draws = []
    real = verify.kron_identity_exact

    def recording(a_num, b_num, den, k):
        draws.append((a_num, b_num, den, k))
        return real(a_num, b_num, den, k)

    monkeypatch.setattr(verify, "kron_identity_exact", recording)
    verify.verify_kron_identity(TrialConfig(seed=seed, trials=trials))
    return draws


def test_kron_sides_scale_by_den_to_minus_two_degree(monkeypatch):
    # Both sides have degree |k| in A and in b: at A = a_num/den,
    # b = b_num/den each is its value on the numerators times den^(-2|k|).
    from hermult.verify import _kron_sides

    draws = _kron_exact_draws(monkeypatch, seed=11, trials=60)
    assert {den for _, _, den, _ in draws} == {1, 2, 3}
    assert max(sum(k) for _, _, _, k in draws) >= 3
    for a_num, b_num, den, k in draws:
        a = [[Fraction(v, den) for v in row] for row in a_num]
        b = [Fraction(v, den) for v in b_num]
        scale = Fraction(1, den ** (2 * sum(k)))
        lhs, rhs = _kron_sides(a, b, k)
        lhs_num, rhs_num = _kron_sides(a_num, b_num, k)
        assert type(lhs_num) is int and type(rhs_num) is int
        assert lhs == lhs_num * scale
        assert rhs == rhs_num * scale


def test_kron_exact_check_catches_a_wrong_side(monkeypatch):
    from hermult import verify
    from hermult.tensorlin import colwise_kron_power
    from hermult.verify import kron_identity_exact

    draws = [
        d for d in _kron_exact_draws(monkeypatch, seed=5, trials=40)
        if sum(d[3]) >= 1 and d[1][0] != 0
    ]
    assert len(draws) >= 10
    for draw in draws:
        assert kron_identity_exact(*draw)

    def skewed(a, q):
        # Entry 0 meets b_0^|k| != 0 in the contraction.
        v = colwise_kron_power(a, q)
        return DenseVector((v.entries[0] + 1,) + v.entries[1:])

    monkeypatch.setattr(verify, "colwise_kron_power", skewed)
    for draw in draws:
        assert not kron_identity_exact(*draw)


def test_kron_exact_needs_a_rational_point():
    from hermult.verify import _kron_sides, kron_identity_exact

    a_num, b_num, k = [[1, -2], [3, 4]], [2, -1], [2, 1]
    with pytest.raises(DomainError, match="den"):
        kron_identity_exact(a_num, b_num, 0, k)
    # A negative den names a valid point: den^(2|k|) > 0.
    assert kron_identity_exact(a_num, b_num, -3, k)
    a = [[Fraction(v, -3) for v in row] for row in a_num]
    lhs, rhs = _kron_sides(a, [Fraction(v, -3) for v in b_num], k)
    assert lhs == rhs
