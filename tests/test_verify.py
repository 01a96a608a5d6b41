import pytest

from hermult.coeffs import CoeffVariant
from hermult.errors import SizeLimitError
from hermult.hermite import PHYSICISTS, PROBABILISTS
from hermult.verify import (
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
    cfg = TrialConfig(seed=7, trials=30, n_max=1, m_max=1)
    lit = verify_main_identity(cfg, CoeffVariant.PAPER_LITERAL)
    sym = verify_main_identity(cfg, CoeffVariant.SYMMETRIZED)
    assert lit.failures == 0
    assert sym.failures == 0
    assert lit.max_rel_err == sym.max_rel_err


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
    r = verify_kron_identity(TrialConfig(seed=3, trials=25, tol_rel=1e-12, k_max=4))
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
    r = verify_kron_identity(TrialConfig(seed=9, trials=20, tol_rel=1e-12, k_max=4))
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
    r = verify_univariate_closed_forms(
        TrialConfig(seed=21, trials=40, tol_rel=1e-9, k_max=12)
    )
    assert r.failures == 0
    assert r.checks_run == 40 * 5


def test_univariate_error_helpers():
    grid = [-3.0 + 0.3 * j for j in range(21)]
    assert univariate_identity_error(PROBABILISTS, 6, 1.0, grid) <= 1e-14
    assert univariate_identity_error(PHYSICISTS, 0, -2.0, grid) == 0.0
    assert inner_product_error(PROBABILISTS, 3, [0.5, -0.5], [1.0, 2.0]) <= 1e-12


def test_trial_rng_streams_are_stable_and_independent():
    a = trial_rng(42, 0).uniform(0, 1, 3).tolist()
    b = trial_rng(42, 0).uniform(0, 1, 3).tolist()
    c = trial_rng(42, 1).uniform(0, 1, 3).tolist()
    assert a == b
    assert a != c


def test_report_json_shape():
    r = verify_main_identity(TrialConfig(seed=1, trials=5))
    obj = r.to_json_obj()
    assert list(obj.keys()) == [
        "checks_run", "failures", "max_rel_err", "worst_case", "rng", "seed",
    ]
