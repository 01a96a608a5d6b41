"""The benchmark's tracer binds program names by string.

`perfbench/tracing.py` rebinds each name in its TARGETS list at install
time; a rename or deletion in `src/hermult/` makes `Tracer.install` fail,
and with it every traced benchmark run.  The tier-1 suite does not collect
`perfbench/`, so this test loads the tracer by path and installs it.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import hermult.cli  # loads every hermult module the tracer binds
from hermult import hermite, polyoracle, verify
from hermult.coeffs import CoeffVariant
from hermult.tensorlin import DenseMatrix

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_every_target_and_restores_them():
    tracing = load_tracing()
    original = hermite.hermite_multi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hermite.hermite_multi is not original
        assert verify.hermite_multi is hermite.hermite_multi
    finally:
        tracer.uninstall()
    assert hermite.hermite_multi is original
    assert verify.hermite_multi is original


def test_traced_gf_run_sees_its_sweep_and_factorisations():
    # The gf suite must reach the partial sum and the SPD factorisation
    # through the names the tracer rebinds, or a traced run stops seeing
    # the layers it spends its time in.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.op(lambda: hermult.cli.main(["verify", "--suite", "gf", "--trials", "3"]))
    finally:
        tracer.uninstall()
    assert code == 0
    layers = tracer.layer_metrics()
    assert layers["hermite.gf_partial_sum.calls"] == 3
    assert layers["tensorlin.spd_factorize.calls"] >= 3


def test_traced_univariate_run_sees_its_routes():
    # The univariate suite must reach the scalar closed form, the exact
    # coefficient chain and the Hermite values through the names the tracer
    # rebinds: three trials make 28 scalar coefficients, and 6 general
    # coefficients (two families a trial), each from one map.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.op(
                lambda: hermult.cli.main(["verify", "--suite", "univariate", "--trials", "3"])
            )
    finally:
        tracer.uninstall()
    assert code == 0
    layers = tracer.layer_metrics()
    assert layers["coeffs.coeff_general.calls"] == 6
    assert layers["coeffs.transformed_map.calls"] == 6
    assert layers["coeffs.coeff_from_map.calls"] == 6
    assert layers["hermite.hermite_uni.calls"] == 6
    assert layers["coeffs.coeff_univariate.calls"] == 28


# The randomized suites of `verify --suite all`, by their report names.
RANDOMIZED_SUITES = {
    "main": "verify_main_identity",
    "gf": "verify_generating_function",
    "kron": "verify_kron_identity",
    "univariate": "verify_univariate_closed_forms",
}


def test_traced_all_run_sees_every_randomized_suite():
    # `verify --suite all` must reach each randomized suite through the name
    # the tracer rebinds, once each, and the tracer's check count must add up
    # their reports: three trials make 3 main, 3 gf, 6 kron and 15
    # univariate checks.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = tracer.op(
                lambda: hermult.cli.main(["verify", "--suite", "all", "--trials", "3"])
            )
    finally:
        tracer.uninstall()
    assert code == 0
    reports = json.loads(out.getvalue())["reports"]
    layers = tracer.layer_metrics()
    for suite in RANDOMIZED_SUITES.values():
        assert layers[f"verify.{suite}.calls"] == 1
    checks = sum(reports[name]["checks_run"] for name in RANDOMIZED_SUITES)
    assert layers["verify.checks"] == checks == 27


def _rational_case(rng, n, m):
    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    def spd(dim):
        # off-diagonal entries of size <= 1/2 against a diagonal of 2: for
        # dim <= 3 strictly diagonally dominant, so positive definite
        off = [[Fraction(rng.randint(-1, 1), rng.randint(2, 4)) for _ in range(dim)] for _ in range(dim)]
        return DenseMatrix.from_rows(
            [[2 if i == j else off[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)]
        )

    k = tuple(rng.randint(0, 2) for _ in range(n))
    lam = DenseMatrix.from_rows([[frac() for _ in range(n)] for _ in range(m)])
    return k, lam, spd(n), spd(m)


def test_traced_oracle_run_sees_the_comparison_and_its_polynomials():
    # oracle_compare must be reached through the name the tracer rebinds,
    # and its result must keep the fields the tracer's hook reads.
    rng = random.Random(29)
    cases = [_rational_case(rng, n, m) for n, m in ((1, 2), (2, 2), (3, 2), (2, 3))]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [
            tracer.op(lambda case=case: polyoracle.oracle_compare(*case, CoeffVariant.SYMMETRIZED))
            for case in cases
        ]
    finally:
        tracer.uninstall()
    assert all(isinstance(res, polyoracle.OracleComparison) and res.equal for res in results)
    layers = tracer.layer_metrics()
    assert layers["polyoracle.oracle_compare.calls"] == len(cases)
    assert layers["polyoracle.lhs_terms"] == sum(len(res.lhs.terms) for res in results) > 0
