"""Tests of the benchmark's own logic: output checks, negative controls,
input plans, percentiles and the tracer's self-time arithmetic.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as w  # noqa: E402
from hermult import coeffs, hermite, multiindex, verify  # noqa: E402


def _unscaled_problem(seed=3, k=(2, 1)):
    rng = w.cycle_rng(seed, "test", 0)
    return w.build_float_problem(w.float_problem_inputs(rng, k))


def _table(problem):
    return coeffs.expand_general(problem.k, problem.lam, problem.sigma, problem.upsilon)


# ---------------------------------------------------------------- checks


def test_guarded_rel_err_uses_verify_denominator():
    for lhs, rhs, abs_sum in [(0.5, 0.25, 0.1), (10.0, 9.0, 3.0), (2.0, 1.0, 50.0)]:
        assert w.guarded_rel_err(lhs, rhs, abs_sum) == verify._guarded_rel_err(lhs, rhs, abs_sum)


def test_correct_table_passes_and_wrong_tables_fail():
    problem = _unscaled_problem()
    terms = _table(problem)
    assert w.check_passes(w.table_error(problem, terms, problem.points))
    dropped = terms[1:]
    assert not w.check_passes(w.table_error(problem, dropped, problem.points))
    assert not w.check_passes(float("nan"))


def test_identity_error_matches_verify_main_identity_error():
    problem = _unscaled_problem(k=(1, 2))
    inputs = w.float_problem_inputs(w.cycle_rng(3, "test", 0), (1, 2))
    x = inputs["points"][0]
    ours = w.identity_error(problem, _table(problem), x)
    theirs = verify.main_identity_error(
        list(inputs["k"]), inputs["Lambda"], inputs["Sigma"], inputs["Upsilon"], x
    )
    assert ours == pytest.approx(theirs, abs=1e-15)


def test_expand_large_check_covers_the_json_text():
    wl = w.ExpandLarge(seed=1)
    case = w.Case(_unscaled_problem())
    terms, text = wl.run(case)
    assert wl.check(case, (terms, text))
    assert not wl.check(case, (terms, '{"terms":[]}'))


# ---------------------------------------------------------------- controls


def test_paper_literal_control_fails_as_expected():
    assert w.paper_literal_control()


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345])
def test_perturbed_table_control_fails_as_expected(seed):
    assert w.perturbed_table_control(seed)


def test_run_controls_reports_nothing_when_controls_behave():
    assert worker.run_controls(5) == []


# ---------------------------------------------------------------- inputs


def test_scale_plan_scales_every_problem_at_stratum_midpoints():
    assert w.scale_plan(6) == [
        (-4.5, None), (None, -4.5), (-1.5, -1.5), (1.5, None), (None, 1.5), (4.5, 4.5),
    ]
    for count in (16, 15, 8):
        plan = w.scale_plan(count)
        assert all(p != (None, None) for p in plan)
        for col in (0, 1):
            exps = [p[col] for p in plan if p[col] is not None]
            assert exps == w.stratum_midpoints(len(exps))


def test_scale_probe_is_reproducible_and_counts_tables():
    failed, tables = w.scale_probe(3)
    assert tables == len(w.PROBE_SHAPES)
    assert 0 <= failed <= tables
    assert w.scale_probe(3) == (failed, tables)


def test_cycles_are_reproducible_from_the_seed():
    a = w.OracleExact(4).cycle(2)
    b = w.OracleExact(4).cycle(2)
    assert [c.payload[0] for c in a] == [c.payload[0] for c in b]
    assert [c.payload[1] for c in a] == [c.payload[1] for c in b]
    assert [c.payload[1] for c in a] != [c.payload[1] for c in w.OracleExact(5).cycle(2)]


def test_oracle_and_verify_ops_pass_their_checks():
    oracle = w.OracleExact(1)
    case = oracle.cycle(0)[0]
    assert oracle.check(case, oracle.run(case))
    suites = w.VerifySuites(1)
    case = next(c for c in suites.cycle(0) if c.payload[0] == "selector")
    assert suites.check(case, suites.run(case))


def test_eval_points_ops_pass_their_checks():
    wl = w.EvalPoints(2)
    wl.setup(wl.setup_inputs())
    cases = wl.cycle(0)
    assert len(cases) == len(w.EVAL_SHAPES)
    for case in cases:
        assert wl.check(case, wl.run(case))


# ---------------------------------------------------------------- stats


def test_percentile_interpolates_between_ranks():
    values = list(range(11))
    assert worker.percentile(values, 50) == 5
    assert worker.percentile(values, 90) == 9
    assert worker.percentile([1.0, 2.0], 50) == 1.5
    assert worker.percentile([3.0], 90) == 3.0


def test_balanced_index_matches_roadmap_rows():
    assert worker.balanced(3, 10) == (4, 3, 3)
    assert worker.balanced(4, 8) == (2, 2, 2, 2)
    assert worker.balanced(2, 12) == (6, 6)


# ---------------------------------------------------------------- tracing


def test_self_times_subtract_direct_children_only():
    # root [0,10] > A [1,4] > B [2,3];  root > C [5,6];  second root D [11,12]
    names = [0, 1, 2, 3, 1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    self_s, calls = tracing.self_times(names, starts, ends, parents, 4)
    assert self_s == [6.0, 2.0 + 1.0, 1.0, 1.0]
    assert calls == [1, 2, 1, 1]


def test_tracer_rebinds_every_namespace_and_restores_them():
    original = hermite.hermite_multi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hermite.hermite_multi is not original
        assert verify.hermite_multi is hermite.hermite_multi
        assert hermite.hermite_multi.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert hermite.hermite_multi is original
    assert verify.hermite_multi is original
    assert multiindex.index_tuples.__name__ == "index_tuples"
    assert not hasattr(multiindex.index_tuples, "__wrapped__")


def test_tracer_records_nested_spans_and_counts():
    problem = _unscaled_problem(k=(2, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _table(problem)  # outside an op: records nothing
        assert len(tracer.span_name) == 0
        terms = tracer.op(lambda: _table(problem))
        assert not tracer.active
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    n_q = sum(len(multiindex.enumerate_fixed_degree(2, d)) for d in (4, 2, 0))
    assert layers["coeffs.expand_general.calls"] == 1
    assert layers["coeffs.expand_general.items"] == len(terms)
    assert layers["coeffs.coeff_from_map.calls"] == n_q
    assert layers["multiindex.index_tuples.calls"] == n_q
    assert layers["multiindex.index_tuples.items"] == 6 * n_q  # 4!/(2!2!) tuples each
    assert tracer.count_children("coeffs.expand_general", "coeffs.coeff_from_map") == n_q
    assert tracer.count_children(tracing.OP_SPAN, "coeffs.coeff_from_map") == 0
    total = tracer.span_end[0] - tracer.span_start[0]
    covered = sum(v for k, v in layers.items() if k.endswith("self_s"))
    assert covered == pytest.approx(total, rel=1e-9)


def test_tracer_dump_writes_one_line_per_span(tmp_path):
    tracer = tracing.Tracer()
    tracer.op(lambda: None)
    tracer.op(lambda: None)
    out = tmp_path / "spans.jsonl"
    tracer.dump(out)
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("[0,-1,")


# ---------------------------------------------------------------- entry point


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------- contract


def test_benchmark_json_names_every_reported_metric():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [wl["name"] for wl in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    layers = set(tracing.Tracer().layer_metrics())
    layers |= {"coeffs.kept_frac", "coeffs.scaled_fail_frac", "trace_overhead_frac"}
    layers |= {f"coeffs.expand_general.ms.n{n}_d{d}" for n, ds in worker.SWEEP.items() for d in ds}
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


# ---------------------------------------------------------------- speed


def test_speed_scale_uses_the_samples_around_the_interval():
    import speed

    log = speed.SpeedLog()
    log.times = [0.0, 1.0, 2.0]
    log.kernel_s = [1e-3, 2e-3, 4e-3]
    ref = speed.REF_KERNEL_S
    assert log.scale(0.2, 0.8) == pytest.approx(ref / 1.5e-3)
    assert log.scale(1.2, 1.9) == pytest.approx(ref / 3e-3)
    assert log.scale(2.5, 2.6) == pytest.approx(ref / 4e-3)  # no later sample
    with pytest.raises(ValueError):
        speed.SpeedLog().scale(0.0, 1.0)


def test_kernel_time_is_positive_and_leaves_gc_enabled():
    import gc

    import speed

    assert speed.kernel_time() > 0
    assert gc.isenabled()


def test_setup_scales_the_start_and_the_build_separately():
    import run
    import speed

    probe = {"start_wall_s": 0.2, "build_wall_s": 0.3, "build_kernel_s": 1e-3}
    expected = 0.2 * speed.REF_START_S / 0.16 + 0.3 * speed.REF_KERNEL_S / 1e-3
    assert run.reference_setup_s(probe, 0.16) == pytest.approx(expected)
    assert speed.start_time() > 0
