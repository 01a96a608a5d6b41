"""The benchmark's workloads call program functions by name.

`perfbench/workloads.py` builds its inputs and runs its ops through
`hermult` names such as `polyoracle.rational_matrix`, which no command of
the program itself needs.  A rename or deletion in `src/hermult/` would
then fail only the benchmark run.  The tier-1 suite does not collect
`perfbench/`, so this test loads the workloads by path and runs set-up,
every op of the first cycle with its check, both negative controls and
the scale probe.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SEED = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_of_each_workload_passes_its_check(name):
    # Every op of cycle 0, each with its check.
    workload = workloads.WORKLOADS[name](SEED)
    workload.setup(workload.setup_inputs())
    for case in workload.cycle(0):
        assert workload.check(case, workload.run(case))


def test_negative_controls_are_rejected():
    assert workloads.paper_literal_control()
    assert workloads.perturbed_table_control(SEED)


def test_scale_probe_expands_every_scaled_table():
    # The probe's covariances are scaled by 10**s, s in [-6, 6]; a table
    # that raises there stops the whole benchmark run.
    assert workloads.scale_probe(SEED) == (0, 16)
