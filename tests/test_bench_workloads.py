"""The benchmark's workloads call program functions by name.

`perfbench/workloads.py` builds its inputs and runs its ops through
`hermult` names such as `polyoracle.rational_matrix`, which no command of
the program itself needs.  A rename or deletion in `src/hermult/` would
then fail only the benchmark run.  The tier-1 suite does not collect
`perfbench/`, so this test loads the workloads by path and runs set-up,
every op of the first cycle with its check, both negative controls and
the scale probe.  It also pins the bits and types of the Hermite values
that eval-points reads.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hermult import hermite

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SEED = 1

# eval_points_digest(3), computed with the tuple-keyed Hermite memo.
EVAL_POINTS_DIGEST = "1a771600c160540f12b74059cea9edb184f5e77086503804ff88a494f39152d0"


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


def eval_points_digest(cycles: int) -> str:
    """sha256 over the repr and type name of every Hermite value the
    eval-points workload reads in its first `cycles` cycles at SEED: each
    H_q(x; Upsilon) of a table's batch, then H_k(Lambda^T x; Sigma)."""
    workload = workloads.WORKLOADS["eval-points"](SEED)
    workload.setup(workload.setup_inputs())
    digest = hashlib.sha256()
    for index in range(cycles):
        for case in workload.cycle(index):
            problem, terms, _, xv = case.payload
            values = hermite.hermite_multi_batch([t.q for t in terms], xv, problem.upsilon)
            values.append(
                hermite.hermite_multi(problem.k, problem.lam_t.matvec(xv), problem.sigma)
            )
            for v in values:
                digest.update(f"{type(v).__name__} {v!r}\n".encode())
    return digest.hexdigest()


def test_eval_points_hermite_values_keep_their_bits():
    # Pinned from the tuple-keyed memo; any change to the Hermite
    # recurrence's operations or operand order shows here.
    assert eval_points_digest(3) == EVAL_POINTS_DIGEST
