"""The benchmark's tracer binds program names by string.

`perfbench/tracing.py` rebinds each name in its TARGETS list at install
time; a rename or deletion in `src/hermult/` makes `Tracer.install` fail,
and with it every traced benchmark run.  The tier-1 suite does not collect
`perfbench/`, so this test loads the tracer by path and installs it.
"""

import importlib.util
import sys
from pathlib import Path

import hermult.cli  # noqa: F401  (loads every hermult module the tracer binds)
from hermult import hermite, verify

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
