"""Span tracing of calls into hermult, done entirely from benchmark code.

`Tracer.install` rebinds each traced function to a timing wrapper in every
loaded `hermult` module namespace that holds it (methods are rebound on
their class), so calls made inside the package are traced too.  Nothing in
`src/hermult/` is edited.  Spans are kept in memory as compact arrays
(name id, start, end, parent span) and written out by `Tracer.dump` when
the run ends.  A layer's self time is its span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

# Span name of one timed benchmark operation; every program span of an op
# nests inside it.
OP_SPAN = "bench.op"


@dataclass(frozen=True)
class Target:
    """One traced function: `owner` is a module name or "module:Class"."""

    owner: str
    attr: str
    # Optional hook reading extra counts from the call's result; it runs
    # after the span has closed, so its cost is not charged to the layer.
    on_result: Callable[[object, dict], None] | None = None

    @property
    def name(self) -> str:
        module, _, cls = self.owner.partition(":")
        short = module.rsplit(".", 1)[-1]
        return ".".join(p for p in (short, cls, self.attr) if p)


def _count_items(key: str) -> Callable[[object, dict], None]:
    def hook(result, counts: dict) -> None:
        counts[key] = counts.get(key, 0) + len(result)

    return hook


def _verify_checks(result, counts: dict) -> None:
    counts["verify.checks"] = counts.get("verify.checks", 0) + result.checks_run


def _coeff_bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _oracle_polys(result, counts: dict) -> None:
    counts["polyoracle.lhs_terms"] = counts.get("polyoracle.lhs_terms", 0) + len(
        result.lhs.terms
    )
    bits = max(
        (_coeff_bits(c) for poly in (result.lhs, result.rhs) for c in poly.terms.values()),
        default=0,
    )
    counts["polyoracle.max_coeff_bits"] = max(
        counts.get("polyoracle.max_coeff_bits", 0), bits
    )


_VERIFY_SUITES = (
    "verify_main_identity",
    "verify_generating_function",
    "verify_kron_identity",
    "verify_selector_orthonormality",
    "verify_univariate_closed_forms",
)

# Every traced function, grouped by the package module (layer) it lives in.
TARGETS: tuple[Target, ...] = (
    Target("hermult.multiindex", "index_tuples", _count_items("multiindex.index_tuples.items")),
    Target("hermult.multiindex", "enumerate_fixed_degree"),
    Target("hermult.coeffs", "transformed_map"),
    Target("hermult.coeffs", "transformed_map_from_inverses"),
    Target("hermult.coeffs", "coeff_from_map"),
    Target("hermult.coeffs", "expand_general", _count_items("coeffs.expand_general.items")),
    Target("hermult.coeffs", "expand_from_map", _count_items("coeffs.expand_from_map.items")),
    Target("hermult.coeffs", "evaluate_expansion"),
    Target("hermult.coeffs", "coeff_univariate"),
    Target("hermult.coeffs", "coeff_general"),
    Target("hermult.hermite", "hermite_multi"),
    Target("hermult.hermite", "hermite_multi_batch", _count_items("hermite.hermite_multi_batch.items")),
    Target("hermult.hermite", "hermite_uni"),
    Target("hermult.hermite", "gf_partial_sum"),
    Target("hermult.polyoracle", "oracle_compare", _oracle_polys),
    Target("hermult.polyoracle:SymbolicHermiteFamily", "poly"),
    Target("hermult.polyoracle:MPoly", "mul"),
    Target("hermult.polyoracle:MPoly", "compose_linear"),
    Target("hermult.polyoracle:MPoly", "sub"),
    Target("hermult.tensorlin", "spd_factorize"),
    Target("hermult.tensorlin", "invert_matrix"),
    Target("hermult.tensorlin:SpdMatrix", "inverse"),
    Target("hermult.tensorlin:DenseMatrix", "matmul"),
    *(Target("hermult.verify", suite, _verify_checks) for suite in _VERIFY_SUITES),
    Target("hermult.verify", "trial_rng"),
    Target("hermult.cli", "main"),
    # cli.dumps escapes every non-ASCII character, so characters are bytes.
    Target("hermult.cli", "dumps", _count_items("cli.dumps.bytes")),
)

# Extra counts the hooks above produce, reported besides calls and self time.
EXTRA_COUNTS = (
    "multiindex.index_tuples.items",
    "coeffs.expand_general.items",
    "coeffs.expand_from_map.items",
    "hermite.hermite_multi_batch.items",
    "polyoracle.lhs_terms",
    "polyoracle.max_coeff_bits",
    "verify.checks",
    "cli.dumps.bytes",
)


def self_times(
    names: list[int] | array, starts, ends, parents, n_names: int
) -> tuple[list[float], list[int]]:
    """Per-name (self time, call count) from flat span columns.

    Span i has name id names[i], interval [starts[i], ends[i]] and parent
    span index parents[i] (-1 for a root).  Self time is the duration minus
    the durations of the span's direct children.
    """
    self_s = [0.0] * n_names
    calls = [0] * n_names
    for i in range(len(names)):
        dur = ends[i] - starts[i]
        self_s[names[i]] += dur
        calls[names[i]] += 1
        p = parents[i]
        if p >= 0:
            self_s[names[p]] -= dur
    return self_s, calls


class Tracer:
    """Records spans around calls into hermult made inside `op`."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN] + [t.name for t in TARGETS]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def op(self, fn: Callable[[], object]):
        """Run one benchmark operation inside a root span, tracing the
        program calls it makes."""
        self.active = True
        sid = self._open(0)
        try:
            return fn()
        finally:
            self._close(sid)
            self.active = False

    def _wrap(self, target: Target, fn):
        name_id = self.name_ids[target.name]
        hook = target.on_result
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(result, tracer.counts)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in each loaded hermult module that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "hermult" or name.startswith("hermult."))
        ]
        for target in TARGETS:
            module_name, _, cls_name = target.owner.partition(":")
            home = sys.modules[module_name]
            if cls_name:
                owner = getattr(home, cls_name)
                original = owner.__dict__[target.attr]
                self._rebind(owner, target.attr, self._wrap(target, original))
                continue
            original = getattr(home, target.attr)
            traced = self._wrap(target, original)
            for mod in modules:
                if mod.__dict__.get(target.attr) is original:
                    self._rebind(mod, target.attr, traced)

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and extra counts per traced name, plus
        bench.self_s (time inside timed ops not covered by program calls)."""
        self_s, calls = self_times(
            self.span_name, self.span_start, self.span_end, self.span_parent,
            len(self.names),
        )
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            if name_id == 0:
                out["bench.self_s"] = self_s[0]
                continue
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
        for key in EXTRA_COUNTS:
            out[key] = self.counts.get(key, 0)
        return out

    def count_children(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a
        `parent_name` span."""
        pid = self.name_ids[parent_name]
        cid = self.name_ids[child_name]
        names, parents = self.span_name, self.span_parent
        return sum(
            1
            for i in range(len(names))
            if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid
        )

    def dump(self, path) -> None:
        """Write every recorded span as JSON lines: first {"names": [...]},
        then one [name id, parent span, start, end] per span, in the order
        the spans opened (a span's index is its line number minus 2)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            rows = zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            fh.writelines(f"[{n},{p},{s!r},{e!r}]\n" for n, p, s, e in rows)
