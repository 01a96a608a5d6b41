"""One workload process: set-up, the closed measuring loop, output checks,
negative controls, and in a traced run the per-layer metrics.

Started by run.py in a fresh interpreter for every run and every set-up
probe; prints one JSON object on stdout.  Not meant to be run by hand.
"""

import time

_T_WORKER = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The worker's own imports are benchmark time, not set-up time.
_BENCH_IMPORT_S = time.monotonic() - _T_WORKER

# A run must time at least this many ops, so that the p90 has ten samples
# beyond it, unless its loop has already run for MAX_LOOP_S (a program so
# slow that 100 ops would not fit in a run still gets measured).
MIN_OPS = 100
MAX_LOOP_S = 100.0

# Degree sweep of expand_general: n=m -> total degrees.  Balanced k of
# degree 12 at n=3 (32 s) and 10 at n=4 (48 s) are left out so that no
# single table sets the length of a run.
SWEEP = {1: (2, 4, 6, 8, 10, 12), 2: (2, 4, 6, 8, 10, 12), 3: (2, 4, 6, 8, 10), 4: (2, 4, 6, 8)}

# Repeat a sweep point until this much time is spent on it (at most 5 times).
SWEEP_POINT_S = 0.05


def percentile(sorted_values: list, p: float) -> float:
    """Linear interpolation between closest ranks (p in [0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Loop:
    """Closed-loop measurement over whole cycles of one workload."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        # Compact, so that the benchmark's bookkeeping barely moves peak RSS.
        self.starts = array("d")
        self.ends = array("d")
        self.speed = speed.SpeedLog()
        self.failed = 0
        self.failures: list[str] = []
        self.cycles = 0

    def run_cycle(self, cases) -> None:
        wl, tracer = self.workload, self.tracer
        for i, case in enumerate(cases):
            error = None
            out = None
            self.speed.maybe_sample()
            t0 = time.perf_counter()
            try:
                out = tracer.op(lambda: wl.run(case)) if tracer else wl.run(case)
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            self.ends.append(time.perf_counter())
            self.starts.append(t0)
            if error is None:
                try:
                    ok = wl.check(case, out)
                except Exception as exc:  # a malformed output fails its check
                    ok, error = False, exc
            else:
                ok = False
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    what = repr(error) if error is not None else "check failed"
                    self.failures.append(f"cycle {self.cycles} op {i}: {what}")
        self.cycles += 1

    def wall_latencies(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def ref_latencies(self) -> list[float]:
        """Op times at reference speed (see speed.py)."""
        scale = self.speed.scale
        return [(end - start) * scale(start, end) for start, end in zip(self.starts, self.ends)]


def measure(workload, seconds: float, first_cases, tracer=None, cycles=None) -> Loop:
    """Run whole cycles until `seconds` of loop time and MIN_OPS ops have
    passed (or MAX_LOOP_S of loop time), or exactly `cycles` cycles when
    given."""
    loop = Loop(workload, tracer)
    t_start = time.monotonic()
    cases = first_cases
    while True:
        loop.run_cycle(cases)
        if cycles is not None:
            if loop.cycles >= cycles:
                break
        else:
            elapsed = time.monotonic() - t_start
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(loop.starts) >= MIN_OPS):
                break
        cases = workload.cycle(loop.cycles)
    loop.speed.sample()  # closes the bracket around the last op
    return loop


def latency_stats(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    p90 = percentile(lat, 90)
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_p90_ms": 1e3 * p90,
        "beyond_p90": sum(1 for v in lat if v > p90),
    }


def loop_result(loop: Loop) -> dict:
    wall = loop.wall_latencies()
    return {
        "ops": len(wall),
        "cycles": loop.cycles,
        "failed": loop.failed,
        "first_failures": loop.failures,
        "timed_s": sum(wall),
        "kernel_ms_median": 1e3 * percentile(sorted(loop.speed.kernel_s), 50),
        "ref": latency_stats(loop.ref_latencies()),
        "wall": latency_stats(wall),
    }


def balanced(n: int, d: int) -> tuple:
    return tuple(d // n + (1 if i < d % n else 0) for i in range(n))


def degree_sweep(seed: int) -> dict[str, float]:
    """Median ms of expand_general at balanced k for each sweep point."""
    import workloads as w

    out = {}
    for n, degrees in SWEEP.items():
        for d in degrees:
            rng = w.cycle_rng(seed, "sweep", n * 100 + d)
            problem = w.build_float_problem(w.float_problem_inputs(rng, balanced(n, d), (None, None)))
            times = []
            while len(times) < 5 and sum(times) < SWEEP_POINT_S:
                t0 = time.perf_counter()
                w.coeffs.expand_general(problem.k, problem.lam, problem.sigma, problem.upsilon)
                times.append(time.perf_counter() - t0)
            out[f"coeffs.expand_general.ms.n{n}_d{d}"] = 1e3 * percentile(sorted(times), 50)
    return out


def run_controls(seed: int) -> list[str]:
    """Names of negative controls that passed (each one must fail)."""
    import workloads as w

    failed_to_fail = []
    if not w.paper_literal_control():
        failed_to_fail.append("paper-literal counterexample compared equal")
    if not w.perturbed_table_control(seed):
        failed_to_fail.append("perturbed float table passed its check")
    return failed_to_fail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--spawn-t", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--trace-out", help="file for the recorded spans")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    import hermult  # noqa: F401  (import cost is part of set-up)

    t_bench = time.monotonic()
    import_s = t_bench - t0
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_inputs = workload.setup_inputs()
    # Building the workload's state is bracketed by kernel measurements,
    # like an op; the start before it is scaled by run.py (see speed.py).
    kernel_before = speed.median_kernel_time()
    t_build = time.monotonic()
    workload.setup(setup_inputs)
    t_built = time.monotonic()
    kernel_after = speed.median_kernel_time()
    first_cases = workload.cycle(0)
    t_first_op = time.monotonic()
    start_s = t_bench - args.spawn_t - _BENCH_IMPORT_S
    build_s = t_built - t_build
    result = {
        "start_wall_s": start_s,
        "build_wall_s": build_s,
        "build_kernel_s": (kernel_before + kernel_after) / 2,
        "setup_wall_s": start_s + build_s,
        "import_s": import_s,
        "bench_setup_s": t_first_op - args.spawn_t - start_s - build_s,
    }
    if args.probe:
        print(json.dumps(result))
        return 0

    loop = measure(workload, args.seconds, first_cases)
    result.update(loop_result(loop))
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds, workload.cycle(0), tracer, cycles=loop.cycles)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        under_expand = tracer.count_children("coeffs.expand_general", "coeffs.coeff_from_map")
        under_expand += tracer.count_children("coeffs.expand_from_map", "coeffs.coeff_from_map")
        kept = layers["coeffs.expand_general.items"] + layers["coeffs.expand_from_map.items"]
        layers["coeffs.kept_frac"] = kept / under_expand if under_expand else 0.0
        plain_s, traced_s = sum(loop.ref_latencies()), sum(traced.ref_latencies())
        layers["trace_overhead_frac"] = 1.0 - plain_s / traced_s
        layers.update(degree_sweep(args.seed))
        result["layers"] = layers
        result["traced_ops"] = len(traced.starts)
        result["spans"] = len(tracer.span_name)
        if args.trace_out:
            tracer.dump(args.trace_out)
    probe_failed, probe_tables = workloads.scale_probe(args.seed)
    result["scale_probe"] = {"failed": probe_failed, "tables": probe_tables}
    if args.trace:
        result["layers"]["coeffs.scaled_fail_frac"] = probe_failed / probe_tables
    result["controls_passed"] = run_controls(args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
