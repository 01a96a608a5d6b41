"""hermult benchmark: seeded workloads in a single-threaded closed loop.

    python3 perfbench/run.py --workload expand-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15 [--trace 1]

Run from the repository root.  Each run starts fresh interpreters
(worker.py): several that stop after set-up, whose median is setup_s, and
one that runs the measuring loop.  With --trace 0 the last stdout line is
a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run instead.  A copy of each result, with
machine metadata, and the spans of traced runs go to .perfbench/ at the
root.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("expand-large", "verify-suites", "eval-points", "oracle-exact")

# Cold starts per run that stop after set-up; setup_s is their median.
SETUP_PROBES = 7

# Any one worker process is stopped after this long.
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if ".ms." in name:
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def median(values: list[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git": git_revision(),
        "seed": seed,
    }


def reference_setup_s(probe: dict, start_s: float) -> float:
    """A cold start's set-up time at reference speed: the interpreter start
    and `import hermult` scaled by the reference start time `start_s`
    measured around it, the workload's build by the kernel time measured
    around that (see speed.py)."""
    return (probe["start_wall_s"] * speed.start_scale(start_s)
            + probe["build_wall_s"] * speed.reference_scale(probe["build_kernel_s"]))


def spawn_worker(workload: str, seed: int, seconds: int, trace: int, probe: bool,
                 trace_out: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if probe:
        cmd.append("--probe")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawn_t = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawn-t", repr(spawn_t)], cwd=ROOT, capture_output=True,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} worker exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Returns (result for the last stdout line, detail record)."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    probes, setups, starts = [], [], []
    if not trace:
        # Each cold start is bracketed by reference starts, like an op.
        starts.append(speed.start_time())
        for _ in range(SETUP_PROBES):
            probes.append(spawn_worker(workload, seed, seconds, 0, True))
            starts.append(speed.start_time())
        setups = [reference_setup_s(p, (a + b) / 2) for p, a, b in zip(probes, starts, starts[1:])]
    trace_out = OUT_DIR / f"{stem}.spans.jsonl" if trace else None
    main = spawn_worker(workload, seed, seconds, trace, False, trace_out)
    if main["controls_passed"]:
        raise BenchError("negative control passed: " + "; ".join(main["controls_passed"]))
    attempted, failed = main["ops"], main["failed"]
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(main["layers"].items())}
    else:
        values = {
            "throughput_ops_s": main["ref"]["throughput_ops_s"],
            "latency_p50_ms": main["ref"]["latency_p50_ms"],
            "latency_p90_ms": main["ref"]["latency_p90_ms"],
            "setup_s": median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(main, workload=workload, seconds=seconds, trace=trace,
                  setup_samples_s=setups,
                  setup_wall_samples_s=[p["setup_wall_s"] for p in probes],
                  reference_starts_s=starts,
                  meta=metadata(seed), result=result)
    detail.pop("layers", None)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result, detail


def report(workload: str, result: dict, detail: dict) -> None:
    """Human-readable lines: every metric with its unit."""
    meta = detail["meta"]
    print(f"# {workload}: seed={meta['seed']} python={meta['python']} nproc={meta['nproc']} "
          f"cpu={meta['cpu']!r} git={meta['git'][:12]}")
    n = result["attempted"]
    notes = {}
    if not detail.get("trace"):
        wall = detail["wall"]
        notes.update({
            "throughput_ops_s": f"(wall {wall['throughput_ops_s']:.6g})",
            "latency_p50_ms": f"(wall {wall['latency_p50_ms']:.6g}; n={n})",
            "latency_p90_ms": f"(wall {wall['latency_p90_ms']:.6g}; n={n}, "
                              f"{detail['ref']['beyond_p90']} beyond)",
            "setup_s": f"(wall {median(detail['setup_wall_samples_s']):.6g}; "
                       f"median of {len(detail['setup_samples_s'])} cold starts)",
        })
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:46s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    if detail.get("trace"):
        print(f"{workload:14s} traced ops={detail['traced_ops']} spans={detail['spans']}")
    probe = detail["scale_probe"]
    print(f"{workload:14s} scale probe: {probe['failed']} of {probe['tables']} tables with a "
          "scaled covariance fail the identity check")
    if not result["correct"]:
        print(f"{workload:14s} FAILED OPS ({result['failed']} of {n}): "
              + "; ".join(detail["first_failures"][:3]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind like an exception, so that subprocess.run kills and
    # waits for the worker it is running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "hermult" / "__init__.py").is_file():
        print(f"error: no hermult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.all else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, result, detail)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.all else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
