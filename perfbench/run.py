"""Benchmark entry point for `hesitant`.

    python3 perfbench/run.py --workload suite|docs|panels --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout (it finds `src/` next to this
directory). It measures `setup_s` in fresh interpreters, then runs the
workload in one more fresh interpreter (`worker.py`), so that no registry,
cache or memory from one measurement leaks into another. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`. The lines before it give the provenance of the result
(kernel, Python, CPUs, platform, commit) and how the tail was taken.
Results from different kernels must never be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The names in workloads.py, repeated because this process never imports
# `hesitant`: every measurement runs in an interpreter of its own.
WORKLOADS = ("suite", "docs", "panels")

SETUP_RUNS = 16
# The reference (see calibrate.py) runs after the timed import, so that the
# modules it uses are not imported ahead of `hesitant`.
SETUP_CODE = (
    "import sys, time; started = time.perf_counter(); import hesitant; hesitant.law_registry(); "
    "elapsed = time.perf_counter() - started; sys.path.insert(0, sys.argv[1]); import calibrate; "
    "print(elapsed, min(calibrate.reference_s() for _ in range(2)))"
)
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_times(runs: int) -> list[float]:
    """Reference-scaled seconds (see calibrate.py) to import `hesitant` plus
    the first `law_registry()` call, each in a fresh interpreter."""
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        elapsed, reference = map(float, out.stdout.split())
        times.append(calibrate.scale(elapsed, reference))
    return times


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hesitant" / "__init__.py").is_file():
        print(f"error: no hesitant sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # Set-up is timed half before and half after the workload, so that its
    # median spans the run rather than one spell of the shared machine; one
    # unmeasured import first writes the bytecode caches.
    setup = [] if args.trace else setup_times(SETUP_RUNS // 2 + 1)[1:]
    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans)]
    try:
        worker = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                                timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(worker.stderr)
    lines = worker.stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    info = result.pop("info")
    if not args.trace:
        setup += setup_times(SETUP_RUNS - len(setup))
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    provenance = {
        "kernel": info.pop("kernel"),
        "python": platform.python_version(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "commit": commit(),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if not info["pinned"]:
        print(f"unpinned seed {args.seed}: invariant checks only, no pinned output digest")
    print("run " + json.dumps(info, sort_keys=True))
    if not args.trace:
        print(f"op_ms.tail is p{info['tail_percentile']:.1f} of {info['ops_per_cycle']} operations, "
              f"each the median of {info['cycles']} reference-scaled cycles")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
