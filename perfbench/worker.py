"""One workload in a fresh interpreter: measure, verify, print one JSON line.

Started by `run.py` with `src` on PYTHONPATH; not meant to be run by hand.
The workload's items (one cycle) are run over and over, in a closed loop
with one client, for as long as the time budget allows another whole cycle.
Each operation is then timed by its median reference-scaled latency over
the cycles (see `summarize`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
SPEC = HERE.parent / "BENCHMARK.json"
REFERENCE_EVERY_S = 0.2

def pinned_digest(workload) -> str | None:
    pins = json.loads(PINS.read_text())
    return pins.get(workload.spec, {}).get(str(workload.seed))


def run_cycle(workload, tracer, expected: str | None, mutate: bool = False) -> dict:
    """Every item once. Only the operations are timed; checks come after.

    One full garbage collection, untimed, starts the cycle, so that no cycle
    inherits another's garbage; within the cycle the collector runs when it
    would in real use, inside whichever operation triggers it. The reference
    computation (see `calibrate`) is timed at the start, at the end, and
    between operations at least every REFERENCE_EVERY_S."""
    latencies, works, records = [], [], []
    gc.collect()
    references = [calibrate.reference_s()]
    last_reference = time.perf_counter()
    failed = 0
    for item in workload.items:
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(calibrate.reference_s())
            last_reference = time.perf_counter()
        started = time.perf_counter()
        out = tracer.call(tracing.BENCH, workload.run, item, tracer)
        latencies.append(time.perf_counter() - started)
        if mutate and not records:
            out = workload.mutate(out)
        works.append(workload.work(out))
        problems = workload.check(item, out)
        if problems:
            failed += 1
            print(f"FAIL {workload.label(item)}: {'; '.join(problems)}", file=sys.stderr)
        records.append(workload.record(out))
        del out
    references.append(calibrate.reference_s())
    digest = workload.cycle_digest(records)
    if expected is not None and digest != expected:
        print(f"FAIL {workload.name} seed {workload.seed}: cycle digest {digest} != pinned {expected}",
              file=sys.stderr)
        failed = len(records)
    return {
        "ops": len(records),
        "failed": failed,
        "works": works,
        "latencies": latencies,
        "reference_s": statistics.median(references),
        "busy_s": sum(latencies),
        "digest": digest,
    }


def summarize(cycles, scaled: bool = True) -> dict:
    """Throughput and latency percentiles over the items.

    Each cycle's latencies are scaled by the cycle's reference time (see
    `calibrate`); each item's latency is then its median over the cycles.
    `scaled=False` gives the same figures from raw wall-clock times."""
    def latencies(cycle):
        if not scaled:
            return cycle["latencies"]
        return [calibrate.scale(lat, cycle["reference_s"]) for lat in cycle["latencies"]]

    per_item = sorted(statistics.median(lats) for lats in zip(*map(latencies, cycles)))
    index, percentile = workloads.tail_rank(len(per_item))
    return {
        "throughput": sum(cycles[0]["works"]) / sum(per_item),
        "p50_ms": 1000 * statistics.median(per_item),
        "tail_ms": 1000 * per_item[index],
        "tail_percentile": percentile,
    }


def run_cycles(workload, budget_s: float, expected: str | None, traced: bool) -> list[dict]:
    """Whole cycles while the budget allows another one (at least one)."""
    cycles = []
    started = time.perf_counter()
    while True:
        if traced:
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                cycle = run_cycle(workload, tracer, expected)
            cycle["self_s"] = tracer.snapshot()
            cycle["counts"] = dict(tracer.counts)
        else:
            cycle = run_cycle(workload, tracing.NullTracer(), expected)
        cycles.append(cycle)
        elapsed = time.perf_counter() - started
        if elapsed + cycle["busy_s"] > budget_s:
            return cycles


def end_to_end(cycles) -> dict:
    summary = summarize(cycles)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput": {"value": summary["throughput"], "unit": "1/s"},
        "op_ms.p50": {"value": summary["p50_ms"], "unit": "ms"},
        "op_ms.tail": {"value": summary["tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }


def per_layer(traced, untraced) -> tuple[dict, list[str]]:
    """Every per-layer metric of BENCHMARK.json: a self time (median over
    traced cycles) for unit `s`, else a count (which must repeat exactly from
    cycle to cycle) or a ratio derived from counts and throughputs. Layers
    that do no work on this workload read 0."""
    problems = []
    counts = traced[0]["counts"]
    if any(c["counts"] != counts for c in traced[1:]):
        problems.append("per-layer counts differ between traced cycles")
    guard_calls = counts.get("registry.guard_calls", 0)
    trials = counts.get("engine.trials", 0)
    traced_rate = summarize(traced)["throughput"]
    untraced_rate = summarize(untraced)["throughput"]
    derived = {
        "registry.guard_accept_ratio": counts.get("registry.guard_accepted", 0) / guard_calls if guard_calls else 0.0,
        "kernel.calls_per_trial": counts.get("kernel.calls", 0) / trials if trials else 0.0,
        "trace.throughput": traced_rate,
        "trace.untraced_throughput": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    }
    metrics = {}
    for spec in json.loads(SPEC.read_text())["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name in derived:
            value = derived[name]
        elif unit == "s":
            value = statistics.median(c["self_s"].get(name, 0.0) for c in traced)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def cross_kernel_check(workload, digest: str) -> str:
    """With the compiled kernel active, the pure kernel must give the same
    canonical suite report; run it in a fresh interpreter."""
    import hesitant._kernel as kernel

    if workload.name != "suite":
        return "not applicable"
    if kernel.compiled is None or kernel.IMPLEMENTATION == "pure":
        return "skipped: compiled kernel not importable"
    env = dict(os.environ, HESITANT_PURE="1")
    code = (
        "import sys, workloads, worker; "
        f"w = workloads.make('suite', {workload.seed}, {workload.scale!r}); "
        "print(worker.run_cycle(w, worker.tracing.NullTracer(), None)['digest'])"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    pure_digest = out.stdout.strip().splitlines()[-1]
    return "identical" if pure_digest == digest else f"DIFFERENT: pure {pure_digest}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", type=Path, help="write per-operation spans here as JSON")
    args = parser.parse_args()

    import hesitant._kernel as kernel

    workload = workloads.make(args.workload, args.seed, args.scale)
    expected = pinned_digest(workload)
    if args.trace:
        untraced = run_cycles(workload, args.seconds / 2, expected, traced=False)
        traced = run_cycles(workload, args.seconds / 2, expected, traced=True)
        cycles = untraced + traced
        metrics, problems = per_layer(traced, untraced)
    else:
        cycles = run_cycles(workload, args.seconds, expected, traced=False)
        metrics, problems = end_to_end(cycles), []
    digests = {c["digest"] for c in cycles}
    if len(digests) != 1:
        problems.append("outputs differ between cycles")
    cross_kernel = cross_kernel_check(workload, cycles[0]["digest"])
    if cross_kernel.startswith("DIFFERENT"):
        problems.append(f"kernels disagree: {cross_kernel}")
    attempted = sum(c["ops"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    if problems:
        print("FAIL " + "; ".join(problems), file=sys.stderr)
        failed = attempted
    if args.spans:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps({
            "workload": workload.name,
            "seed": workload.seed,
            "operations": [workload.label(item) for item in workload.items],
            "cycles": [{k: c[k] for k in ("latencies", "reference_s", "self_s", "counts") if k in c}
                       for c in cycles],
        }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "kernel": kernel.IMPLEMENTATION,
            "unit": workload.unit,
            "pinned": expected is not None,
            "digest": cycles[0]["digest"],
            "inputs_digest": workload.inputs_digest(),
            "cycles": len(cycles),
            "failed_ratio": failed / attempted,
            "ops_per_cycle": cycles[0]["ops"],
            "tail_percentile": summarize(cycles)["tail_percentile"],
            "unscaled": summarize(cycles, scaled=False),
            "reference_ms": [1000 * c["reference_s"] for c in cycles],
            "cross_kernel": cross_kernel,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
