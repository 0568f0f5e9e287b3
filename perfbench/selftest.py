"""Self-tests of the benchmark, at the smallest size of every workload.

    python3 perfbench/selftest.py

Checks that each workload verifies clean on a pinned seed, that a mutated
output is caught, that two traced runs count exactly the same events, that
a new seed changes the inputs but not the metric names, that the `suite`
operations reassemble `run_suite`'s canonical report, and that the entry
point refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pin import TINY_SEED as PINNED_SEED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_cycle(workload):
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        cycle = worker.run_cycle(workload, tracer, worker.pinned_digest(workload))
    return cycle, tracer


def run_worker(name: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        env=run.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class WorkloadTests(unittest.TestCase):
    def workloads(self, seed=PINNED_SEED):
        for name in sorted(workloads.WORKLOADS):
            with self.subTest(workload=name):
                yield workloads.make(name, seed, "tiny")

    def test_pinned_seed_verifies_clean(self):
        for workload in self.workloads():
            expected = worker.pinned_digest(workload)
            self.assertIsNotNone(expected)
            cycle = worker.run_cycle(workload, tracing.NullTracer(), expected)
            self.assertEqual(cycle["failed"], 0)
            self.assertEqual(cycle["digest"], expected)

    def test_mutated_output_is_caught(self):
        for workload in self.workloads():
            with contextlib.redirect_stderr(io.StringIO()) as report:
                cycle = worker.run_cycle(workload, tracing.NullTracer(), worker.pinned_digest(workload),
                                         mutate=True)
            self.assertGreater(cycle["failed"], 0)
            self.assertIn("FAIL", report.getvalue())

    def test_traced_counts_repeat_exactly(self):
        for workload in self.workloads():
            first, tracer_a = traced_cycle(workload)
            second, tracer_b = traced_cycle(workload)
            self.assertEqual(first["failed"] + second["failed"], 0)
            self.assertEqual(dict(tracer_a.counts), dict(tracer_b.counts))
            self.assertEqual(first["digest"], second["digest"])

    def test_tracing_restores_the_library(self):
        import hesitant.laws.algebra as algebra
        from hesitant.sets import HFS

        before = (algebra.active, algebra.EXACT.kern, HFS.union)
        traced_cycle(workloads.make("docs", PINNED_SEED, "tiny"))
        self.assertEqual(before, (algebra.active, algebra.EXACT.kern, HFS.union))

    def test_suite_operations_reassemble_run_suite(self):
        from hesitant import run_suite

        workload = workloads.make("suite", PINNED_SEED, "tiny")
        results = [workload.run(law, tracing.NullTracer()) for law in workload.items]
        self.assertEqual(workload.report(results).canonical_json(), run_suite(workload.config).canonical_json())

    def test_seed_changes_inputs_not_metric_names(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for name in sorted(workloads.WORKLOADS):
            with self.subTest(workload=name):
                a, b = workloads.make(name, 1, "tiny"), workloads.make(name, 2, "tiny")
                self.assertNotEqual(a.inputs_digest(), b.inputs_digest())
                for trace, names in ((0, end_to_end), (1, per_layer)):
                    runs = [run_worker(name, seed, trace) for seed in (1, 2)]
                    for result in runs:
                        self.assertTrue(result["correct"])
                        self.assertEqual(set(result["metrics"]), names)


class EntryPointTests(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            out = subprocess.run(SPEC["command"] + ["--workload", "suite", "--seed", "0", "--seconds", "1",
                                                    "--trace", "0"],
                                 cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
