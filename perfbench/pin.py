"""Pin the output digests of the shipped seeds into `pins.json`.

    PYTHONPATH=src python3 perfbench/pin.py [--seeds 32] [--workload NAME ...]

Runs one untraced cycle per (workload, scale, seed) and records its digest:
seeds 0 .. N-1 at the `full` scale that `run.py` measures, and the self-tests'
pinned seed at the `tiny` scale.
A pin states what correct output is, so regenerate pins only when the
benchmark's inputs change on purpose, on a commit whose test suite passes;
never to make a changed output pass.
"""

from __future__ import annotations

import argparse
import json

import tracing
import worker
import workloads

# The seed `selftest.py` checks against a pin at the `tiny` scale.
TINY_SEED = 0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=32, help="pin seeds 0 .. N-1")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    pins = json.loads(worker.PINS.read_text()) if worker.PINS.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        for scale, seeds in (("tiny", [TINY_SEED]), ("full", range(args.seeds))):
            for seed in seeds:
                workload = workloads.make(name, seed, scale)
                cycle = worker.run_cycle(workload, tracing.NullTracer(), None)
                if cycle["failed"]:
                    raise SystemExit(f"{workload.spec} seed {seed}: {cycle['failed']} operations fail")
                pins.setdefault(workload.spec, {})[str(seed)] = cycle["digest"]
                print(workload.spec, seed, cycle["digest"], flush=True)
    worker.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
