"""A fixed reference computation that tracks the speed of a shared machine.

The machine the benchmark was tuned on is shared with other tenants, and its
speed for interpreter-heavy work drifts by 15-30% over minutes. Within one
process that drift slows this reference about as much as it slows the
workloads: on that machine, the run-to-run spread of timings divided by it
was a third to a tenth of the spread of raw timings. The reference mixes what the workloads do: integer arithmetic,
building and probing dicts of tuples, sorting, and exact `Fraction`
arithmetic. It imports nothing from `hesitant`, so no change to the package
can move it.

A time t measured while the reference takes r seconds is reported as
t * NOMINAL_S / r. On that machine at its usual speed r is close to
NOMINAL_S, so scaled times still read as seconds.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

#: The reference's usual time on the machine the bounds were set on.
NOMINAL_S = 0.012


def _work():
    total = 0
    for i in range(30_000):
        total += (i * 7) % 13
    rng = random.Random(20231107)
    keys = [(rng.randrange(1 << 30), i) for i in range(3_000)]
    table = dict.fromkeys(keys, 1)
    rng.shuffle(keys)
    total += sum(table[k] for k in keys)
    total += len([sorted(keys[i:i + 8]) for i in range(0, len(keys), 8)])
    acc = Fraction(0)
    for i in range(1, 500):
        x = Fraction(i % 97, 100) + Fraction(i % 89, 10**9)
        acc = acc - x if x * 3 <= acc else acc + x / 7
    return total, acc


def reference_s() -> float:
    """Seconds one run of the reference takes now, with the garbage
    collector held off so that only the machine's speed varies."""
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        gc.enable()


def scale(seconds: float, reference: float) -> float:
    """`seconds`, measured while the reference took `reference` seconds,
    in reference-scaled seconds."""
    return seconds * NOMINAL_S / reference
