"""Evaluation contexts for law predicates.

Laws are compiled once, to predicates `(kern, one, binding)` over *plain
values* on an integer grid:

    hfe     = non-empty descending tuple of int numerators k, meaning k/den
    hfs     = tuple of hfes (one per universe position)
    family  = tuple of hfs
    binding = tuple of the law's param values (an hfs or a family each), in
              `params` order

An `Algebra` holds the two other arguments: `kern`, the kernel module the
predicates call, and the complement unit `one` = den. Callers read both once
per law, or once per exact evaluation. The randomized suite draws on the
grid 1/degree_grid and runs the fastest kernel (`grid_algebra`). Exact
evaluation (`evaluate_law`, fixture and witness replay) puts a binding on
the lcm of its denominators, which can outgrow a C integer, and so runs the
pure kernel, `EXACT.kern`.
"""

from __future__ import annotations

from .._kernel import _pykernel, active


class Algebra:
    """A kernel module and the complement unit of its scalars: the first
    two arguments of every law predicate."""

    __slots__ = ("kern", "one")

    def __init__(self, kern, one) -> None:
        self.kern = kern
        self.one = one


#: Exact evaluation's kernel is `EXACT.kern`, the pure one; each evaluation
#: pairs it with its binding's denominator.
EXACT = Algebra(_pykernel, 1)


def grid_algebra(denominator: int) -> Algebra:
    """Integer-grid algebra over the fastest available kernel."""
    return Algebra(active, denominator)
