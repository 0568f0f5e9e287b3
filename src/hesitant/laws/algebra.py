"""Evaluation contexts for law predicates.

Laws are compiled once, to predicates `(kern, one, binding)` over the plain
values of the kernel contract, which the docstring of `_kernel.pure` states:
a binding is the tuple of a law's param values, an hfs or a family (a tuple
of hfs) each, in `params` order.

An `Algebra` holds the two other arguments: `kern`, the kernel module the
predicates call, and the complement unit `one` = den. Callers read both once
per law, or once per exact evaluation. The randomized suite draws on the
grid 1/degree_grid and runs the active kernel (`grid_algebra`). Exact
evaluation (`evaluate_law`, fixture and witness replay) puts a binding on
the lcm of its denominators and runs `_kernel.exact` (`EXACT.kern`).
"""

from __future__ import annotations

from .._kernel import active, exact


class Algebra:
    """A kernel module and the complement unit of its scalars: the first
    two arguments of every law predicate."""

    __slots__ = ("kern", "one")

    def __init__(self, kern, one) -> None:
        self.kern = kern
        self.one = one


#: Exact evaluation's kernel; each evaluation pairs it with its binding's
#: denominator.
EXACT = Algebra(exact, 1)


def grid_algebra(denominator: int) -> Algebra:
    """Integer-grid algebra over the active kernel."""
    return Algebra(active, denominator)
