"""Evaluation contexts for law predicates.

Laws are compiled once, to predicates over *plain values*:

    hfe     = non-empty descending tuple of degree scalars
    hfs     = tuple of hfes (one per universe position)
    family  = tuple of hfs

and an `Algebra`: the kernel module whose functions they call, and the
complement unit `one` of its scalars. Two algebras exist:

  * the exact algebra — Fraction scalars, pure-Python kernel; used to replay
    fixtures, evaluate witnesses, and back the public `evaluate_law`;
  * a grid algebra — integer scalars standing for k/den, fastest available
    kernel; used by the randomized suite, where the whole computation stays
    on the grid so integer arithmetic *is* exact rational arithmetic.

Both share semantics; the kernel equivalence tests pin them together.
"""

from __future__ import annotations

from fractions import Fraction

from .._kernel import _pykernel, active
from ..sets import HFS


class Algebra:
    """A kernel module and the complement unit of its scalars. Laws call
    the kernel through `kern` directly."""

    __slots__ = ("kern", "one")

    def __init__(self, kern, one) -> None:
        self.kern = kern
        self.one = one


#: Exact algebra over Fraction scalars (reference semantics).
EXACT = Algebra(_pykernel, Fraction(1))


def grid_algebra(denominator: int) -> Algebra:
    """Integer-grid algebra over the fastest available kernel."""
    return Algebra(active, denominator)


def hfs_to_plain(s: HFS) -> tuple:
    """Public HFS object -> plain value (tuple of degree tuples)."""
    return tuple(h.degrees for h in s.hfes)

