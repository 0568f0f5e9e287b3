"""Evaluation contexts for law predicates.

Laws are written once, as predicates over *plain values*:

    hfe     = non-empty descending tuple of degree scalars
    hfs     = tuple of hfes (one per universe position)
    family  = tuple of hfs

and an `Algebra` that supplies the operations. Two algebras exist:

  * the exact algebra — Fraction scalars, pure-Python kernel; used to replay
    fixtures, evaluate witnesses, and back the public `evaluate_law`;
  * a grid algebra — integer scalars standing for k/den, fastest available
    kernel; used by the randomized suite, where the whole computation stays
    on the grid so integer arithmetic *is* exact rational arithmetic.

Both share semantics; the kernel equivalence tests pin them together.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .._kernel import _pykernel, active
from ..relations import Inclusion
from ..sets import HFS, Universe


class Algebra:
    """Operations over plain hfs values with a fixed complement unit."""

    __slots__ = ("kern", "one")

    def __init__(self, kern, one) -> None:
        self.kern = kern
        self.one = one

    # element level
    def erel(self, kind: Inclusion, a, b) -> bool:
        return self.kern.e_rel(kind.code, a, b)

    def esot(self, a, b) -> bool:
        return self.kern.e_sot(a, b) != 0

    # set level (pointwise over universe positions)
    def union(self, A, B):
        return self.kern.u_union(A, B)

    def inter(self, A, B):
        return self.kern.u_inter(A, B)

    def compl(self, A):
        return self.kern.u_compl(A, self.one)

    def rel(self, kind: Inclusion, A, B) -> bool:
        return self.kern.u_rel(kind.code, A, B)

    def eq(self, kind: Inclusion, A, B) -> bool:
        return self.kern.u_rel(kind.code, A, B) and self.kern.u_rel(kind.code, B, A)

    def sot(self, A, B) -> bool:
        return self.kern.u_sot(A, B)

    def equal(self, A, B) -> bool:
        return self.kern.u_equal(A, B)

    def fold_union(self, fam):
        return reduce(self.kern.u_union, fam)

    def fold_inter(self, fam):
        return reduce(self.kern.u_inter, fam)


#: Exact algebra over Fraction scalars (reference semantics).
EXACT = Algebra(_pykernel, Fraction(1))


def grid_algebra(denominator: int) -> Algebra:
    """Integer-grid algebra over the fastest available kernel."""
    return Algebra(active, denominator)


def hfs_to_plain(s: HFS) -> tuple:
    """Public HFS object -> plain value (tuple of degree tuples)."""
    return tuple(h.degrees for h in s.hfes)


def plain_to_hfs(universe: Universe, plain: tuple) -> HFS:
    """Plain value -> public HFS object over the given universe."""
    return HFS(universe, {e: plain[i] for i, e in enumerate(universe)})
