"""Hesitant fuzzy elements.

An HFE is the membership degree of one universe element: a non-empty finite
multiset of exact degrees, kept in canonical descending order. Duplicates are
significant — {0.6, 0.6, 0.5} and {0.6, 0.5} are different elements, and two
HFEs are equal iff they are equal as multisets.

The three binary operations follow the bound-filtered concatenation rules:

    union(a, b)        = {h in a ⊔ b : h >= max(min a, min b)}
    intersection(a, b) = {h in a ⊔ b : h <= min(max a, max b)}
    complement(a)      = {1 - h : h in a}

where ⊔ concatenates with multiplicity. Both filters provably keep at least
one degree (the largest maximum survives the union filter, the smallest
minimum survives the intersection filter), so results are never empty.

Representation: an HFE holds its degrees on an integer grid, as a descending
tuple of int numerators `_nums` over one denominator `_den`, the lcm of the
degrees' reduced denominators. Equal multisets therefore have identical
fields. Exact values meet on a common grid in one place: `_on_lcm` rescales
degrees, rows or whole set grids onto the lcm of their denominators, and
`_reduced` divides a grid by the gcd of its denominator and numerators. An
HFE is the one-position case of an HFS, so its operations run the pure
kernel's set functions on one-position grids; they are exact rational
arithmetic without building a `Fraction`. Degrees come out as `Fraction`
values only at the API edge (`degrees`, iteration, `upper`, `lower`,
`bounds`, `mean`). An HFS stores one grid for all its elements and builds an
element's HFE (`_from_grid`) on access.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator

from ._kernel import exact as _ops
# `coerce_degree` stays bound here for perfbench/tracing.py, which rebinds it
# in this module; the constructor reads degrees through `degree_ratio`.
from .degrees import DegreeError, coerce_degree, degree_ratio, format_grid
from .errors import collection


def _fmt(num: int, den: int) -> str:
    try:
        return format_grid(num, den)
    except DegreeError:
        g = Fraction(num, den)
        return f"{g.numerator}/{g.denominator}"


def _times(value, f: int):
    """An int numerator, a row (a tuple of numerators) or a grid (a tuple
    of rows), times f."""
    if type(value) is int:
        return value * f
    if value and type(value[0]) is tuple:
        return tuple([tuple([n * f for n in row]) for row in value])
    return tuple([n * f for n in value])


def _on_lcm(*values: tuple) -> tuple[int, list]:
    """`(value, den)` pairs on the lcm of their denominators: that lcm, and
    each value over it (a value already over the lcm comes back as it is)."""
    # Plain loops: every set relation, and every set operation on two
    # denominators, comes through here, and on Python 3.11 a comprehension
    # costs a frame of its own per call.
    den = 1
    for _, d in values:
        if d != den:
            den = lcm(den, d)
    out = []
    for v, d in values:
        out.append(v if d == den else _times(v, den // d))
    return den, out


def _reduced(grid: tuple, den: int) -> tuple[tuple, int]:
    """A grid over `den` divided by the gcd of `den` and its numerators: the
    canonical (grid, lcm of the degrees' reduced denominators)."""
    g = gcd(den, *chain.from_iterable(grid))
    if g == 1:
        return grid, den
    return tuple([tuple([n // g for n in row]) for row in grid]), den // g


def _row(values: Iterable) -> tuple[tuple, int]:
    """Degree values as one descending row of numerators over the lcm of
    their denominators, not yet reduced."""
    ratios = [degree_ratio(v) for v in values]
    if not ratios:
        raise ValueError("an HFE needs at least one degree")
    den, nums = _on_lcm(*ratios)
    nums.sort(reverse=True)
    return tuple(nums), den


class HFE:
    """A canonical descending multiset of degrees; immutable and hashable."""

    __slots__ = ("_nums", "_den")

    def __init__(self, values: Iterable) -> None:
        nums, den = _row(collection(values, "HFE values", "degrees"))
        (self._nums,), self._den = _reduced((nums,), den)

    @classmethod
    def _from_grid(cls, nums: tuple, den: int) -> "HFE":
        """The HFE of the descending numerators `nums` over `den`."""
        obj = object.__new__(cls)
        (obj._nums,), obj._den = _reduced((nums,), den)
        return obj

    def _with(self, other: "HFE") -> tuple[int, tuple, tuple]:
        """The lcm of the two denominators, and the numerators of each over it."""
        if not isinstance(other, HFE):
            raise TypeError(f"operand must be an HFE, not {type(other).__name__}")
        den, (a, b) = _on_lcm((self._nums, self._den), (other._nums, other._den))
        return den, a, b

    @property
    def degrees(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    @property
    def upper(self) -> Fraction:
        """Largest degree (the best evaluation)."""
        return Fraction(self._nums[0], self._den)

    @property
    def lower(self) -> Fraction:
        """Smallest degree (the worst evaluation)."""
        return Fraction(self._nums[-1], self._den)

    @property
    def bounds(self) -> tuple[Fraction, Fraction]:
        """(lower, upper)."""
        return self.lower, self.upper

    @property
    def mean(self) -> Fraction:
        """Exact mean of the degrees, with multiplicity."""
        return Fraction(sum(self._nums), len(self._nums) * self._den)

    def best(self, q: int) -> "HFE":
        """The q largest degrees with multiplicity (1 <= q <= len(self))."""
        if not isinstance(q, int) or isinstance(q, bool):
            raise TypeError(f"q must be an int, not {type(q).__name__}")
        if not 1 <= q <= len(self._nums):
            raise ValueError(f"q={q} out of range 1..{len(self._nums)}")
        return HFE._from_grid(self._nums[:q], self._den)

    def union(self, other: "HFE") -> "HFE":
        den, a, b = self._with(other)
        return HFE._from_grid(_ops.u_union((a,), (b,))[0], den)

    def intersection(self, other: "HFE") -> "HFE":
        den, a, b = self._with(other)
        return HFE._from_grid(_ops.u_inter((a,), (b,))[0], den)

    def complement(self) -> "HFE":
        return HFE._from_grid(_ops.u_compl((self._nums,), self._den)[0], self._den)

    def __or__(self, other):
        return self.union(other) if isinstance(other, HFE) else NotImplemented

    def __and__(self, other):
        return self.intersection(other) if isinstance(other, HFE) else NotImplemented

    __invert__ = complement

    def __len__(self) -> int:
        return len(self._nums)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.degrees)

    def __contains__(self, value) -> bool:
        num, den = degree_ratio(value)
        scaled, rest = divmod(num * self._den, den)
        return not rest and scaled in self._nums

    def __eq__(self, other) -> bool:
        if isinstance(other, HFE):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __str__(self) -> str:
        return "{" + ", ".join(_fmt(n, self._den) for n in self._nums) + "}"

    def __repr__(self) -> str:
        return f"hfe({', '.join(repr(_fmt(n, self._den)) for n in self._nums)})"


def hfe(*values) -> HFE:
    """Convenience constructor: hfe("0.6", "0.5", "0.3")."""
    return HFE(values)


def make_hfe(values: Iterable) -> HFE:
    """Build an HFE from any iterable of degrees (canonicalizing)."""
    return HFE(values)
