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
fields. The operations run the pure kernel on those ints — operands on
different denominators are first rescaled to their lcm, and results are
reduced by the gcd of the denominator and the numerators — so they are exact
rational arithmetic without building a `Fraction`. Degrees come out as
`Fraction` values only at the API edge (`degrees`, iteration, `upper`,
`lower`, `bounds`, `mean`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from ._kernel import _pykernel as _ops
# `coerce_degree` stays bound here for perfbench/tracing.py, which rebinds it
# in this module; the constructor reads degrees through `degree_ratio`.
from .degrees import DegreeError, coerce_degree, degree_ratio, format_grid


def _fmt(num: int, den: int) -> str:
    try:
        return format_grid(num, den)
    except DegreeError:
        g = Fraction(num, den)
        return f"{g.numerator}/{g.denominator}"


def _scaled(nums: tuple, factor: int) -> tuple:
    return nums if factor == 1 else tuple(n * factor for n in nums)


def _common(a: "HFE", b: "HFE") -> tuple[tuple, tuple, int]:
    """The numerators of a and b over the lcm of their denominators, and
    that lcm."""
    da, db = a._den, b._den
    if da == db:
        return a._nums, b._nums, da
    den = lcm(da, db)
    return _scaled(a._nums, den // da), _scaled(b._nums, den // db), den


def _reduced(nums, den: int) -> tuple[tuple, int]:
    """Descending numerators over `den` divided by their common factor with
    `den`: the canonical (numerators, lcm of reduced denominators)."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


class HFE:
    """A canonical descending multiset of degrees; immutable and hashable."""

    __slots__ = ("_nums", "_den")

    def __init__(self, values: Iterable) -> None:
        ratios = [degree_ratio(v) for v in values]
        if not ratios:
            raise ValueError("an HFE needs at least one degree")
        den = lcm(*{d for _, d in ratios})
        nums = sorted((n * (den // d) for n, d in ratios), reverse=True)
        self._nums, self._den = _reduced(nums, den)

    @classmethod
    def _from_grid(cls, nums: tuple, den: int) -> "HFE":
        """The HFE of the descending numerators `nums` over `den`."""
        obj = object.__new__(cls)
        obj._nums, obj._den = _reduced(nums, den)
        return obj

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
        return HFE._from_grid(_ops.best_q(self._nums, q), self._den)

    def union(self, other: "HFE") -> "HFE":
        a, b, den = _common(self, other)
        return HFE._from_grid(_ops.e_union(a, b), den)

    def intersection(self, other: "HFE") -> "HFE":
        a, b, den = _common(self, other)
        return HFE._from_grid(_ops.e_inter(a, b), den)

    def complement(self) -> "HFE":
        return HFE._from_grid(_ops.e_compl(self._nums, self._den), self._den)

    __or__ = union
    __and__ = intersection
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
