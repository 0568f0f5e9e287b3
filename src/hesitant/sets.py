"""Hesitant fuzzy sets over a fixed finite universe, and families of them.

An HFS assigns one HFE to every element of an ordered universe; operations
are pointwise and never merge differing universes. A Family is a non-empty
ordered collection of named HFSs over one shared universe; folds over a
family are left-folds, and commutativity/associativity of the binary
operations make the fold order-irrelevant up to multiset equality.

An HFS stores one integer grid, the value the law engine evaluates: `_grid`,
a descending tuple of int numerators per element, over the lcm `_den` of the
memberships' reduced denominators, so equal sets have identical fields. The
constructor and the operations put rows and sets on a common grid with the
helpers of `elements`, and the operations run the pure kernel's set
functions; `hfes`, `items()` and `hfs[e]` build their HFEs on access.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from functools import reduce

from ._kernel import exact as _ops
from .elements import HFE, _on_lcm, _reduced, _row
from .errors import UniverseMismatchError, attribute, collection, require, shown


class Universe:
    """Ordered sequence of distinct element identifiers."""

    __slots__ = ("_elements", "_index")

    def __init__(self, elements: Iterable[str]) -> None:
        elems = tuple(collection(elements, "universe elements", "element ids"))
        if not elems:
            raise ValueError("a universe needs at least one element")
        for e in elems:
            if not isinstance(e, str) or not e:
                raise ValueError(f"universe element ids must be non-empty strings, got {shown(e)}")
        if len(set(elems)) != len(elems):
            dupe = min(e for e, n in Counter(elems).items() if n > 1)
            raise ValueError(f"duplicate universe element {shown(dupe)}")
        object.__setattr__(self, "_elements", elems)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elems)})

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elements

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise KeyError(f"element {shown(element)} is not in the universe") from None

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self._elements)

    def __contains__(self, element) -> bool:
        return element in self._index

    def __eq__(self, other) -> bool:
        if isinstance(other, Universe):
            return self._elements == other._elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"Universe({list(self._elements)!r})"


def _as_universe(universe) -> Universe:
    return universe if isinstance(universe, Universe) else Universe(universe)


def _binary(op, a: tuple, b: tuple) -> tuple:
    """`op`, the pure kernel's `u_union` or `u_inter`, of two unreduced
    (universe, grid, den) triples on one universe, as such a triple: the
    grids meet on the lcm of their denominators only where those differ."""
    universe, grid_a, den = a
    other, grid_b, den_b = b
    if other is not universe and other != universe:
        raise UniverseMismatchError(
            f"operands live on different universes: {list(universe.elements)} vs {list(other.elements)}"
        )
    if den_b != den:
        den, (grid_a, grid_b) = _on_lcm((grid_a, den), (grid_b, den_b))
    return universe, op(grid_a, grid_b), den


class SetOp(Enum):
    UNION = "union"
    INTERSECTION = "intersection"


class HFS:
    """A total mapping from universe elements to HFEs; immutable."""

    __slots__ = ("_universe", "_grid", "_den")

    def __init__(self, universe, memberships: Mapping[str, object]) -> None:
        uni = _as_universe(universe)
        if not isinstance(memberships, Mapping):  # a str would answer `in` and fail on indexing
            kind = type(memberships).__name__
            raise TypeError(f"memberships must be a mapping of element ids to degrees, not {kind}")
        for e in uni:
            if e not in memberships:
                raise ValueError(f"missing membership for element {shown(e)}")
            if isinstance(memberships[e], (str, bytes)):  # it would iterate as characters
                kind = type(memberships[e]).__name__
                raise TypeError(f"membership of element {shown(e)} must be a collection of degrees, not {kind}")
        if len(memberships) != len(uni):  # then some key is not in the universe
            extra = next(e for e in memberships if e not in uni)
            raise ValueError(f"unknown element {shown(extra)}")
        rows = [(m._nums, m._den) if isinstance(m, HFE) else _row(m) for m in (memberships[e] for e in uni)]
        den, grid = _on_lcm(*rows)
        self._universe = uni
        self._grid, self._den = _reduced(tuple(grid), den)

    @classmethod
    def _from_grid(cls, universe: Universe, grid: tuple, den: int) -> "HFS":
        """The HFS of the descending numerator tuples `grid`, one per element
        of `universe` in order, over `den`."""
        obj = object.__new__(cls)
        obj._universe = universe
        obj._grid, obj._den = _reduced(grid, den)
        return obj

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def hfes(self) -> tuple[HFE, ...]:
        """Memberships in universe order."""
        return tuple(HFE._from_grid(h, self._den) for h in self._grid)

    def __getitem__(self, element: str) -> HFE:
        return HFE._from_grid(self._grid[self._universe.index(element)], self._den)

    def items(self) -> Iterator[tuple[str, HFE]]:
        return zip(self._universe, self.hfes)

    def _operands(self, other: "HFS") -> tuple:
        """The (universe, grid, den) triples of self and other."""
        if not isinstance(other, HFS):
            raise TypeError(f"operand must be an HFS, not {type(other).__name__}")
        return (self._universe, self._grid, self._den), (other._universe, other._grid, other._den)

    def union(self, other: "HFS") -> "HFS":
        return HFS._from_grid(*_binary(_ops.u_union, *self._operands(other)))

    def intersection(self, other: "HFS") -> "HFS":
        return HFS._from_grid(*_binary(_ops.u_inter, *self._operands(other)))

    def complement(self) -> "HFS":
        return HFS._from_grid(self._universe, _ops.u_compl(self._grid, self._den), self._den)

    def __or__(self, other):
        return self.union(other) if isinstance(other, HFS) else NotImplemented

    def __and__(self, other):
        return self.intersection(other) if isinstance(other, HFS) else NotImplemented

    __invert__ = complement

    def __eq__(self, other) -> bool:
        if isinstance(other, HFS):
            return self._den == other._den and self._grid == other._grid and self._universe == other._universe
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._universe, self._grid, self._den))

    def __repr__(self) -> str:
        body = ", ".join(f"{e}: {h}" for e, h in self.items())
        return f"HFS({body})"


def make_hfs(universe, assignments: Mapping[str, Iterable]) -> HFS:
    """Build an HFS from per-element degree iterables, canonicalizing each."""
    return HFS(universe, assignments)


def combine(op: SetOp, a: HFS, b: HFS) -> HFS:
    """Pointwise union or intersection of two sets on one universe."""
    try:
        if op is SetOp.UNION:
            return a.union(b)
        if op is SetOp.INTERSECTION:
            return a.intersection(b)
    except AttributeError:
        require(HFS, "an HFS", a=a)
        raise
    raise ValueError(f"unknown operation {op!r}")


def complement(a: HFS) -> HFS:
    return attribute(a, "complement", HFS, "an HFS", "a")()


class Family:
    """Non-empty ordered collection of named HFSs over one universe."""

    __slots__ = ("_universe", "_names", "_sets")

    def __init__(self, members: Sequence[tuple[str, HFS]]) -> None:
        members = tuple(members)
        if not members:
            raise ValueError("a family needs at least one member")
        try:
            names = tuple(name for name, _ in members)
        except (TypeError, ValueError, KeyError):  # what unpacking a non-pair raises
            raise TypeError("family members must be (name, HFS) pairs") from None
        if len(set(names)) != len(names):
            raise ValueError("family member names must be distinct")
        for name, s in members:
            if not isinstance(s, HFS):
                raise TypeError(f"family member {shown(name)} must be an HFS, not {type(s).__name__}")
        sets_ = tuple(s for _, s in members)
        uni = sets_[0].universe
        for s in sets_[1:]:
            if s.universe != uni:
                raise UniverseMismatchError("family members must share one universe")
        object.__setattr__(self, "_universe", uni)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_sets", sets_)

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def sets(self) -> tuple[HFS, ...]:
        return self._sets

    def members(self) -> Iterator[tuple[str, HFS]]:
        return zip(self._names, self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[HFS]:
        return iter(self._sets)

    def __repr__(self) -> str:
        return f"Family({list(self._names)!r})"


def family_fold(op: SetOp, fam: Family) -> HFS:
    """Left-fold of the binary operation over the members in order.

    The result is order-independent as a multiset-valued HFS (the binary
    operations are commutative and associative); a property test folds in
    shuffled order and compares.
    """
    sets_ = attribute(fam, "sets", Family, "a Family", "fam")
    if op is SetOp.UNION:
        return reduce(HFS.union, sets_)
    if op is SetOp.INTERSECTION:
        return reduce(HFS.intersection, sets_)
    raise ValueError(f"unknown operation {op!r}")


def is_subfamily(f1: Family, f2: Family) -> bool:
    """f1 ⊏ f2: True iff f1 is a sub-multiset of f2, matching members by
    equality (degrees as multisets, names ignored).

    Multiplicity counts: each member of f2 matches at most one member of f1,
    so a family holding X twice is not a subfamily of one holding X once.
    """
    try:
        if f1.universe != f2.universe:
            raise UniverseMismatchError("families live on different universes")
        small, big = f1.sets, f2.sets
    except AttributeError:
        require(Family, "a Family", f1=f1, f2=f2)
        raise
    return is_submultiset(small, big)


def is_submultiset(small, big) -> bool:
    """True iff each item of `small` equals its own item of `big`: the
    law registry's ⊏ on plain grid values, and `is_subfamily`."""
    unmatched = list(big)
    for item in small:
        try:
            unmatched.remove(item)
        except ValueError:
            return False
    return True
