"""The six inclusion relations between hesitant fuzzy memberships.

Writing a, b for the two HFEs as descending sequences, a ⊂ b holds:

    possible   (p)  iff max a <= max b
    acceptable (a)  iff max a <= max b and min a <= min b
    mean       (m)  iff mean a <= mean b
    strong     (s)  iff |a| >= |b| and b[i] >= a[i] for i < |b|
    tail       (t)  iff |a| <  |b| and b[i] >= a[i] for i < |a|
    necessary  (n)  iff max a <= min b

All comparisons are non-strict and exact. ⊂s and ⊂t are mutually exclusive
by the cardinality test; "strong or tail" (sot) holds iff either does, and is
equivalent to componentwise dominance of the best-q subsequences at
q = min(|a|, |b|).

Set-level relations quantify the element-level ones over the whole universe,
and the equality =k (k != t) is mutual set-level inclusion. ⊂t admits no
equality: a ⊂t b and b ⊂t a would need |a| < |b| < |a|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from ._kernel import exact as _ops
from .degrees import degree_ratio
from .elements import HFE, _on_lcm
from .errors import UniverseMismatchError, require


class Inclusion(Enum):
    """The six inclusion relation kinds, keyed by their one-letter tags."""

    POSSIBLE = "p"
    ACCEPTABLE = "a"
    MEAN = "m"
    STRONG = "s"
    TAIL = "t"
    NECESSARY = "n"

    @property
    def letter(self) -> str:
        return self.value

    @property
    def code(self) -> int:
        return _CODES[self]

    @classmethod
    def from_letter(cls, letter: str) -> "Inclusion":
        try:
            return cls(letter.lower())
        except ValueError:
            raise ValueError(
                f"unknown relation kind {letter!r}; expected one of p, a, m, s, t, n"
            ) from None

    def __str__(self) -> str:
        return f"⊂{self.value}"


_CODES = {
    Inclusion.POSSIBLE: _ops.REL_P,
    Inclusion.ACCEPTABLE: _ops.REL_A,
    Inclusion.MEAN: _ops.REL_M,
    Inclusion.STRONG: _ops.REL_S,
    Inclusion.TAIL: _ops.REL_T,
    Inclusion.NECESSARY: _ops.REL_N,
}


def pointwise_leq(v: Sequence, w: Sequence) -> bool:
    """True iff w dominates v componentwise (equal-length descending seqs).

    Accepts HFEs or raw degree sequences, compared on their common integer
    grid; raises ValueError on length mismatch.
    """
    rv, rw = (
        [(n, s._den) for n in s._nums] if isinstance(s, HFE) else [degree_ratio(g) for g in s]
        for s in (v, w)
    )
    if len(rv) != len(rw):
        raise ValueError(f"length mismatch: {len(rv)} vs {len(rw)}")
    _, nums = _on_lcm(*rv, *rw)
    return all(x <= y for x, y in zip(nums[: len(rv)], nums[len(rv) :]))


def best_subsequence(h: HFE, q: int) -> HFE:
    """The best q-subsequence: the q largest degrees with multiplicity."""
    return h.best(q)


def is_subsequence(sub: HFE, whole: HFE) -> bool:
    """Multiset containment: every degree of sub occurs in whole with at
    least the same multiplicity."""
    _, s, w = sub._with(whole)
    return Counter(s) <= Counter(w)


def element_relation(kind: Inclusion, a: HFE, b: HFE) -> bool:
    """Does a ⊂kind b hold for two memberships?

    The relations only compare and add degrees, so they hold on the common
    integer grid of the two exactly when they hold on the degrees.
    """
    _, ga, gb = a._with(b)
    try:
        code = kind.code
    except AttributeError:
        raise _not_a_kind(kind) from None
    return _ops.u_rel(code, (ga,), (gb,))


def _not_a_kind(kind) -> TypeError:
    return TypeError(f"kind must be an Inclusion, not {type(kind).__name__}")


def _strong_or_tail(ga: tuple, gb: tuple) -> Optional[Inclusion]:
    if not _ops.u_rel(_ops.REL_SOT, (ga,), (gb,)):
        return None
    return Inclusion.STRONG if len(ga) >= len(gb) else Inclusion.TAIL


def classify_strong_or_tail(a: HFE, b: HFE) -> Optional[Inclusion]:
    """STRONG if a ⊂s b, TAIL if a ⊂t b, None otherwise (never both)."""
    _, ga, gb = a._with(b)
    return _strong_or_tail(ga, gb)


@dataclass(frozen=True)
class RelationProfile:
    """All six element-level verdicts for one ordered pair, plus the
    strong-or-tail classification.

    Construction checks the implication lattice: n implies everything except
    t, s implies a, m and p, a implies p, t implies p, and n forces s or t.
    """

    possible: bool
    acceptable: bool
    mean: bool
    strong: bool
    tail: bool
    necessary: bool
    strong_or_tail: Optional[Inclusion]

    def __post_init__(self) -> None:
        checks = (
            (not self.acceptable or self.possible),
            (not self.strong or (self.possible and self.acceptable and self.mean)),
            (not self.tail or self.possible),
            (not self.necessary or (self.possible and self.acceptable and self.mean)),
            (not self.necessary or self.strong_or_tail is not None),
            (not (self.strong and self.tail)),
            (self.strong_or_tail is not None) == (self.strong or self.tail),
        )
        if not all(checks):
            raise AssertionError(f"inconsistent relation profile: {self}")

    def __getitem__(self, kind: Inclusion) -> bool:
        if not isinstance(kind, Inclusion):
            raise KeyError(kind)
        return getattr(self, kind.name.lower())

    def as_dict(self) -> dict[Inclusion, bool]:
        return {kind: self[kind] for kind in Inclusion}


def relation_profile(a: HFE, b: HFE) -> RelationProfile:
    """Evaluate all six relations for the ordered pair (a, b) in one pass,
    on one rescaling of the pair."""
    _, ga, gb = a._with(b)
    verdicts = {kind.name.lower(): _ops.u_rel(kind.code, (ga,), (gb,)) for kind in Inclusion}
    return RelationProfile(**verdicts, strong_or_tail=_strong_or_tail(ga, gb))


def set_relation(kind: Inclusion, A, B) -> bool:
    """A ⊂kind B at set level: the element relation holds at every x."""
    try:
        if A.universe != B.universe:
            raise UniverseMismatchError("set relation needs a shared universe")
        rows = (A._grid, A._den), (B._grid, B._den)
    except AttributeError:
        from .sets import HFS

        require(HFS, "an HFS", A=A, B=B)
        raise
    _, (ga, gb) = _on_lcm(*rows)
    try:
        code = kind.code
    except AttributeError:
        raise _not_a_kind(kind) from None
    return _ops.u_rel(code, ga, gb)


def set_equality(kind: Inclusion, A, B) -> bool:
    """A =kind B: mutual set-level inclusion. Undefined (rejected) for ⊂t,
    which cannot hold in both directions."""
    if kind is Inclusion.TAIL:
        raise ValueError("⊂t admits no equality: it cannot hold in both directions")
    return set_relation(kind, A, B) and set_relation(kind, B, A)
