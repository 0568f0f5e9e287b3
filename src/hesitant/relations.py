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

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from ._kernel import _pykernel as _ops
from .degrees import coerce_degree
from .elements import HFE, _common
from .errors import UniverseMismatchError


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

    Accepts HFEs or raw degree sequences; raises ValueError on length
    mismatch.
    """
    vt = v.degrees if isinstance(v, HFE) else tuple(coerce_degree(g) for g in v)
    wt = w.degrees if isinstance(w, HFE) else tuple(coerce_degree(g) for g in w)
    return _ops.pointwise_leq(vt, wt)


def best_subsequence(h: HFE, q: int) -> HFE:
    """The best q-subsequence: the q largest degrees with multiplicity."""
    return h.best(q)


def is_subsequence(sub: HFE, whole: HFE) -> bool:
    """Multiset containment: every degree of sub occurs in whole with at
    least the same multiplicity."""
    s, w, _ = _common(sub, whole)
    return _ops.is_subseq(s, w)


def element_relation(kind: Inclusion, a: HFE, b: HFE) -> bool:
    """Does a ⊂kind b hold for two memberships?

    The relations only compare and add degrees, so they hold on the common
    integer grid of the two exactly when they hold on the degrees.
    """
    ga, gb, _ = _common(a, b)
    return _ops.e_rel(kind.code, ga, gb)


def classify_strong_or_tail(a: HFE, b: HFE) -> Optional[Inclusion]:
    """STRONG if a ⊂s b, TAIL if a ⊂t b, None otherwise (never both)."""
    ga, gb, _ = _common(a, b)
    verdict = _ops.e_sot(ga, gb)
    if verdict == 1:
        return Inclusion.STRONG
    if verdict == 2:
        return Inclusion.TAIL
    return None


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
        return getattr(self, _FIELDS[kind])

    def as_dict(self) -> dict[Inclusion, bool]:
        return {kind: self[kind] for kind in Inclusion}


_FIELDS = {
    Inclusion.POSSIBLE: "possible",
    Inclusion.ACCEPTABLE: "acceptable",
    Inclusion.MEAN: "mean",
    Inclusion.STRONG: "strong",
    Inclusion.TAIL: "tail",
    Inclusion.NECESSARY: "necessary",
}


def relation_profile(a: HFE, b: HFE) -> RelationProfile:
    """Evaluate all six relations for the ordered pair (a, b) in one pass."""
    return RelationProfile(
        possible=element_relation(Inclusion.POSSIBLE, a, b),
        acceptable=element_relation(Inclusion.ACCEPTABLE, a, b),
        mean=element_relation(Inclusion.MEAN, a, b),
        strong=element_relation(Inclusion.STRONG, a, b),
        tail=element_relation(Inclusion.TAIL, a, b),
        necessary=element_relation(Inclusion.NECESSARY, a, b),
        strong_or_tail=classify_strong_or_tail(a, b),
    )


def set_relation(kind: Inclusion, A, B) -> bool:
    """A ⊂kind B at set level: the element relation holds at every x."""
    if A.universe != B.universe:
        raise UniverseMismatchError("set relation needs a shared universe")
    return all(element_relation(kind, a, b) for a, b in zip(A.hfes, B.hfes))


def set_equality(kind: Inclusion, A, B) -> bool:
    """A =kind B: mutual set-level inclusion. Undefined (rejected) for ⊂t,
    which cannot hold in both directions."""
    if kind is Inclusion.TAIL:
        raise ValueError("⊂t admits no equality: it cannot hold in both directions")
    return set_relation(kind, A, B) and set_relation(kind, B, A)
