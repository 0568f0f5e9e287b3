"""Pure-Python kernel: the reference implementation of the hot primitives.

Everything here works on plain tuples of ints over one denominator den: a
degree k stands for k/den, and the complement unit `one` is den. An element
value ("hfe") is a non-empty descending tuple of degrees; a set value
("hfs") is a tuple of hfes, one per universe position. The functions only
compare, add and subtract degrees, so they are exact rational arithmetic;
den may exceed a C integer.

Random generation draws from a SplitMix64 `Stream`. `gen_hfe` and `gen_hfs`
load the stream's state into a local once, run every draw on that local and
store it back once, and `Stream.below`/`randint` repeat the step of `u64`
inline; the numbers drawn and the state left behind are exactly those of one
`u64` call per draw. `tests/test_streams.py` pins that against a
method-per-draw oracle.

The compiled twin, the hand-written C module `_ckernel.c`, has only what the
trials call (`Stream`, `canon`, `e_rel`, `u_*`, `gen_hfe`, `gen_hfs`), with
the identical contract for degrees that fit int64, including bit-identical
random streams: for every input it returns exactly what this module returns
or raises a Python exception (`OverflowError` outside int64, `TypeError` for
an hfe that is not a tuple). `tests/test_kernel.py` pins the equivalence.
"""

from __future__ import annotations

IMPLEMENTATION = "pure"

# Relation codes, shared with the compiled kernel.
REL_P, REL_A, REL_M, REL_S, REL_T, REL_N = range(6)

_MASK = (1 << 64) - 1

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state advances by
# _GOLDEN and each output is the state mixed by two xor-shift-multiply rounds.
# The names and values match `_ckernel.c`.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Stream:
    """SplitMix64 random stream; deterministic function of its seed.

    `below` and `randint` repeat the step of `u64` inline: they are the
    generators' hottest calls, and a chain of method calls per draw
    (`randint` -> `below` -> `u64`) is a large share of the draw's cost.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def u64(self) -> int:
        self.state = z = (self.state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from range(n) via 64-bit fixed-point scaling."""
        self.state = z = (self.state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return ((z ^ (z >> 31)) * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        self.state = z = (self.state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return lo + (((z ^ (z >> 31)) * (hi - lo + 1)) >> 64)


def canon(values):
    """Canonical form of a degree multiset: descending tuple."""
    return tuple(sorted(values, reverse=True))


def e_union(a, b):
    """Concatenate and keep degrees >= max of the two minima (descending)."""
    lo = a[-1] if a[-1] >= b[-1] else b[-1]
    out = [g for g in a + b if g >= lo]
    out.sort(reverse=True)
    return tuple(out)


def e_inter(a, b):
    """Concatenate and keep degrees <= min of the two maxima (descending)."""
    hi = a[0] if a[0] <= b[0] else b[0]
    out = [g for g in a + b if g <= hi]
    out.sort(reverse=True)
    return tuple(out)


def e_compl(a, one):
    """Complement each degree: {one - g}; stays descending."""
    return tuple(one - g for g in reversed(a))


def e_rel(code, a, b):
    """The six inclusion relations on descending degree tuples."""
    if code == REL_P:
        return a[0] <= b[0]
    if code == REL_A:
        return a[0] <= b[0] and a[-1] <= b[-1]
    if code == REL_M:
        # mean(a) <= mean(b), cross-multiplied
        return sum(a) * len(b) <= sum(b) * len(a)
    if code == REL_S:
        if len(a) < len(b):
            return False
        return all(b[i] >= a[i] for i in range(len(b)))
    if code == REL_T:
        if len(a) >= len(b):
            return False
        return all(b[i] >= a[i] for i in range(len(a)))
    if code == REL_N:
        return a[0] <= b[-1]
    raise ValueError(f"unknown relation code {code}")


def e_sot(a, b):
    """Classify strong-or-tail: 1 if a ⊂s b, 2 if a ⊂t b, else 0."""
    if e_rel(REL_S, a, b):
        return 1
    if e_rel(REL_T, a, b):
        return 2
    return 0


def pointwise_leq(v, w):
    """True iff v[i] <= w[i] for every position (lengths must match)."""
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")
    return all(v[i] <= w[i] for i in range(len(v)))


def best_q(a, q):
    """The q largest degrees of a descending tuple, with multiplicity."""
    if not 1 <= q <= len(a):
        raise ValueError(f"q={q} out of range 1..{len(a)}")
    return a[:q]


def is_subseq(sub, whole):
    """Multiset containment of descending tuples (multiplicity-aware)."""
    i = 0
    n = len(whole)
    for g in sub:
        while i < n and whole[i] > g:
            i += 1
        if i >= n or whole[i] != g:
            return False
        i += 1
    return True


# --- set level: tuples of hfes, pointwise over universe positions ---


def u_union(A, B):
    return tuple([e_union(a, b) for a, b in zip(A, B)])


def u_inter(A, B):
    return tuple([e_inter(a, b) for a, b in zip(A, B)])


def u_compl(A, one):
    return tuple([e_compl(a, one) for a in A])


def u_rel(code, A, B):
    return all(e_rel(code, a, b) for a, b in zip(A, B))


def u_sot(A, B):
    return all(e_sot(a, b) != 0 for a, b in zip(A, B))


def u_equal(A, B):
    return A == B


# --- random generation on the integer grid ---


def _draw_hfe(z, den, card_lo, card_hi):
    """SplitMix64 state `z` -> (state after the draws, random hfe).

    The draws of `Stream.randint(card_lo, card_hi)` followed by that many
    `Stream.below(den + 1)`, run on a local state.
    """
    z = s = (z + _GOLDEN) & _MASK
    s = ((s ^ (s >> 30)) * _MIX1) & _MASK
    s = ((s ^ (s >> 27)) * _MIX2) & _MASK
    k = card_lo + (((s ^ (s >> 31)) * (card_hi - card_lo + 1)) >> 64)
    n = den + 1
    out = []
    for _ in range(k):
        z = s = (z + _GOLDEN) & _MASK
        s = ((s ^ (s >> 30)) * _MIX1) & _MASK
        s = ((s ^ (s >> 27)) * _MIX2) & _MASK
        out.append(((s ^ (s >> 31)) * n) >> 64)
    out.sort(reverse=True)
    return z, tuple(out)


def gen_hfe(stream, den, card_lo, card_hi):
    """Random hfe: cardinality uniform in [card_lo, card_hi], degrees uniform
    on the grid {0, 1, ..., den} (meaning k/den)."""
    stream.state, hfe = _draw_hfe(stream.state, den, card_lo, card_hi)
    return hfe


def gen_hfs(stream, den, size, card_lo, card_hi):
    """Random hfs over `size` universe positions."""
    z = stream.state
    out = []
    for _ in range(size):
        z, hfe = _draw_hfe(z, den, card_lo, card_hi)
        out.append(hfe)
    stream.state = z
    return tuple(out)
