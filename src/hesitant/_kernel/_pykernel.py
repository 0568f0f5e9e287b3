"""Pure-Python kernel: the reference implementation of the hot primitives.

Everything here works on plain tuples. An element value ("hfe") is a
non-empty tuple of degree scalars sorted descending; a set value ("hfs") is a
tuple of hfes, one per universe position. The functions are scalar-generic:
they only compare, add and subtract degrees, so they run unchanged on integer
grid degrees (the public HFE algebra, the law engine and the scheme ranking,
where a degree k stands for k/den and `one` is den; outside the engine den
can exceed a C integer) and on exact `Fraction` degrees (the
`laws.algebra.EXACT` algebra that replays fixtures).

The compiled twin `_ckernel` implements the identical contract for integer
degrees, including bit-identical random streams. `tests/test_kernel.py` pins
the equivalence.
"""

from __future__ import annotations

IMPLEMENTATION = "pure"

# Relation codes, shared with the compiled kernel.
REL_P, REL_A, REL_M, REL_S, REL_T, REL_N = range(6)

_MASK = (1 << 64) - 1


class Stream:
    """SplitMix64 random stream; deterministic function of its seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from range(n) via 64-bit fixed-point scaling."""
        return (self.u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def canon(values):
    """Canonical form of a degree multiset: descending tuple."""
    return tuple(sorted(values, reverse=True))


def e_union(a, b):
    """Concatenate and keep degrees >= max of the two minima (descending)."""
    lo = a[-1] if a[-1] >= b[-1] else b[-1]
    return tuple(sorted((g for g in a + b if g >= lo), reverse=True))


def e_inter(a, b):
    """Concatenate and keep degrees <= min of the two maxima (descending)."""
    hi = a[0] if a[0] <= b[0] else b[0]
    return tuple(sorted((g for g in a + b if g <= hi), reverse=True))


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
        # mean(a) <= mean(b), cross-multiplied: exact for ints and Fractions
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
    return tuple(e_union(a, b) for a, b in zip(A, B))


def u_inter(A, B):
    return tuple(e_inter(a, b) for a, b in zip(A, B))


def u_compl(A, one):
    return tuple(e_compl(a, one) for a in A)


def u_rel(code, A, B):
    return all(e_rel(code, a, b) for a, b in zip(A, B))


def u_sot(A, B):
    return all(e_sot(a, b) != 0 for a, b in zip(A, B))


def u_equal(A, B):
    return A == B


# --- random generation on the integer grid ---


def gen_hfe(stream, den, card_lo, card_hi):
    """Random hfe: cardinality uniform in [card_lo, card_hi], degrees uniform
    on the grid {0, 1, ..., den} (meaning k/den)."""
    k = stream.randint(card_lo, card_hi)
    return tuple(sorted((stream.below(den + 1) for _ in range(k)), reverse=True))


def gen_hfs(stream, den, size, card_lo, card_hi):
    """Random hfs over `size` universe positions."""
    return tuple(gen_hfe(stream, den, card_lo, card_hi) for _ in range(size))
