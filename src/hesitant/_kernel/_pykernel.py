"""Pure-Python kernel: the reference implementation of the hot primitives.

Everything here works on plain tuples of ints over one denominator den: a
degree k stands for k/den, and the complement unit `one` is den. An element
value ("hfe") is a non-empty descending tuple of degrees; a set value
("hfs") is a tuple of hfes, one per universe position. The functions only
compare, add and subtract degrees, so they are exact rational arithmetic;
den may exceed a C integer. Every function that reads a degree of an hfe
raises IndexError for an empty one.

Each set-level function (`u_union`, `u_inter`, `u_compl`, `u_rel`, `u_sot`)
is one loop over the universe positions, and holds the only copy of its
semantics: an element value is the one-position case, as `e_rel` is of
`u_rel`.

Random generation draws from a SplitMix64 `Stream`. Output i of a stream is
the mix of state + i·γ, so a stream computes its outputs a block at a time,
one per 128-bit lane of a single Python int, and `u64`, `below`, `randint`,
`gen_hfe` and `gen_hfs` read them from that buffer. The numbers drawn and
the `state` seen between calls are exactly those of one `u64` call per draw;
`tests/test_streams.py` pins that against a method-per-draw oracle.

The compiled twin, the hand-written C module `_ckernel.c`, has exactly the
public names of this module, with the identical contract for degrees that
fit int64, including bit-identical random streams: for every input it
returns exactly what this module returns or raises a Python exception
(`OverflowError` outside int64, `TypeError` for an hfe that is not a tuple).
`tests/test_kernel.py` pins the names and the equivalence.
"""

from __future__ import annotations

from itertools import repeat
from operator import ge, sub
from struct import Struct

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

# A block holds the next _BLOCK outputs, output j in bits 128j..128j+63 of
# one int. A lane's value stays below 2**64 after every mask, so a product
# with a 64-bit constant fits its 128 bits, and a right shift moves the next
# lane's bits only into the high half, which the mask that follows clears.
_BLOCK = 32
_LANES = sum(1 << (128 * j) for j in range(_BLOCK))  # 1 in every lane
_LOW = _MASK * _LANES  # the low 64 bits of every lane
_STEPS = sum(((j + 1) * _GOLDEN & _MASK) << (128 * j) for j in range(_BLOCK))
_UNPACK = Struct(f"<{2 * _BLOCK}Q").unpack


def _block(z: int) -> tuple:
    """Outputs 1.._BLOCK of the SplitMix64 stream at state z, in order."""
    x = (z * _LANES + _STEPS) & _LOW
    x = ((x ^ (x >> 30)) & _LOW) * _MIX1 & _LOW
    x = ((x ^ (x >> 27)) & _LOW) * _MIX2 & _LOW
    x = (x ^ (x >> 31)) & _LOW
    return _UNPACK(x.to_bytes(16 * _BLOCK, "little"))[::2]


class Stream:
    """SplitMix64 random stream; deterministic function of its seed.

    `_buf[_i:]` are the outputs not yet drawn, and `_base` is the state
    before `_buf[0]`. `state` reads and writes the state of the plain
    one-output-at-a-time stream. `below` and `randint` repeat the read of
    `u64` inline: they are the generators' hottest calls.
    """

    __slots__ = ("_base", "_buf", "_i")

    def __init__(self, seed: int) -> None:
        self._base = z = seed & _MASK
        self._buf = _block(z)
        self._i = 0

    @property
    def state(self) -> int:
        i = self._i
        return (self._base + i * _GOLDEN) & _MASK if i else self._base

    @state.setter
    def state(self, z: int) -> None:
        self._base = z
        self._buf = _block(z & _MASK)
        self._i = 0

    def _refill(self, need: int) -> tuple:
        """Drop the drawn outputs and compute blocks until at least `need`
        are unread; the new buffer starts at the next output."""
        i = self._i
        base = self._base = (self._base + i * _GOLDEN) & _MASK
        buf = self._buf[i:]
        while len(buf) < need:
            buf += _block((base + len(buf) * _GOLDEN) & _MASK)
        self._buf = buf
        self._i = 0
        return buf

    def u64(self) -> int:
        i = self._i
        try:
            z = self._buf[i]
        except IndexError:
            z, i = self._refill(1)[0], 0
        self._i = i + 1
        return z

    def below(self, n: int) -> int:
        """Uniform draw from range(n) via 64-bit fixed-point scaling."""
        i = self._i
        try:
            z = self._buf[i]
        except IndexError:
            z, i = self._refill(1)[0], 0
        self._i = i + 1
        return (z * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        i = self._i
        try:
            z = self._buf[i]
        except IndexError:
            z, i = self._refill(1)[0], 0
        self._i = i + 1
        return lo + ((z * (hi - lo + 1)) >> 64)


def canon(values):
    """Canonical form of a degree multiset: descending tuple."""
    return tuple(sorted(values, reverse=True))


# --- set level: tuples of hfes, pointwise over universe positions ---


def u_union(A, B):
    """At each position, the degrees of a + b that are >= the larger
    minimum, descending: all of the hfe with that minimum and the prefix of
    the other that clears it."""
    out = []
    for a, b in zip(A, B):
        if a[-1] < b[-1]:
            a, b = b, a
        lo = a[-1]
        j = 0
        for g in b:
            if g < lo:
                break
            j += 1
        c = list(a + b[:j])
        c.sort(reverse=True)
        out.append(tuple(c))
    return tuple(out)


def u_inter(A, B):
    """At each position, the degrees of a + b that are <= the smaller
    maximum, descending: all of the hfe with that maximum and the suffix of
    the other under it."""
    out = []
    for a, b in zip(A, B):
        if a[0] > b[0]:
            a, b = b, a
        hi = a[0]
        j = 0
        for g in b:
            if g <= hi:
                break
            j += 1
        c = list(a + b[j:])
        c.sort(reverse=True)
        out.append(tuple(c))
    return tuple(out)


def u_compl(A, one):
    """At each position {one - g}, which stays descending."""
    ones = repeat(one)
    out = []
    for a in A:
        if not a:
            raise IndexError("empty hfe")
        out.append(tuple(map(sub, ones, reversed(a))))
    return tuple(out)


def u_rel(code, A, B):
    """True iff a ⊂code b at every position; the code is checked once a
    position is compared. ⊂s and ⊂t hold when b >= a over the shorter hfe,
    so they compare the first degrees before the lengths, and an empty hfe
    raises as it does for the other relations."""
    pairs = zip(A, B)
    if code == REL_P:
        for a, b in pairs:
            if a[0] > b[0]:
                return False
    elif code == REL_A:
        for a, b in pairs:
            if a[0] > b[0] or a[-1] > b[-1]:
                return False
    elif code == REL_M:
        for a, b in pairs:
            if not a or not b:
                raise IndexError("empty hfe")
            # mean(a) <= mean(b), cross-multiplied
            if sum(a) * len(b) > sum(b) * len(a):
                return False
    elif code == REL_S:
        for a, b in pairs:
            if a[0] > b[0] or len(a) < len(b) or not all(map(ge, b, a)):
                return False
    elif code == REL_T:
        for a, b in pairs:
            if a[0] > b[0] or len(a) >= len(b) or not all(map(ge, b, a)):
                return False
    elif code == REL_N:
        for a, b in pairs:
            if a[0] > b[-1]:
                return False
    else:
        for _ in pairs:
            raise ValueError(f"unknown relation code {code}")
    return True


def u_sot(A, B):
    """True iff a ⊂s b or a ⊂t b at every position: whichever hfe is
    shorter, b >= a over its length."""
    for a, b in zip(A, B):
        if a[0] > b[0] or not all(map(ge, b, a)):
            return False
    return True


def u_equal(A, B):
    return A == B


def e_rel(code, a, b):
    """The six inclusion relations on descending degree tuples: `u_rel` at
    one position."""
    return u_rel(code, (a,), (b,))


# --- random generation on the integer grid ---


def gen_hfs(stream, den, size, card_lo, card_hi):
    """Random hfs over `size` universe positions: each hfe a cardinality
    uniform in [card_lo, card_hi], then that many degrees uniform on the grid
    {0, 1, ..., den} (meaning k/den)."""
    n = den + 1
    span = card_hi - card_lo + 1
    most = 1 + max(card_lo, card_hi, 0)  # the outputs one hfe can use
    buf, i = stream._buf, stream._i
    out = []
    for _ in range(size):
        if len(buf) - i < most:
            stream._i = i
            buf, i = stream._refill(most), 0
        k = card_lo + ((buf[i] * span) >> 64)
        i += 1
        if k > 0:
            h = [(z * n) >> 64 for z in buf[i : i + k]]
            h.sort(reverse=True)
            out.append(tuple(h))
            i += k
        else:
            out.append(())
    stream._i = i
    return tuple(out)


def gen_hfe(stream, den, card_lo, card_hi):
    """Random hfe: `gen_hfs` at one universe position."""
    return gen_hfs(stream, den, 1, card_lo, card_hi)[0]
