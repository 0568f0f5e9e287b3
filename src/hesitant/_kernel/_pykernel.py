"""Pure-Python kernel, and the contract both kernels keep.

Representation. Everything here works on plain tuples of ints over one
denominator den: a degree k stands for k/den, and the complement unit `one`
is den. An element value ("hfe") is a non-empty descending tuple of degrees;
a set value ("hfs") is a tuple of hfes, one per universe position. The
functions only compare, add and subtract degrees, so they are exact rational
arithmetic, and take ints of any size: den may exceed a C integer.

Each set-level function (`u_union`, `u_inter`, `u_compl`, `u_rel`) is one
loop over the universe positions, stops at the shorter operand as `zip`
does, and holds the only copy of its semantics: an element value is the
one-position case, `u_rel(code, (a,), (b,))`. `term` evaluates a set term,
written as a postfix program over slots, with these functions; the law
predicates and the `BELOW` move of `draw_plan` both run it, and the exact
algebra calls all four directly. Every function that reads a degree of an
hfe raises IndexError for an empty one.

The draw domain. Random generation draws from SplitMix64 streams, and
`draw_plan` is its one entry: it runs a chunk of consecutive trials of a law
in one call. Unlike the set functions it reads its seven bounds as int64,
and takes only the paper's non-empty objects: a grid den >= 1 and ranges
1 <= lo <= hi for the universe size, the cardinality and the family size, as
`GeneratorConfig` allows. Outside int64 it raises OverflowError, for a bound
that is not an int TypeError, and for any other bound outside that domain
ValueError, at every count, so no draw spans more than 2**63 values and
every universe, hfe and family drawn is non-empty. A plan move that builds
an hfe in a relation builds only those some law's premise asks for: a
`LADDER` any of the six, an `ABOVE` all but ⊂m, and a `BELOW` ⊂p, ⊂a, ⊂t
and ⊂n; any other relation code is a ValueError.

Output i of a stream is the mix of state + i·γ, so `_block` computes the
outputs of many streams a block at a time, one per 128-bit lane of a single
Python int, with their draws from the grid in the lanes' high halves, and
reads that int's bytes as one `array("Q")` of 64-bit words. `draw_plan`
seeds each trial's stream from the law's FNV-1a prefix and the trial index,
computes the first blocks of up to 64 trials in one pass, and gives each
trial two strided slices of that array: its outputs and their draws. It
then draws the trial's universe size and runs the law's plan
(`laws/generators.py`) on those two arrays, which later blocks of the
trial's one stream extend in place. No array reaches a binding: every value
drawn is a tuple of ints. The draws are exactly those of one output per
draw: `tests/test_streams.py` pins every move's against a method-per-draw
oracle.

The twin. The compiled kernel, the hand-written C module `_ckernel.c`, has
the public names of this module but `u_union`, `u_inter` and `u_compl`,
which only its `term` runs. It keeps this contract for degrees that fit
int64, bit-identical random streams included: for every input it returns
exactly what this module returns, or raises a Python exception:
`OverflowError` for a value outside int64, where this module computes with
ints of any size, and `TypeError` for an hfe or hfs that is not a tuple. For
`draw_plan`'s bounds both raise the same. `tests/test_kernel.py` pins the
names and the equivalence.
"""

from __future__ import annotations

from array import array
from functools import cmp_to_key, lru_cache, reduce
from itertools import repeat
from operator import ge, index, sub
from sys import byteorder as _byteorder

IMPLEMENTATION = "pure"

# Relation codes, shared with the compiled kernel. REL_SOT is ⊂s or ⊂t.
REL_P, REL_A, REL_M, REL_S, REL_T, REL_N, REL_SOT = range(7)

_MASK = (1 << 64) - 1

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state advances by
# _GOLDEN and each output is the state mixed by two xor-shift-multiply rounds.
# The names and values match `_ckernel.c`.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mixed(x: int, low: int) -> int:
    """The SplitMix64 outputs of the states in x's lanes, which `low`, the
    low 64 bits of every lane, masks."""
    x = ((x ^ (x >> 30)) & low) * _MIX1 & low
    x = ((x ^ (x >> 27)) & low) * _MIX2 & low
    return (x ^ (x >> 31)) & low


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
    position is compared. ⊂s, ⊂t and REL_SOT (⊂s or ⊂t) hold when b >= a
    over the shorter hfe, so they compare the first degrees before the
    lengths, and an empty hfe raises as it does for the other relations."""
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
    elif code == REL_SOT:  # whichever hfe is shorter, b >= a over its length
        for a, b in pairs:
            if a[0] > b[0] or not all(map(ge, b, a)):
                return False
    else:
        for _ in pairs:
            raise ValueError(f"unknown relation code {code}")
    return True


# --- a chunk of a law's trials: its draw plan ---
#
# The helpers below draw from `buf[i:]`, the outputs of the stream at state
# `seed` from `buf[0]` on, and `deg[i:]`, their draws from range(n) for
# n = den + 1. They extend both arrays in place by the blocks they need
# (`_grow`) and return what they drew with the new i. The codes are
# `laws/generators.py`'s (the moves and an `_ABOVE` move's members) and
# `expressions.TERM_OPS`.
_SET, _FAMILY, _LADDER, _COPY, _COINCIDE, _ABOVE, _BELOW, _SUBFAMILY, _CHOICE = range(9)
_ALL, _SOME, _LONGER = range(3)
_UNION, _INTER, _COMPL, _MEET_ALL, _JOIN_ALL = range(-1, -6, -1)

_FNV_PRIME = 0x100000001B3
_DOMAIN = "bounds need den >= 1 and 1 <= lo <= hi for the size, cardinality and family ranges"
# Orders a ⊂m ladder's hfes by exact mean, cross-multiplied. A stable sort's
# output is unique, so it equals the compiled kernel's bubble sort.
_BY_MEAN = cmp_to_key(lambda a, b: sum(a) * len(b) - sum(b) * len(a))


# Blocks of outputs are computed in wide ints of 128-bit lanes. A *trial
# int* holds one 64-bit state per lane, lane t for stream t of `count`; a
# *block int* holds _BLOCK trial ints, output j of stream t in lane
# j * count + t, so a stream's block is every count-th lane. A lane's value
# stays below 2**64 after every mask, so a product with a 64-bit constant
# fits its 128 bits, and a right shift moves the next lane's bits only into
# the high half, which the mask that follows clears. A block int's bytes are
# read as one array("Q") of its lanes' halves, so stream t's outputs are
# the words 2t, 2t + 2·count, ... and their draws the words after them:
# each trial's `buf` and `deg` are two strided slices of that array, and a
# later block of a trial, the same computation over one stream, extends
# them in place. The first blocks of a chunk of trials are computed _PASS
# trials at a time. A pass's ints stay under 64 KB: larger ones, past
# glibc's 128 KB mmap threshold, made a 256-trial pass no faster than
# drawing one trial at a time.
_BLOCK = 32
_PASS = 64
_SWAP = _byteorder == "big"  # a block's bytes are little-endian


def _words(data: bytes) -> array:
    """The 64-bit words of little-endian bytes, in order."""
    words = array("Q", data)
    if _SWAP:
        words.byteswap()
    return words


@lru_cache(maxsize=5)  # one stream, a full pass, the last, shorter one, and a hunt's first chunks
def _wide(count: int) -> tuple:
    """The constants of a pass over `count` streams: the trial ints of 1, of t
    and of 255 in lane t, and that of the low 64 bits of every lane; the
    block ints of the output steps and of the low and the high 64 bits of
    every lane."""
    ones = sum(1 << (128 * t) for t in range(count))
    spread = sum(1 << (128 * count * j) for j in range(_BLOCK))  # times a trial int: a block int
    low = _MASK * ones * spread
    return (
        ones,
        sum(t << (128 * t) for t in range(count)),
        255 * ones,
        _MASK * ones,
        sum((((j + 1) * _GOLDEN & _MASK) * ones) << (128 * count * j) for j in range(_BLOCK)),
        low,
        ~low,
    )


def _block(h: int, count: int, n: int) -> array:
    """The words of the block int of the next _BLOCK outputs of the `count`
    streams whose states are the lanes of the trial int h. Each lane holds an
    output z in its low half and, in its high half, its draw from range(n),
    (z * n) >> 64: a grid den in 1..2**63 - 1 makes 2 <= n <= 2**63, so z * n
    fits the lane."""
    steps, low, high = _wide(count)[4:]
    for copies in (1, 2, 4, 8, 16):
        h |= h << (128 * count * copies)
    x = _mixed((h + steps) & low, low)
    return _words((x * n & high | x).to_bytes(16 * _BLOCK * count, "little"))


def _first_blocks(prefix, first, count, n):
    """(seed, first block, its draws from range(n)) of trials first ..
    first + count - 1, at most _PASS of them, in one pass. Trial t's seed is
    FNV-1a from the state `prefix` over the 8 little-endian bytes of t."""
    ones, ramp, byte, low_t = _wide(count)[:4]
    trials = first * ones + ramp
    h = (prefix & _MASK) * ones
    for shift in range(0, 64, 8):
        h = ((h ^ ((trials >> shift) & byte)) * _FNV_PRIME) & low_t
    data, step = _block(h, count, n), 2 * count
    seeds = _words(h.to_bytes(16 * count, "little"))
    for t in range(0, step, 2):
        yield seeds[t], data[t::step], data[t + 1 :: step]


def _grow(buf: array, deg: array, seed: int, n: int, need: int) -> None:
    """Extends buf, the outputs of the stream at `seed` from its first on,
    and deg, their draws from range(n), by whole blocks to at least `need`
    outputs."""
    while len(buf) < need:
        v = _block((seed + len(buf) * _GOLDEN) & _MASK, 1, n)
        buf += v[::2]
        deg += v[1::2]


def _hfes(buf, deg, i, seed, n, count, lo, hi):
    """`count` free hfes, each of a cardinality uniform in [lo, hi] and then
    that many degrees uniform on the grid. lo >= 1, and lo = hi + 1, where a
    longer member must outgrow a set's hfe of hi degrees, draws lo."""
    span = hi - lo + 1
    most = 1 + max(lo, hi)  # the outputs one hfe can use
    out = []
    for _ in range(count):
        if len(buf) - i < most:
            _grow(buf, deg, seed, n, i + most)
        k = lo + ((buf[i] * span) >> 64)
        out.append(tuple(sorted(deg[i + 1 : i + 1 + k], reverse=True)))
        i += 1 + k
    return tuple(out), i


def _family(buf, deg, i, seed, n, size, lo, hi, flo, fhi):
    """A free family: a size uniform in [flo, fhi], then that many sets."""
    if i == len(buf):
        _grow(buf, deg, seed, n, i + 1)
    count = flo + ((buf[i] * (fhi - flo + 1)) >> 64)
    i, fam = i + 1, []
    for _ in range(count):
        hfs, i = _hfes(buf, deg, i, seed, n, size, lo, hi)
        fam.append(hfs)
    return tuple(fam), i


def _above(buf, deg, i, seed, n, a, code, lo, hi):
    """One hfe b with a ⊂code b and at most hi degrees (⊂s: at most
    len(a)), or None when ⊂t leaves no room."""
    if code == REL_T and len(a) >= hi:
        return None, i
    most = max(lo, hi, len(a))
    if len(buf) - i <= most + 1:
        _grow(buf, deg, seed, n, i + 2 + most)
    z, x = buf[i], a[0]
    i += 1
    v = []
    if code == REL_S or code == REL_T:  # above a's degrees, position by position
        if code == REL_S:
            a = a[: lo + ((z * (len(a) - lo + 1)) >> 64)]
        else:
            extra = 1 + ((z * (hi - len(a))) >> 64)
        for x in a:
            v.append(x + ((buf[i] * (n - x)) >> 64))
            i += 1
        if code == REL_T:  # and free degrees past them
            v += deg[i : i + extra]
            i += extra
    else:
        end = i + lo + ((z * (hi - lo + 1)) >> 64)
        if code == REL_P or code == REL_A:  # the first degree above a's first
            v.append(x + ((buf[i] * (n - x)) >> 64))
            i += 1
        if code == REL_P:
            v += deg[i:end]
        elif code == REL_A or code == REL_N:  # the rest above a's last, or all above a's first
            if code == REL_A:
                x = a[-1]
            room = n - x
            for j in range(i, end):
                v.append(x + ((buf[j] * room) >> 64))
        else:
            raise ValueError(f"no dominating construction for relation code {code}")
        i = end
    v.sort(reverse=True)
    return tuple(v), i


def _below(buf, deg, i, seed, n, b, code, lo, hi):
    """One hfe a with a ⊂code b and lo <= |a| <= hi, or None if the bounds
    make it impossible, for ⊂p, ⊂a, ⊂t and ⊂n: the relations of the
    premises `A ⊂k term` in the registry. ⊂m and ⊂s are a ValueError."""
    if code == REL_T and lo >= len(b):
        return None, i
    if len(buf) - i <= hi + 1:  # it draws at most 1 + hi outputs
        _grow(buf, deg, seed, n, i + 2 + hi)
    z = buf[i]
    i += 1
    v = []
    if code == REL_T:  # below a prefix of b, position by position
        for x in b[: lo + ((z * ((hi if hi < len(b) else len(b) - 1) - lo + 1)) >> 64)]:
            v.append((buf[i] * (x + 1)) >> 64)
            i += 1
    else:
        end = i + lo + ((z * (hi - lo + 1)) >> 64)
        if code == REL_P or code == REL_N:  # all below b's first, or its last
            x = (b[0] if code == REL_P else b[-1]) + 1
        elif code == REL_A:  # the first below b's last, the rest below its first
            v.append((buf[i] * (b[-1] + 1)) >> 64)
            i += 1
            x = b[0] + 1
        else:
            raise ValueError(f"no dominated construction for relation code {code}")
        for j in range(i, end):
            v.append((buf[j] * x) >> 64)
        i = end
    v.sort(reverse=True)
    return tuple(v), i


def term(program, slots, one):
    """The value of a postfix term program over the slots: a slot index
    pushes that slot's value, and the negative codes of `TERM_OPS` in
    `expressions.py` pop their operands and push the union,
    intersection, complement (unit `one`), or the ⋂ or ⋃ fold of a family."""
    stack = []
    for t in program:
        if t >= 0:
            stack.append(slots[t])
        elif t == _COMPL:
            stack.append(u_compl(stack.pop(), one))
        elif t == _MEET_ALL or t == _JOIN_ALL:
            stack.append(reduce(u_inter if t == _MEET_ALL else u_union, stack.pop()))
        elif t == _UNION or t == _INTER:
            right = stack.pop()
            stack.append((u_union if t == _UNION else u_inter)(stack.pop(), right))
        else:
            raise ValueError(f"unknown term operator {t}")
    return stack.pop()


def draw_plan(plan, width, bounds, prefix, first, count):
    """Trials first .. first + count - 1 of a law: a list of one (universe
    size, binding) per trial. A binding is the tuple of the plan's `width`
    slots, or None when a move is impossible under the bounds. A trial that
    raises raises for the chunk.

    Trial t's stream is seeded with the FNV-1a state `prefix` extended by
    the 8 little-endian bytes of t; its first output draws the size from
    [size_lo, size_hi]. `bounds` is (den, size_lo, size_hi, card_lo,
    card_hi, family_lo, family_hi), and `plan` holds the moves documented in
    `laws/generators.py`, each writing a value into its slot. The bounds
    must lie in the draw domain of the module docstring. `width`, `first`
    and `count` are ints and not bools, and every trial index must fit 64
    bits.
    """
    den, ulo, uhi, lo, hi, flo, fhi = bounds = tuple(map(index, bounds))
    if not all(-(1 << 63) <= v < 1 << 63 for v in bounds):
        raise OverflowError("bounds must fit int64")
    if not (den >= 1 and 1 <= ulo <= uhi and 1 <= lo <= hi and 1 <= flo <= fhi):
        raise ValueError(_DOMAIN)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (width, first, count)):
        raise TypeError("width, first and count must be ints, not bools")
    if width < 0:
        raise ValueError("width must be non-negative")
    if first < 0 or first >> 64:
        raise OverflowError("trial index out of range 0..2**64 - 1")
    if count < 0:
        raise ValueError("count must be non-negative")
    last = first + count
    if last > 1 << 64:
        raise OverflowError("trial index out of range 0..2**64 - 1")
    span, out = uhi - ulo + 1, []
    for start in range(first, last, _PASS):
        for seed, buf, deg in _first_blocks(prefix, start, min(_PASS, last - start), den + 1):
            size = ulo + ((buf[0] * span) >> 64)
            slots = _run(plan, [None] * width, buf, deg, seed, den, size, lo, hi, flo, fhi)
            out.append((size, None if slots is None else tuple(slots)))
    return out


def _run(plan, slots, buf, deg, seed, den, size, lo, hi, flo, fhi):
    """Runs one trial's plan from its first block (buf, deg), output 1 on,
    and returns the slots, or None when a move is impossible."""
    i, n, span = 1, den + 1, hi - lo + 1
    moves, m = plan, 0
    while m < len(moves):
        move = moves[m]
        m += 1
        op = move[0]
        if op == _SET:  # `_hfes` inline: size free hfes
            H = []
            for _ in range(size):
                if len(buf) - i <= hi:
                    _grow(buf, deg, seed, n, i + 1 + hi)
                k = lo + ((buf[i] * span) >> 64)
                H.append(tuple(sorted(deg[i + 1 : i + 1 + k], reverse=True)))
                i += 1 + k
            slots[move[1]] = tuple(H)
        elif op == _FAMILY:
            slots[move[1]], i = _family(buf, deg, i, seed, n, size, lo, hi, flo, fhi)
        elif op == _LADDER:
            code, out = move[1], move[2:]
            rows = []
            if code == REL_M:  # free hfes, stably sorted by exact mean
                for _ in range(size):
                    row, i = _hfes(buf, deg, i, seed, n, len(out), lo, hi)
                    rows.append(sorted(row, key=_BY_MEAN))
            else:  # a base, then one step up per further name
                lift = 1 if code == REL_T else 0  # a ⊂t step adds a degree
                cap = hi - lift * (len(out) - 1)
                if lo > cap:
                    return None
                for _ in range(size):
                    if len(buf) - i <= cap:  # the base: `_hfes` inline
                        _grow(buf, deg, seed, n, i + 1 + cap)
                    k = lo + ((buf[i] * (cap - lo + 1)) >> 64)
                    h = tuple(sorted(deg[i + 1 : i + 1 + k], reverse=True))
                    i += 1 + k
                    row = [h]
                    for step in range(1, len(out)):
                        h, i = _above(buf, deg, i, seed, n, h, code, lo, cap + lift * step)
                        if h is None:
                            return None
                        row.append(h)
                    rows.append(row)
            for s, col in zip(out, zip(*rows)):
                slots[s] = col
        elif op == _COPY:
            slots[move[1]] = slots[move[2]]
        elif op == _COINCIDE:  # one degree c per position, repeated in both
            if len(buf) - i < 3 * size:
                _grow(buf, deg, seed, n, i + 3 * size)
            pairs = []
            for j in range(i, i + 3 * size, 3):
                c = (deg[j],)
                pairs.append((c * (lo + ((buf[j + 1] * span) >> 64)), c * (lo + ((buf[j + 2] * span) >> 64))))
            i += 3 * size
            slots[move[1]], slots[move[2]] = zip(*pairs)
        elif op == _ABOVE:  # a set, then members above it
            code, a, f, members = move[1:5]
            cap = hi - 1 if code == REL_T else hi  # room for a ⊂t step
            if lo > cap:
                return None
            A, i = _hfes(buf, deg, i, seed, n, size, lo, cap)
            if members == _SOME:
                fam, i = _family(buf, deg, i, seed, n, size, lo, hi, flo, fhi)
                fam = list(fam)
            else:
                if i == len(buf):
                    _grow(buf, deg, seed, n, i + 1)
                fam = [None] * (flo + ((buf[i] * (fhi - flo + 1)) >> 64))
                i += 1
                if members != _ALL:  # longer than A at every position
                    for j in range(len(fam)):
                        H = []
                        for x in A:
                            (h,), i = _hfes(buf, deg, i, seed, n, 1, len(x) + 1, hi)
                            H.append(h)
                        fam[j] = tuple(H)
            if members != _ALL:
                if i == len(buf):
                    _grow(buf, deg, seed, n, i + 1)
                picks = ((buf[i] * len(fam)) >> 64,)
                i += 1
            else:
                picks = range(len(fam))
            for p in picks:
                H = []
                for x in A:
                    h, i = _above(buf, deg, i, seed, n, x, code, lo, hi)
                    if h is None:
                        return None
                    H.append(h)
                fam[p] = tuple(H)
            slots[a], slots[f] = A, tuple(fam)
        elif op == _BELOW:  # the term's value, then below it per position
            code, a, program = move[1:4]
            H = []
            for x in term(program, slots, den):
                h, i = _below(buf, deg, i, seed, n, x, code, lo, hi)
                if h is None:
                    return None
                H.append(h)
            slots[a] = tuple(H)
        elif op == _SUBFAMILY:  # a free family and a selection of its members
            big, i = _family(buf, deg, i, seed, n, size, lo, hi, flo, fhi)
            if len(buf) - i < len(big):
                _grow(buf, deg, seed, n, i + len(big))
            idx = list(range(len(big)))
            for j in range(len(idx) - 1, 0, -1):  # partial Fisher-Yates
                r = (buf[i] * (j + 1)) >> 64
                i += 1
                idx[j], idx[r] = idx[r], idx[j]
            k = 1 + ((buf[i] * len(big)) >> 64)
            i += 1
            slots[move[1]], slots[move[2]] = tuple(big[j] for j in idx[:k]), big
        elif op == _CHOICE:  # one plan among the move's
            if i == len(buf):
                _grow(buf, deg, seed, n, i + 1)
            moves, m = move[1 + ((buf[i] * (len(move) - 1)) >> 64)] + moves[m:], 0
            i += 1
        else:
            raise ValueError(f"unknown plan move {op}")
    return slots
