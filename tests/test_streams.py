"""The pure kernel's random streams are pinned to a method-per-draw oracle.

`_pykernel.draw_plan` computes its SplitMix64 outputs a block at a time and
reads the draws from that buffer. The oracle below is the plain form: every
draw goes through `u64`, which advances the state once, and
`_oracle_draw_plan` runs a plan on it draw by draw, with the constructions
that `laws/generators.py` documents: free `SET`s and `FAMILY`s,
`COINCIDE`, and the moves that build a premise, `LADDER`, `ABOVE` and
`BELOW`. Both kernels must give the same universe sizes, hfes, families,
coinciding degrees and constructed hfes, or None where a move is
impossible under the bounds, so that each move continues the sequence
where the one before it stopped. The draws are read through `draw_plan`
alone: a trial's first output is its universe size, a `COINCIDE` move shows
each degree (`below(den + 1)`) and two cardinalities in the order drawn,
and the other moves show whole hfes. Both kernels must give the oracle's
draws for bounds in the draw domain (a grid den >= 1, ranges
1 <= lo <= hi); for bounds within int64 but outside the domain both raise
ValueError, and outside int64 OverflowError.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hesitant._kernel import _pykernel as pure
from hesitant.expressions import COMPL, JOIN_ALL, MEET_ALL, UNION
from hesitant.laws.engine import _extend, _mix
from hesitant.laws.generators import ABOVE, ALL, BELOW, COINCIDE, FAMILY, LADDER, LONGER, SET, SOME
from hesitant.relations import Inclusion

_MASK = (1 << 64) - 1


class OracleStream:
    def __init__(self, seed):
        self.state = seed

    @property
    def state(self):
        return self._state

    @state.setter
    def state(self, z):  # the 64-bit state: any int is taken modulo 2**64
        self._state = z & _MASK

    def u64(self):
        self.state += 0x9E3779B97F4A7C15
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        return (self.u64() * n) >> 64

    def randint(self, lo, hi):
        return lo + self.below(hi - lo + 1)


def _oracle_gen_hfe(stream, den, card_lo, card_hi):
    k = stream.randint(card_lo, card_hi)
    return tuple(sorted((stream.below(den + 1) for _ in range(k)), reverse=True))


def oracle_gen_hfs(stream, den, size, card_lo, card_hi):
    return tuple(_oracle_gen_hfe(stream, den, card_lo, card_hi) for _ in range(size))


P, A, M, S, T, N = (k.code for k in Inclusion)
# The relations `ABOVE` and `BELOW` construct: every one but ⊂m.
CONSTRUCTED = (P, A, S, T, N)


def _oracle_above(stream, den, a, code, lo, hi):
    """One hfe b with a ⊂code b and at most hi degrees, or None when ⊂t
    leaves no room: its cardinality, then per degree a draw from a's degree
    x up to den (`x + below(den + 1 - x)`) or a free one. ⊂s raises the
    first |b| of a's degrees, |b| in [lo, |a|]; ⊂t raises all of a's and
    adds free degrees; ⊂p raises a's first and adds free ones; ⊂a raises
    a's first once and its last for the rest; ⊂n raises a's first for all."""
    if code == T and len(a) >= hi:
        return None
    up = lambda x: x + stream.below(den + 1 - x)  # noqa: E731
    if code == S:
        v = [up(x) for x in a[: stream.randint(lo, len(a))]]
    elif code == T:
        k = stream.randint(len(a) + 1, hi)
        v = [up(x) for x in a] + [stream.below(den + 1) for _ in range(k - len(a))]
    else:
        k = stream.randint(lo, hi)
        rest = {P: lambda: stream.below(den + 1), A: lambda: up(a[-1]), N: lambda: up(a[0])}[code]
        v = [up(a[0])] + [rest() for _ in range(k - 1)]
    return tuple(sorted(v, reverse=True))


def _oracle_below(stream, den, b, code, lo, hi):
    """One hfe a with a ⊂code b and lo <= |a| <= hi, or None if the bounds
    make it impossible: its cardinality, then per degree a draw from 0 up
    to a degree x of b (`below(x + 1)`). ⊂s lowers all of b's degrees and
    adds more under b's last; ⊂t lowers a prefix of b shorter than b; ⊂p
    and ⊂n draw every degree under b's first or under its last; ⊂a draws
    one under b's last and the rest under its first."""
    if code == S and len(b) > hi or code == T and lo >= len(b):
        return None
    under = lambda x: stream.below(x + 1)  # noqa: E731
    if code == S:
        k = stream.randint(max(lo, len(b)), hi)
        v = [under(x) for x in b] + [under(b[-1]) for _ in range(k - len(b))]
    elif code == T:
        v = [under(x) for x in b[: stream.randint(lo, min(hi, len(b) - 1))]]
    else:
        k = stream.randint(lo, hi)
        first = under(b[-1] if code in (A, N) else b[0])
        v = [first] + [under(b[-1] if code == N else b[0]) for _ in range(k - 1)]
    return tuple(sorted(v, reverse=True))


def _oracle_ladder(stream, den, size, code, names, lo, hi):
    """The columns of a `LADDER` over `names`, or None: per position a row
    h_1 ⊂code h_2 ⊂code ..., one hfe per name. ⊂m draws free hfes and
    stable-sorts them by exact mean; any other relation draws a base and
    one step up per further name, and ⊂t caps the base at hi - steps
    degrees and step i at hi - (steps - i)."""
    lift = 1 if code == T else 0
    cap = hi - lift * (names - 1)
    if code != M and lo > cap:
        return None
    rows = []
    for _ in range(size):
        if code == M:
            row = sorted((_oracle_gen_hfe(stream, den, lo, hi) for _ in range(names)),
                         key=lambda h: Fraction(sum(h), len(h)))
        else:
            row = [_oracle_gen_hfe(stream, den, lo, cap)]
            for step in range(1, names):
                row.append(_oracle_above(stream, den, row[-1], code, lo, cap + lift * step))
                if row[-1] is None:
                    return None
        rows.append(row)
    return tuple(zip(*rows))


def _oracle_members_above(stream, bounds, size, code, members):
    """An `ABOVE` move's set A and family, or None: A is free with at most
    hi - 1 degrees under ⊂t, and the family's members are all above A
    (`ALL`), or one chosen member of a free family (`SOME`) or of members
    longer than A at every position (`LONGER`) is rebuilt above A."""
    den, _, _, lo, hi, flo, fhi = bounds
    cap = hi - 1 if code == T else hi
    if lo > cap:
        return None
    a = oracle_gen_hfs(stream, den, size, lo, cap)
    if members == SOME:
        fam = [oracle_gen_hfs(stream, den, size, lo, hi) for _ in range(stream.randint(flo, fhi))]
    else:
        fam = [None] * stream.randint(flo, fhi)
        if members == LONGER:
            fam = [tuple(_oracle_gen_hfe(stream, den, len(x) + 1, hi) for x in a) for _ in fam]
    for p in range(len(fam)) if members == ALL else (stream.below(len(fam)),):
        fam[p] = tuple(_oracle_above(stream, den, x, code, lo, hi) for x in a)
        if None in fam[p]:
            return None
    return a, tuple(fam)


def _oracle_draw_plan(plan, width, bounds, prefix, first, count):
    """`draw_plan` of a plan of `SET`, `FAMILY`, `COINCIDE`, `LADDER`,
    `ABOVE` and `BELOW` moves, one oracle stream per trial, seeded with the
    prefix extended by the trial index's 8 little-endian bytes. A `BELOW`
    term's value is the pure kernel's `term`, which `test_terms.py` pins to
    the set algebra."""
    den, ulo, uhi, lo, hi, flo, fhi = bounds
    out = []
    for index in range(first, first + count):
        stream = OracleStream(_extend(prefix & _MASK, index.to_bytes(8, "little")))
        size = stream.randint(ulo, uhi)
        slots = [None] * width
        for op, *at in plan:
            if op == SET:
                slots[at[0]] = oracle_gen_hfs(stream, den, size, lo, hi)
            elif op == FAMILY:
                members = stream.randint(flo, fhi)
                slots[at[0]] = tuple(oracle_gen_hfs(stream, den, size, lo, hi) for _ in range(members))
            elif op == COINCIDE:  # per position a degree c, then both cardinalities
                pairs = []
                for _ in range(size):
                    c = (stream.below(den + 1),)
                    pairs.append((c * stream.randint(lo, hi), c * stream.randint(lo, hi)))
                slots[at[0]], slots[at[1]] = (tuple(p[j] for p in pairs) for j in (0, 1))
            else:
                if op == LADDER:
                    value = _oracle_ladder(stream, den, size, at[0], len(at) - 1, lo, hi)
                elif op == ABOVE:
                    value = _oracle_members_above(stream, bounds, size, at[0], at[3])
                else:  # BELOW: under the term's value, position by position
                    value = (tuple(_oracle_below(stream, den, x, at[0], lo, hi)
                                   for x in pure.term(at[2], slots, den)),)
                    if None in value[0]:
                        value = None
                if value is None:
                    slots = None
                    break
                for s, v in zip(at[1:], value):
                    slots[s] = v
        out.append((size, None if slots is None else tuple(slots)))
    return out


def in_domain(bounds):
    """The draw domain: den >= 1 and 1 <= lo <= hi for each of the three
    ranges."""
    den, ulo, uhi, lo, hi, flo, fhi = bounds
    return den >= 1 and 1 <= ulo <= uhi and 1 <= lo <= hi and 1 <= flo <= fhi


@pytest.fixture(scope="session")
def check(compiled):
    """Runs `draw_plan` on both kernels: in the draw domain they return the
    oracle's draws, which it returns; outside int64 both raise
    OverflowError, and otherwise outside the domain ValueError."""

    def run(plan, width, bounds, prefix, first, count):
        args = plan, width, bounds, prefix, first, count
        fits = all(-(2**63) <= v < 2**63 for v in bounds)
        if not (fits and in_domain(bounds)):
            for k in (pure, compiled):
                with pytest.raises(ValueError if fits else OverflowError):
                    k.draw_plan(*args)
            return None
        want = _oracle_draw_plan(*args)
        assert pure.draw_plan(*args) == want, (plan, bounds, prefix, first)
        assert compiled.draw_plan(*args) == want, (plan, bounds, prefix, first)
        return want

    return run


SEEDS = (0, 1, 2**63, 2**64 - 1)
# 2**63 - 1 is the widest grid.
DENS = (1, 100, 10**9, 2**63 - 1)
# Grids outside the draw domain, which both kernels refuse: the empty grid,
# the other int64 edge and grids past int64.
REFUSED_DENS = (0, -(2**63))
WIDE_DENS = (2**64 - 2, 2**64 - 1, 2**64, 3**50)
CARDS = ((1, 1), (3, 3), (64, 64), (1, 6), (1, 64))
_PAIR = ((COINCIDE, 0, 1),), 2


@pytest.mark.parametrize("seed", SEEDS + (-1, 2**64 + 5))
def test_single_draws_match(check, seed):
    """Output 1 of 70 trials' streams, two wide passes, is each trial's
    size, drawn from range(n) plus 1; outputs 2, 5, 8, ... of one stream,
    past its first block, are a `COINCIDE` move's degrees, from range(n).
    n - 1 = 2**63 is past int64."""
    for n in (2, 3, 101, 10**9 + 1, 2**63, 2**63 + 1):
        check((), 0, (100, 1, n - 1, 1, 1, 1, 1), seed, 0, 70)
        check(*_PAIR, (n - 1, 16, 16, 1, 1, 1, 1), seed, 0, 3)
    for lo, hi in ((1, 1), (3, 9), (1, 10**9), (5, 5)):
        check((), 0, (100, lo, hi, 1, 1, 1, 1), seed, 0, 70)
    for lo, hi in ((1, 1), (3, 9), (5, 5)):
        check(*_PAIR, (100, 16, 16, lo, hi, 1, 1), seed, 2**64 - 3, 3)
    check((), 0, (100, 1, 2**63 - 1, 1, 1, 1, 1), seed, 2**64 - 70, 70)  # the widest size range


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("den", DENS + REFUSED_DENS + WIDE_DENS)
@pytest.mark.parametrize("card", CARDS)
def test_generation_matches(check, seed, den, card):
    lo, hi = card
    check(tuple((SET, j) for j in range(5)), 5, (den, 1, 1, lo, hi, 1, 1), seed, 0, 2)
    check(((SET, 0), (SET, 1)), 2, (den, 16, 16, lo, hi, 1, 1), seed, 7, 2)
    check(((SET, 0),), 1, (den, 1, 16, lo, hi, 1, 1), seed, 2**64 - 3, 3)


_HANDOVER = ((SET, 0), (COINCIDE, 1, 2), (FAMILY, 3), (SET, 4), (COINCIDE, 5, 6)), 7


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_hand_the_state_over(check, seed):
    """Each move draws on from where the one before it stopped."""
    for step in range(40):
        den = DENS[step % len(DENS)]
        lo, hi = CARDS[step % len(CARDS)]
        size = (1, 16, 3)[step % 3]
        check(*_HANDOVER, (den, size, size, lo, hi, 1, 4), seed, step, 1)


def _range(most):
    """A range 1 <= lo <= hi <= most."""
    return st.tuples(st.integers(1, most), st.integers(1, most)).map(sorted)


_MOVES = st.lists(
    st.one_of(
        st.sampled_from(((SET,), (FAMILY,), (COINCIDE,))),
        st.tuples(st.just(LADDER), st.sampled_from((P, A, M, S, T, N)), st.integers(2, 3)),
        st.tuples(st.just(ABOVE), st.sampled_from(CONSTRUCTED), st.sampled_from((ALL, SOME, LONGER))),
        st.tuples(st.just(BELOW), st.sampled_from(CONSTRUCTED)),
    ),
    max_size=12,
)


def _plan(moves):
    """(plan, width) of the moves, each writing slots of its own; a `BELOW`
    move draws under a free set drawn just before it."""
    plan, slot = [], 0
    for op, *args in moves:
        if op == LADDER:
            code, names = args
            plan.append((LADDER, code, *range(slot, slot + names)))
            slot += names
        elif op == ABOVE:
            plan.append((ABOVE, args[0], slot, slot + 1, args[1]))
            slot += 2
        elif op == BELOW:
            plan += [(SET, slot), (BELOW, args[0], slot + 1, (slot,))]
            slot += 2
        else:
            width = 2 if op == COINCIDE else 1
            plan.append((op, *range(slot, slot + width)))
            slot += width
    return tuple(plan), slot


@given(
    st.integers(-(2**64), 2**65),
    _MOVES,
    st.one_of(st.sampled_from(DENS), st.integers(1, 2**63 - 1)),
    _range(5), _range(80), _range(4),  # cardinalities past one 32-output block
    st.integers(0, _MASK - 2), st.integers(1, 3),
)
def test_random_interleavings_match_the_oracle(check, prefix, moves, den, size, card, family, first, count):
    """Any sequence of moves, sizes, cardinalities and family sizes in the
    draw domain, multi-block hfes included, gives the oracle's draws."""
    check(*_plan(moves), (den, *size, *card, *family), prefix, first, count)


# Bounds for the constructing moves: the default config; a full universe,
# cardinality and family, which grow each trial's buffer several times; the
# two-degree grid; the widest grid; and one degree, where ⊂t has no room.
CONSTRUCTION_BOUNDS = {
    "default": (100, 1, 4, 1, 6, 1, 5),
    "full": (100, 4, 4, 6, 6, 5, 5),
    "grid-1": (1, 1, 3, 1, 3, 1, 3),
    "widest-grid": (2**63 - 1, 1, 4, 1, 6, 1, 5),
    "one-degree": (100, 1, 4, 1, 1, 1, 5),
}


@pytest.mark.parametrize("bounds", CONSTRUCTION_BOUNDS)
@pytest.mark.parametrize("code", (P, A, M, S, T, N))
def test_ladders_match(check, code, bounds):
    """Two- and three-step ladders of every relation, between free moves,
    over two passes of trials and at the last trial indices."""
    for names in (2, 3):
        plan, width = _plan(((SET,), (LADDER, code, names), (COINCIDE,)))
        check(plan, width, CONSTRUCTION_BOUNDS[bounds], 5, 0, 70)
        check(plan, width, CONSTRUCTION_BOUNDS[bounds], 2**64 - 1, 2**64 - 4, 4)


@pytest.mark.parametrize("bounds", CONSTRUCTION_BOUNDS)
@pytest.mark.parametrize("members", (ALL, SOME, LONGER))
@pytest.mark.parametrize("code", CONSTRUCTED)
def test_members_above_match(check, code, members, bounds):
    """`ABOVE` with each kind of members, for every relation it builds."""
    plan, width = _plan(((ABOVE, code, members), (SET,)))
    check(plan, width, CONSTRUCTION_BOUNDS[bounds], 5, 0, 70)
    check(plan, width, CONSTRUCTION_BOUNDS[bounds], 2**64 - 1, 2**64 - 4, 4)


_TERMS = (  # (moves drawing the term's slots, its program over them)
    (((SET, 1), (SET, 2)), (1, 2, UNION)),
    (((SET, 1),), (1, COMPL)),
    (((FAMILY, 1),), (1, MEET_ALL)),
    (((FAMILY, 1),), (1, JOIN_ALL)),
)


@pytest.mark.parametrize("bounds", CONSTRUCTION_BOUNDS)
@pytest.mark.parametrize("code", CONSTRUCTED)
def test_below_matches(check, code, bounds):
    """`BELOW` a set, a union, a complement and a family's folds, for every
    relation it builds, followed by a free set."""
    for moves, program in _TERMS:
        plan = (*moves, (BELOW, code, 0, program), (SET, 3))
        check(plan, 4, CONSTRUCTION_BOUNDS[bounds], 5, 0, 70)
        check(plan, 4, CONSTRUCTION_BOUNDS[bounds], 2**64 - 1, 2**64 - 4, 4)


def test_empty_universe_is_refused(check):
    """An empty universe, where a set would draw nothing, is outside the draw
    domain: both kernels raise ValueError, at every count."""
    for count in (0, 1):
        assert check(((SET, 0), (FAMILY, 1)), 2, (100, 0, 0, 1, 6, 1, 5), 7, 0, count) is None


@pytest.mark.parametrize("seed", (0, 20250808, 2**64 - 1))
def test_trial_seed_extends_the_law_prefix(seed):
    """The engine hashes (seed, law id) once and extends it per trial."""
    for law_id in ("prop2.1", "thm5.6", "exam-sec2.5-s-union-m"):
        prefix = _mix(seed, law_id)
        for index in (0, 1, 255, 10_000, 2**40):
            assert _extend(prefix, index.to_bytes(8, "little")) == _mix(seed, law_id, index)


@pytest.mark.parametrize("value", (0, 5, 2**64 - 1, 2**64, 2**64 + 3, -1, -(2**64) - 7, 2**70 + 1))
def test_state_reads_back_masked(check, value):
    """Both kernels read the prefix, an FNV-1a state, modulo 2**64, as the
    oracle reads a seed, and then agree."""
    plan = ((SET, 0), (COINCIDE, 1, 2))
    bounds = (100, 1, 4, 1, 6, 1, 5)
    assert check(plan, 3, bounds, value, 0, 3) == check(plan, 3, bounds, value & _MASK, 0, 3)
