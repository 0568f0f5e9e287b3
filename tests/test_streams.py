"""The pure kernel's random streams are pinned to a method-per-draw oracle.

`_pykernel.draw_plan` computes its SplitMix64 outputs a block at a time and
reads the draws from that buffer. The oracle below is the plain form: every
draw goes through `u64`, which advances the state once, and
`_oracle_draw_plan` runs a plan's `SET`, `FAMILY` and `COINCIDE` moves on it
draw by draw. Both must give the same universe sizes, hfes, families and
coinciding degrees, so that each move continues the sequence where the one
before it stopped. The draws are read through `draw_plan` alone: a trial's
first output is its universe size, a `COINCIDE` move shows each degree
(`below(den + 1)`) and two cardinalities in the order drawn, and `SET` and
`FAMILY` moves show whole hfes. Both kernels must give the oracle's draws
for bounds in the draw domain (a grid den >= 1, ranges 1 <= lo <= hi); for
bounds within int64 but outside the domain both raise ValueError, and
outside int64 OverflowError.
"""

import pytest
from hypothesis import given, strategies as st

from hesitant._kernel import _pykernel as pure
from hesitant.laws.engine import _extend, _mix
from hesitant.laws.generators import COINCIDE, FAMILY, SET

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


def _oracle_draw_plan(plan, width, bounds, prefix, first, count):
    """`draw_plan` of a plan of `SET`, `FAMILY` and `COINCIDE` moves, one
    oracle stream per trial, seeded with the prefix extended by the trial
    index's 8 little-endian bytes."""
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
            else:  # COINCIDE: per position a degree c, then both cardinalities
                pairs = []
                for _ in range(size):
                    c = (stream.below(den + 1),)
                    pairs.append((c * stream.randint(lo, hi), c * stream.randint(lo, hi)))
                slots[at[0]], slots[at[1]] = (tuple(p[j] for p in pairs) for j in (0, 1))
        out.append((size, tuple(slots)))
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


_MOVES = st.lists(st.sampled_from((SET, FAMILY, COINCIDE)), max_size=12)


@given(
    st.integers(-(2**64), 2**65),
    _MOVES,
    st.one_of(st.sampled_from(DENS), st.integers(1, 2**63 - 1)),
    _range(5), _range(80), _range(4),  # cardinalities past one 32-output block
    st.integers(0, _MASK - 2), st.integers(1, 3),
)
def test_random_interleavings_match_the_oracle(check, prefix, ops, den, size, card, family, first, count):
    """Any sequence of moves, sizes, cardinalities and family sizes in the
    draw domain, multi-block hfes included, gives the oracle's draws."""
    plan, slot = [], 0
    for op in ops:
        width = 2 if op == COINCIDE else 1
        plan.append((op, *range(slot, slot + width)))
        slot += width
    check(tuple(plan), slot, (den, *size, *card, *family), prefix, first, count)


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
