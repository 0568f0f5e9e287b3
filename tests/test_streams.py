"""The pure kernel's random streams are pinned to a method-per-draw oracle.

`_pykernel` computes its SplitMix64 outputs a block at a time and reads the
draws from that buffer. The oracle below is the plain form: every draw goes
through `u64`, which advances the state once. Both must produce the same
numbers, the same hfes and hfss, and show the same state between calls, so
that a draw after a generation call continues the same sequence. A kernel
`Stream` draws only through `randint`: `below(n)` is `randint(0, n - 1)`,
and `u64()` is `randint(0, 2**64 - 1)`.
"""

import pytest
from hypothesis import given, strategies as st

from hesitant._kernel import _pykernel as pure
from hesitant.laws.engine import _extend, _mix

_MASK = (1 << 64) - 1


class _OracleStream:
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


def _gen_hfe(stream, den, card_lo, card_hi):
    """One hfe drawn by the kernel: `gen_hfs` at one position."""
    return pure.gen_hfs(stream, den, 1, card_lo, card_hi)[0]


def _oracle_gen_hfs(stream, den, size, card_lo, card_hi):
    return tuple(_oracle_gen_hfe(stream, den, card_lo, card_hi) for _ in range(size))


SEEDS = (0, 1, 2**63, 2**64 - 1)
DENS = (1, 100, 10**9)
CARDS = ((1, 1), (3, 3), (64, 64), (1, 6), (1, 64))


def _pair(seed):
    return pure.Stream(seed), _OracleStream(seed)


@pytest.mark.parametrize("seed", SEEDS + (-1, 2**64 + 5))
def test_single_draws_match(seed):
    a, b = _pair(seed)
    for n in (1, 2, 101, 10**9 + 1, 2**64):
        assert [a.randint(0, n - 1) for _ in range(50)] == [b.below(n) for _ in range(50)]
        assert a.state == b.state
    for lo, hi in ((0, 0), (3, 9), (0, 10**9), (5, 5)):
        assert [a.randint(lo, hi) for _ in range(50)] == [b.randint(lo, hi) for _ in range(50)]
        assert a.state == b.state
    assert [a.randint(0, _MASK) for _ in range(50)] == [b.u64() for _ in range(50)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("den", DENS)
@pytest.mark.parametrize("card", CARDS)
def test_generation_matches(seed, den, card):
    lo, hi = card
    a, b = _pair(seed)
    for _ in range(5):
        assert _gen_hfe(a, den, lo, hi) == _oracle_gen_hfe(b, den, lo, hi)
        assert a.state == b.state
    for size in (1, 16):
        assert pure.gen_hfs(a, den, size, lo, hi) == _oracle_gen_hfs(b, den, size, lo, hi)
        assert a.state == b.state


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_hand_the_state_over(seed):
    a, b = _pair(seed)
    for step in range(40):
        den = DENS[step % 3]
        lo, hi = CARDS[step % len(CARDS)]
        size = (1, 16, 3)[step % 3]
        assert pure.gen_hfs(a, den, size, lo, hi) == _oracle_gen_hfs(b, den, size, lo, hi)
        assert a.randint(1, 4) == b.randint(1, 4)
        assert _gen_hfe(a, den, lo, hi) == _oracle_gen_hfe(b, den, lo, hi)
        assert a.randint(0, den) == b.below(den + 1)
    assert a.state == b.state


_BIG = 2**64
_CARD = st.integers(-3, 80)  # past one 32-output block; lo > hi reverses the range
_CALLS = st.one_of(
    st.tuples(st.just("randint"), st.integers(-_BIG, _BIG), st.integers(-_BIG, _BIG)),
    st.tuples(st.just("gen_hfe"), st.sampled_from(DENS), _CARD, _CARD),
    st.tuples(st.just("gen_hfs"), st.sampled_from(DENS), st.integers(0, 5), _CARD, _CARD),
    st.tuples(st.just("read")),
    st.tuples(st.just("write"), st.integers(-_BIG, 4 * _BIG)),
)


def _call(stream, gen_hfe, gen_hfs, call):
    """One call on a kernel stream (`gen_hfe` is `_gen_hfe`) or, with the
    oracle's functions, on the oracle."""
    name, *args = call
    if name == "read":
        return stream.state
    if name == "write":
        stream.state = args[0]
        return None
    if name == "gen_hfe":
        return gen_hfe(stream, *args)
    if name == "gen_hfs":
        return gen_hfs(stream, *args)
    return getattr(stream, name)(*args)


@given(st.integers(-_BIG, 2 * _BIG), st.lists(_CALLS, max_size=60))
def test_random_interleavings_match_the_oracle(seed, calls):
    """Any sequence of draws, generation calls and state reads and writes
    gives the oracle's values, mid-block writes and multi-block hfes
    included."""
    a, b = _pair(seed)
    for call in calls:
        got = _call(a, _gen_hfe, pure.gen_hfs, call)
        assert got == _call(b, _oracle_gen_hfe, _oracle_gen_hfs, call), call
    assert a.state == b.state


def test_empty_hfs_draws_nothing():
    a, b = _pair(7)
    assert pure.gen_hfs(a, 100, 0, 1, 6) == ()
    assert a.state == b.state


@pytest.mark.parametrize("seed", (0, 20250808, 2**64 - 1))
def test_trial_seed_extends_the_law_prefix(seed):
    """The engine hashes (seed, law id) once and extends it per trial."""
    for law_id in ("prop2.1", "thm5.6", "exam-sec2.5-s-union-m"):
        prefix = _mix(seed, law_id)
        for index in (0, 1, 255, 10_000, 2**40):
            assert _extend(prefix, index.to_bytes(8, "little")) == _mix(seed, law_id, index)


@pytest.mark.parametrize("value", (0, 5, 2**64 - 1, 2**64, 2**64 + 3, -1, -(2**64) - 7, 2**70 + 1))
def test_state_reads_back_masked(compiled, value):
    """Setting the state stores it modulo 2**64, as the constructor does; the
    compiled kernel accepts exactly the values already in [0, 2**64), and
    then agrees."""
    a = pure.Stream(1)
    a.state = value
    assert a.state == value & _MASK
    assert a.randint(0, _MASK) == _OracleStream(value).u64()
    b = compiled.Stream(1)
    if 0 <= value <= _MASK:
        b.state = value
        assert b.state == value
        assert b.randint(0, 2**62) == pure.Stream(value).randint(0, 2**62)
    else:
        with pytest.raises(OverflowError):
            b.state = value
