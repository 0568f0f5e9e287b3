"""The integer-grid HFE against the Fraction-tuple algebra it replaced.

The oracle below is the earlier implementation: descending tuples of
`Fraction` degrees, operated on directly. The grid HFE must give the same
degrees, verdicts, means and bounds on every input, including non-decimal
degrees whose common denominator passes 64 bits.
"""

import random
from fractions import Fraction
from math import lcm

from hesitant import HFE, Inclusion, element_relation, hfe
from hesitant.relations import classify_strong_or_tail, is_subsequence

# --- the oracle: Fraction tuples, sorted descending ---------------------------


def _union(a, b):
    lo = max(a[-1], b[-1])
    return tuple(sorted((g for g in a + b if g >= lo), reverse=True))


def _inter(a, b):
    hi = min(a[0], b[0])
    return tuple(sorted((g for g in a + b if g <= hi), reverse=True))


def _compl(a):
    return tuple(1 - g for g in reversed(a))


def _rel(kind, a, b):
    if kind is Inclusion.POSSIBLE:
        return a[0] <= b[0]
    if kind is Inclusion.ACCEPTABLE:
        return a[0] <= b[0] and a[-1] <= b[-1]
    if kind is Inclusion.MEAN:
        return sum(a) / len(a) <= sum(b) / len(b)
    if kind is Inclusion.STRONG:
        return len(a) >= len(b) and all(b[i] >= a[i] for i in range(len(b)))
    if kind is Inclusion.TAIL:
        return len(a) < len(b) and all(b[i] >= a[i] for i in range(len(a)))
    return a[0] <= b[-1]


def _sot(a, b):
    if _rel(Inclusion.STRONG, a, b):
        return Inclusion.STRONG
    if _rel(Inclusion.TAIL, a, b):
        return Inclusion.TAIL
    return None


def _is_subseq(sub, whole):
    rest = list(whole)
    for g in sub:
        if g not in rest:
            return False
        rest.remove(g)
    return True


# --- inputs ---------------------------------------------------------------------

_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


def _pool(rng, primes):
    """Degrees mixing 2-digit and 9-digit decimals, thirds, sevenths and
    prime denominators, small enough to tie often."""
    pool = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)]
    pool += [Fraction(rng.randrange(101), 100) for _ in range(3)]
    pool += [Fraction(rng.randrange(10**9 + 1), 10**9) for _ in range(3)]
    pool += [Fraction(rng.randrange(1, p), p) for p in rng.sample(_PRIMES, primes)]
    return rng.sample(pool, rng.randint(2, len(pool)))


def _pairs(count=400):
    """Pairs of descending Fraction tuples; every third pair draws from all
    the primes, so that common denominators pass 64 bits."""
    for seed in range(count):
        rng = random.Random(seed)
        pool = _pool(rng, len(_PRIMES) if seed % 3 == 0 else 2)
        a, b = ([rng.choice(pool) for _ in range(rng.randint(1, 6))] for _ in range(2))
        yield seed, tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True))


def _canonical(h):
    """The grid fields are the lcm of the reduced denominators and the
    numerators over it."""
    den = lcm(*(g.denominator for g in h.degrees))
    return h._den == den and h._nums == tuple(g.numerator * (den // g.denominator) for g in h.degrees)


def test_algebra_matches_fraction_oracle():
    for seed, a, b in _pairs():
        ha, hb = HFE(a), HFE(b)
        assert ha.degrees == a, seed
        for got, want in (
            (ha | hb, _union(a, b)),
            (ha & hb, _inter(a, b)),
            (~ha, _compl(a)),
            *((ha.best(q), a[:q]) for q in range(1, len(a) + 1)),
        ):
            assert got.degrees == want, seed
            assert got == HFE(want) and _canonical(got), seed
        for kind in Inclusion:
            assert element_relation(kind, ha, hb) == _rel(kind, a, b), (seed, kind)
        assert classify_strong_or_tail(ha, hb) == _sot(a, b), seed
        assert is_subsequence(ha, hb) == _is_subseq(a, b), seed
        assert is_subsequence(ha.best(1), ha), seed
        assert ha.mean == sum(a) / len(a), seed
        assert ha.bounds == (a[-1], a[0]), seed
        assert list(ha) == list(a), seed


def test_inputs_reach_denominators_beyond_64_bits():
    dens = [lcm(HFE(a)._den, HFE(b)._den) for _, a, b in _pairs()]
    assert max(dens) >= 2**64


def test_construction_routes_agree_on_equality_and_hash():
    a, b = hfe("0.50"), HFE([Fraction(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hfe("0.25", "1", "0") == HFE([1, Fraction(1, 4), 0])
    assert hfe("0.3", "0.30") != hfe("0.3")


def test_non_decimal_degrees_print_exactly():
    h = HFE([Fraction(1, 3), Fraction(1, 2)])
    assert str(h) == "{0.5, 1/3}"
    assert repr(~h) == "hfe('2/3', '0.5')"
    assert Fraction(1, 3) in h and "0.5" in h and "0.3" not in h


def test_random_hfs_matches_fraction_construction():
    from hesitant import GeneratorConfig, HFS, Universe
    from hesitant._kernel import active
    from hesitant.laws.engine import _mix, random_hfs

    for grid in (100, 8, 10**9):
        config = GeneratorConfig(seed=11, degree_grid=grid)
        for i in range(50):
            stream = active.Stream(_mix(config.seed, "random_hfs", i))
            size = stream.randint(*config.universe_size)
            plain = active.gen_hfs(stream, grid, size, *config.cardinality)
            uni = Universe(f"x{j}" for j in range(1, size + 1))
            want = HFS(uni, {e: [Fraction(n, grid) for n in plain[j]] for j, e in enumerate(uni)})
            got = random_hfs(config, i)
            assert got == want, (grid, i)
            assert all(_canonical(h) for h in got.hfes), (grid, i)
