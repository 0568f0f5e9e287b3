"""The integer-grid HFE and HFS against the algebras they replaced.

The element oracle below is the earlier HFE: descending tuples of `Fraction`
degrees, operated on directly. The grid HFE must give the same degrees,
verdicts, means and bounds on every input, including non-decimal degrees
whose common denominator passes 64 bits.

The set oracle is the earlier HFS: one HFE per element, each on its own
denominator, operated on HFE by HFE. The one-grid HFS must give the same
memberships, verdicts, text, equality and hashing on the same inputs, and
one content must get identical grid fields on every route that builds a set.
"""

import json
import random
from fractions import Fraction
from functools import reduce
from math import lcm

from hesitant import (
    HFE,
    HFS,
    Family,
    Inclusion,
    SetOp,
    Universe,
    element_relation,
    evaluate_on_hfs,
    family_fold,
    hfe,
    ingest_scores,
    load_document,
    parse_expression,
    set_equality,
    set_relation,
)
from hesitant._kernel._pykernel import REL_A, REL_M, REL_N, REL_P, REL_S, REL_T
from hesitant.relations import classify_strong_or_tail, is_subsequence
from reference import compl, inter, rel, union

# --- the oracle: Fraction tuples, sorted descending ---------------------------

_CODE = {
    Inclusion.POSSIBLE: REL_P,
    Inclusion.ACCEPTABLE: REL_A,
    Inclusion.MEAN: REL_M,
    Inclusion.STRONG: REL_S,
    Inclusion.TAIL: REL_T,
    Inclusion.NECESSARY: REL_N,
}


def _rel(kind, a, b):
    return rel(_CODE[kind], a, b)


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
            (ha | hb, union(a, b)),
            (ha & hb, inter(a, b)),
            (~ha, compl(a, 1)),
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
    from hesitant.laws.engine import _bounds, _mix, random_hfs
    from hesitant.laws.generators import SET

    for grid in (100, 8, 10**9):
        config = GeneratorConfig(seed=11, degree_grid=grid)
        prefix = _mix(config.seed, "random_hfs")
        for i in range(50):
            ((size, (plain,)),) = active.draw_plan(((SET, 0),), 1, _bounds(config), prefix, i, 1)
            uni = Universe(f"x{j}" for j in range(1, size + 1))
            want = HFS(uni, {e: [Fraction(n, grid) for n in plain[j]] for j, e in enumerate(uni)})
            got = random_hfs(config, i)
            assert got == want, (grid, i)
            assert _fields(got) == _fields(want), (grid, i)
            assert all(_canonical(h) for h in got.hfes), (grid, i)


# --- the set oracle: one HFE per element, operated on HFE by HFE --------------


class _PerElement:
    """The earlier HFS: a universe and one canonical HFE per element."""

    def __init__(self, universe, hfes):
        self.universe, self.hfes = universe, tuple(hfes)

    def union(self, other):
        return _PerElement(self.universe, map(HFE.union, self.hfes, other.hfes))

    def intersection(self, other):
        return _PerElement(self.universe, map(HFE.intersection, self.hfes, other.hfes))

    def complement(self):
        return _PerElement(self.universe, map(HFE.complement, self.hfes))

    def relation(self, kind, other):
        return all(map(element_relation, [kind] * len(self.hfes), self.hfes, other.hfes))

    def __eq__(self, other):
        return self.universe == other.universe and self.hfes == other.hfes

    def __repr__(self):
        return "HFS(" + ", ".join(f"{e}: {h}" for e, h in zip(self.universe, self.hfes)) + ")"


def _evaluate(node, resolve):
    """An expression tree over oracle sets."""
    if hasattr(node, "name"):
        return resolve(node.name)
    if hasattr(node, "child"):
        return _evaluate(node.child, resolve).complement()
    left, right = _evaluate(node.left, resolve), _evaluate(node.right, resolve)
    return left.union(right) if type(node).__name__ == "Join" else left.intersection(right)


_EXPRESSIONS = [parse_expression(t) for t in ("(A | B) & Cᶜ", "A & (B | C)ᶜ", "(A ∩ B)ᶜ ∪ (B ∩ C)")]


def _fields(s):
    return s._grid, s._den


def _check_set(got, want):
    """The one-grid `got` shows exactly the memberships of the oracle `want`,
    and its fields are those of the constructor on the same content."""
    uni = want.universe
    assert got.universe == uni
    assert got.hfes == want.hfes
    assert tuple(got[e] for e in uni) == want.hfes
    assert list(got.items()) == list(zip(uni, want.hfes))
    assert str(got) == repr(got) == repr(want)
    built = HFS(uni, dict(zip(uni, want.hfes)))
    assert got == built and hash(got) == hash(built)
    assert _fields(got) == _fields(built)
    den = lcm(*(h._den for h in want.hfes))
    assert got._den == den
    assert got._grid == tuple(tuple(n * (den // h._den) for n in h._nums) for h in want.hfes)


def _set_cases(count=300):
    """Per seed, three sets A, B, C on one universe of 1 to 4 elements, with
    their oracles; degrees as in `_pool`, every third seed from all the
    primes."""
    for seed in range(count):
        rng = random.Random(seed)
        pool = _pool(rng, len(_PRIMES) if seed % 3 == 0 else 2)
        uni = Universe(f"x{i}" for i in range(rng.randint(1, 4)))
        sets = {}
        for name in "ABC":
            degrees = {e: [rng.choice(pool) for _ in range(rng.randint(1, 5))] for e in uni}
            sets[name] = (HFS(uni, degrees), _PerElement(uni, map(HFE, degrees.values())))
        yield seed, uni, sets


def _family_names(seed):
    """One to three of the names A, B, C, in a seeded order."""
    rng = random.Random(-seed - 1)
    return rng.sample("ABC", rng.randint(1, 3))


def test_set_algebra_matches_per_element_oracle():
    widest = 0
    for seed, uni, sets in _set_cases():
        (A, oa), (B, ob), (C, oc) = sets.values()
        widest = max(widest, lcm(A._den, B._den, C._den))
        for got, want in (
            (A, oa),
            (A | B, oa.union(ob)),
            (A & B, oa.intersection(ob)),
            (~A, oa.complement()),
            (A.union(C).intersection(B), oa.union(oc).intersection(ob)),
            (~~B, ob),
        ):
            _check_set(got, want)
        assert (A == B) == (oa == ob), seed
        assert (A | B == B | A) and (A & B == B & A), seed
        for kind in Inclusion:
            assert set_relation(kind, A, B) == oa.relation(kind, ob), (seed, kind)
            assert set_relation(kind, B, A | C) == ob.relation(kind, oa.union(oc)), (seed, kind)
            if kind is not Inclusion.TAIL:
                want = oa.relation(kind, ob) and ob.relation(kind, oa)
                assert set_equality(kind, A, B) == want, (seed, kind)
        members = [sets[n] for n in _family_names(seed)]
        fam = Family([(f"F{i}", s) for i, (s, _) in enumerate(members)])
        oracles = [o for _, o in members]
        _check_set(family_fold(SetOp.UNION, fam), reduce(_PerElement.union, oracles))
        _check_set(family_fold(SetOp.INTERSECTION, fam), reduce(_PerElement.intersection, oracles))
        resolve = {n: s for n, (s, _) in sets.items()}.__getitem__
        resolve_oracle = {n: o for n, (_, o) in sets.items()}.__getitem__
        for node in _EXPRESSIONS:
            _check_set(evaluate_on_hfs(node, resolve), _evaluate(node, resolve_oracle))
    assert widest >= 2**64


def _decimal(rng):
    """A 2- or 9-digit decimal string, sometimes with trailing zeros."""
    if rng.random() < 0.5:
        return f"0.{rng.randrange(100):02d}" if rng.random() < 0.9 else "1"
    return f"0.{rng.randrange(10**9):09d}"


def test_one_content_gets_one_grid_on_every_route():
    for seed in range(100):
        rng = random.Random(seed)
        uni = Universe(f"s{i}" for i in range(rng.randint(1, 5)))
        degrees = {e: [_decimal(rng) for _ in range(rng.randint(1, 4))] for e in uni}
        built = HFS(uni, degrees)
        want = _fields(built)
        assert _fields(HFS(uni, {e: [Fraction(d) for d in v] for e, v in degrees.items()})) == want
        text = json.dumps({"universe": list(uni), "sets": {"A": degrees}})
        assert _fields(load_document(text).hfs("A")) == want, seed
        rows = [(e, f"expert{j}", d) for e, v in degrees.items() for j, d in enumerate(v)]
        rng.shuffle(rows)
        table = "scheme,expert,score\n" + "".join(f"{e},{x},{d}\n" for e, x, d in rows)
        ingested = ingest_scores(table).hfs("H")
        order = list(dict.fromkeys(e for e, _, _ in rows))
        assert _fields(ingested) == _fields(HFS(Universe(order), degrees)), seed
        for result in (~~built, built & built.complement().complement() & built):
            oracle = _PerElement(uni, result.hfes)
            assert _fields(result) == _fields(HFS(uni, dict(zip(uni, oracle.hfes)))), seed
        assert _fields(~~built) == want, seed
