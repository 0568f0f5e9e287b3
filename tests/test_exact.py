"""Exact law evaluation on the integer grid against the Fraction evaluation
it replaced.

The oracle below is the earlier path: law predicates run on plain values
whose degrees are `Fraction` objects, through a kernel of `Fraction`
arithmetic with complement unit 1. `evaluate_law`, `replay_witness` and
`pointwise_leq` now put every degree on one common integer denominator;
they must give the oracle's verdicts on every binding, including
non-decimal degrees and denominators whose lcm passes 64 bits.
"""

import random
from fractions import Fraction
from functools import reduce
from math import lcm
from types import SimpleNamespace

from hesitant import Family, Universe, evaluate_law, law_registry, make_hfs, pointwise_leq
from hesitant._kernel import _pykernel
from hesitant.laws import Witness, replay_witness
from hesitant.laws.algebra import Algebra
from hesitant.laws.engine import exact_binding
from hesitant.laws.generators import COMPL, JOIN_ALL, MEET_ALL, UNION, slots

# --- the oracle: Fraction tuples and Fraction arithmetic -------------------------


def _union(a, b):
    lo = max(a[-1], b[-1])
    return tuple(sorted((g for g in a + b if g >= lo), reverse=True))


def _inter(a, b):
    hi = min(a[0], b[0])
    return tuple(sorted((g for g in a + b if g <= hi), reverse=True))


def _rel(code, a, b):
    if code == _pykernel.REL_P:
        return a[0] <= b[0]
    if code == _pykernel.REL_A:
        return a[0] <= b[0] and a[-1] <= b[-1]
    if code == _pykernel.REL_M:
        return sum(a) / len(a) <= sum(b) / len(b)
    if code == _pykernel.REL_S:
        return len(a) >= len(b) and all(b[i] >= a[i] for i in range(len(b)))
    if code == _pykernel.REL_T:
        return len(a) < len(b) and all(b[i] >= a[i] for i in range(len(a)))
    if code == _pykernel.REL_SOT:
        return _rel(_pykernel.REL_S, a, b) or _rel(_pykernel.REL_T, a, b)
    return a[0] <= b[-1]


def _set_op(op):
    return lambda A, B: tuple(map(op, A, B))


def _complement(A, one):
    return tuple(tuple(one - g for g in reversed(a)) for a in A)


def _term(program, slots, one):
    """A postfix program's value, read from its end: the last code applies
    to the values of the subprograms that end before it."""

    def value(end):  # (value, start) of the subprogram that ends at `end`
        code = program[end - 1]
        if code >= 0:
            return slots[code], end - 1
        operand, start = value(end - 1)
        if code == COMPL:
            return _complement(operand, one), start
        if code in (MEET_ALL, JOIN_ALL):
            return reduce(_set_op(_inter if code == MEET_ALL else _union), operand), start
        left, start = value(start)
        return _set_op(_union if code == UNION else _inter)(left, operand), start

    return value(len(program))[0]


_FRACTION_KERNEL = SimpleNamespace(
    u_union=_set_op(_union),
    u_inter=_set_op(_inter),
    u_compl=_complement,
    u_rel=lambda code, A, B: all(map(_rel, [code] * len(A), A, B)),
    term=_term,
)
_ORACLE = Algebra(_FRACTION_KERNEL, Fraction(1))


def _oracle_values(law, binding):
    def plain(s):
        return tuple(h.degrees for h in s.hfes)

    return tuple(
        plain(binding[name]) if kind == "set" else tuple(map(plain, binding[name].sets))
        for name, kind in law.params
    )


def _oracle(law, binding):
    values = _oracle_values(law, binding)
    kern, one = _ORACLE.kern, _ORACLE.one
    guard = True if law.guard is None else bool(law.guard(kern, one, values))
    return {"guard": guard, "claim": bool(law.claim(kern, one, values))}


# --- seeded degrees ------------------------------------------------------------------

# Primes just above 10**6: the lcm of any four of them passes 2**64.
_PRIMES = (1_000_003, 1_000_033, 1_000_037, 1_000_039, 1_000_081)
assert _PRIMES[0] ** 4 > 2**64


def _decimal(rng, digits):
    """A decimal string with `digits` fractional digits, trailing zeros kept."""
    k = rng.randint(0, 10**digits)
    return "1" if k == 10**digits else f"0.{k:0{digits}d}"


def _degree(rng, pool):
    if pool == "decimal":
        return _decimal(rng, rng.choice((2, 9)))
    if pool == "thirds":
        return rng.choice((Fraction(1, 3), Fraction(2, 3), Fraction(2, 7), Fraction(5, 7), "0.5", 0, 1))
    p = rng.choice(_PRIMES)
    return Fraction(rng.randint(0, p), p)


def _hfs(rng, universe, pool):
    return make_hfs(
        universe,
        {e: [_degree(rng, pool) for _ in range(rng.randint(1, 4))] for e in universe},
    )


def _binding(rng, law, pool):
    universe = Universe([f"x{i}" for i in range(1, rng.randint(1, 3) + 1)])
    out = {}
    for name, kind in law.params:
        if kind == "set":
            out[name] = _hfs(rng, universe, pool)
        else:
            size = rng.randint(1, 3)
            out[name] = Family([(f"{name}{j}", _hfs(rng, universe, pool)) for j in range(size)])
    return out


# --- the comparisons ---------------------------------------------------------------


def test_evaluate_law_matches_the_fraction_oracle():
    rng = random.Random(20250808)
    for law in law_registry():
        for pool in ("decimal", "thirds", "primes"):
            for _ in range(6):
                binding = _binding(rng, law, pool)
                assert evaluate_law(law, binding) == _oracle(law, binding), (law.id, pool, binding)


def test_relation_sides_match_the_fraction_oracle():
    """The values behind the verdicts, complements included, as the
    `counterexamples` traces print them: every law compares complements only
    with complements, so no verdict would notice a wrong complement unit."""
    rng = random.Random(5)
    kern, one = _ORACLE.kern, _ORACLE.one
    for law in law_registry():
        rels = [spec for spec in (law.premise, law.conclusion) if hasattr(spec, "sides")]
        for pool in ("decimal", "thirds", "primes"):
            binding = _binding(rng, law, pool)
            alg, plain = exact_binding(law, binding)
            values = _oracle_values(law, binding)
            for rel in rels:
                sides = [
                    tuple(tuple(Fraction(n, alg.one) for n in h) for h in side)
                    for side in rel.sides(slots(law.params), alg.kern, alg.one, plain)
                ]
                assert sides == list(rel.sides(slots(law.params), kern, one, values)), (law.id, str(rel), binding)


def test_set_and_family_laws_see_denominators_past_64_bits():
    rng = random.Random(7)
    laws = [law for law in law_registry() if {kind for _, kind in law.params} == {"set", "family"}]
    assert laws
    widest = 1
    for law in laws:
        for _ in range(10):
            binding = _binding(rng, law, "primes")
            sets_ = [s for v in binding.values() for s in (v.sets if isinstance(v, Family) else (v,))]
            widest = max(widest, lcm(*(g.denominator for s in sets_ for h in s.hfes for g in h)))
            assert evaluate_law(law, binding) == _oracle(law, binding), (law.id, binding)
            # unbounded ints: the pure kernel, even when a compiled one is active
            assert exact_binding(law, binding)[0].kern is _pykernel
    assert widest > 2**64


def test_replay_witness_matches_the_fraction_oracle():
    rng = random.Random(3)
    for law in law_registry():
        universe = [f"x{i}" for i in range(1, rng.randint(1, 3) + 1)]

        def hfs_data():
            return [[_decimal(rng, rng.choice((2, 9))) for _ in range(rng.randint(1, 4))] for _ in universe]

        binding = {
            name: hfs_data() if kind == "set" else [hfs_data() for _ in range(rng.randint(1, 3))]
            for name, kind in law.params
        }
        witness = Witness(law_id=law.id, trial=0, universe=tuple(universe), binding=binding)
        assert replay_witness(witness) == _oracle(law, witness.to_objects()), law.id


def test_pointwise_leq_matches_the_fraction_oracle():
    rng = random.Random(11)
    for pool in ("decimal", "thirds", "primes"):
        for _ in range(300):
            n = rng.randint(1, 5)
            v = [_degree(rng, pool) for _ in range(n)]
            w = [_degree(rng, pool) for _ in range(n)]
            if rng.random() < 0.5:  # a dominating w, to exercise true verdicts
                w = [max(x, y, key=Fraction) for x, y in zip(v, w)]
            expected = all(Fraction(x) <= Fraction(y) for x, y in zip(v, w))
            assert pointwise_leq(v, w) == expected, (v, w)
            hv, hw = make_hfs(["x"], {"x": v})["x"], make_hfs(["x"], {"x": w})["x"]
            assert pointwise_leq(hv, hw) == all(x <= y for x, y in zip(hv, hw)), (hv, hw)
