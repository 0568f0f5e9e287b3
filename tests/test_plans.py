"""Draw plans: both kernels' `draw_plan` agree on every plan shape.

`_pykernel.draw_plan` is the reference. The compiled one must return
exactly what it returns, for every law's plan at the default, the
degenerate and the extreme configs, and for random plans that no law has.
Each comparison draws the trials one call each (a count of 1) and as one
chunk, and the chunk must be the trials one by one, or raise where one of
them raises. The crash-proofing of odd arguments is probed in a subprocess
by `test_kernel.test_boundary_probe` (its `draw_plan_*` probes).
"""

import random

import pytest

from hesitant import GeneratorConfig, law_registry, proved_laws, random_hfs
from hesitant._kernel import _pykernel as pure
from hesitant.expressions import INTER, MEET_ALL, TERM_OPS
from hesitant.laws import engine, generators as g
from hesitant.laws.engine import _mix
from test_streams import OracleStream, oracle_gen_hfs

# (den, universe lo, hi, cardinality lo, hi, family lo, hi)
BOUNDS = {
    "default": (100, 1, 4, 1, 6, 1, 5),
    "one-degree": (100, 1, 4, 1, 1, 1, 5),
    "grid-1": (1, 1, 2, 1, 3, 1, 2),
    "extreme": (10**9, 1, 16, 1, 64, 1, 8),
    "at-the-bounds": (10**9, 16, 16, 64, 64, 8, 8),
    "widest-grid": (2**63 - 1, 1, 4, 1, 6, 1, 5),
}


def _draws(kernel, plan, width, bounds, prefix, indices):
    """The trials at `indices`, one call each, then all of them in one
    chunk; a trial or chunk that raises is "raised"."""
    out = []
    for index in indices:
        try:
            out.extend(kernel.draw_plan(plan, width, bounds, prefix, index, 1))
        except Exception:  # either kernel may name the fault its own way
            out.append("raised")
    try:
        chunk = kernel.draw_plan(plan, width, bounds, prefix, indices.start, len(indices))
    except Exception:
        chunk = "raised"
    assert chunk == ("raised" if "raised" in out else out), (kernel.IMPLEMENTATION, plan, bounds)
    return out, chunk


def test_every_move_appears_in_a_law():
    moves, members, ops = set(), set(), set()

    def walk(plan):
        for move in plan:
            moves.add(move[0])
            if move[0] == g.ABOVE:
                members.add(move[4])
            elif move[0] == g.BELOW:
                ops.update(t for t in move[3] if t < 0)
            elif move[0] == g.CHOICE:
                for sub in move[1:]:
                    walk(sub)

    for law in law_registry():
        walk(law.plan)
    assert moves == set(range(9))
    assert members == {g.ALL, g.SOME, g.LONGER}
    assert ops == {INTER, MEET_ALL}


@pytest.mark.parametrize("config", BOUNDS)
def test_draw_plan_identical_for_every_law(compiled, config):
    bounds = BOUNDS[config]
    runs = (range(40),) if bounds[4] < 64 else (range(2), range(2**32 + 5, 2**32 + 6))
    for law in law_registry():
        prefix = _mix(11, law.id)
        for indices in runs:
            args = (law.plan, len(law.params), bounds, prefix, indices)
            assert _draws(compiled, *args) == _draws(pure, *args), law.id


def _random_move(rng, slots, depth=0):
    op = rng.randrange(9)
    code = rng.randrange(7)  # 6 is no relation
    pick = lambda: rng.randrange(slots)  # noqa: E731
    if op == g.CHOICE and depth < 3:
        return (op, *(_random_plan(rng, slots, depth + 1) for _ in range(rng.randrange(1, 4))))
    if op == g.LADDER:
        return (op, code, *(pick() for _ in range(rng.randrange(4))))
    if op == g.ABOVE:
        return (op, code, pick(), pick(), rng.randrange(3))
    if op == g.BELOW:
        program = tuple(rng.choice((pick(), pick(), *TERM_OPS)) for _ in range(rng.randrange(1, 5)))
        return (op, code, pick(), program)
    return (op, pick(), pick())


def _random_plan(rng, slots, depth=0):
    return tuple(_random_move(rng, slots, depth) for _ in range(rng.randrange(1, 4)))


@pytest.mark.parametrize("seed", range(4))
def test_draw_plan_identical_for_random_plans(compiled, seed):
    """Plans of any moves in any order, over slots of any kind: the
    compiled kernel returns the reference's value, or raises where it
    raises."""
    rng = random.Random(seed)
    for _ in range(300):
        width = rng.randrange(1, 4)
        plan = _random_plan(rng, width)
        lo, flo = rng.randrange(1, 3), rng.randrange(1, 3)
        bounds = (rng.choice((1, 100, 10**9, 2**63 - 1)), rng.randrange(1, 3), rng.choice((3, 5)), lo,
                  lo + rng.choice((0, 1, 4, 7)), flo, flo + rng.choice((0, 1, 4)))
        args = (plan, width, bounds, rng.getrandbits(64), range(rng.randrange(50), 55))
        assert _draws(compiled, *args) == _draws(pure, *args), (plan, bounds)


def test_draw_plan_seeds_each_trial_from_the_law_prefix(compiled):
    """A trial's stream is seeded with `_mix(seed, law id, index)`: its first
    output draws the universe size and the rest one free set, as the
    method-per-draw oracle of `test_streams.py` draws them."""
    bounds = BOUNDS["extreme"]
    for kernel in (pure, compiled):
        for index in (0, 1, 255, 256, 2**40, 2**64 - 1):
            stream = OracleStream(_mix(7, "thm1.1", index))
            size = stream.randint(*bounds[1:3])
            expected = (size, (oracle_gen_hfs(stream, bounds[0], size, *bounds[3:5]),))
            assert kernel.draw_plan(((g.SET, 0),), 1, bounds, _mix(7, "thm1.1"), index, 1) == [expected]


def _plain(value) -> bool:
    """True iff value is built of tuples and ints only: no bool, list or
    array slice anywhere."""
    if type(value) is tuple:
        return all(map(_plain, value))
    return type(value) is int


# The default config, and a full universe, cardinality and family, which
# grow each trial's buffer several times.
PLAIN_CONFIGS = {
    "default": GeneratorConfig(),
    "full": GeneratorConfig(universe_size=(4, 4), cardinality=(6, 6), family_size=(5, 5)),
}


@pytest.mark.parametrize("config", PLAIN_CONFIGS)
def test_pure_bindings_are_plain_tuples(monkeypatch, config):
    """Guards, claims, witnesses and `term` read bindings as tuples of
    tuples of ints: every binding the pure kernel draws for a proved law is
    one, and so is the grid of `random_hfs`."""
    cfg = PLAIN_CONFIGS[config]
    bounds = engine._bounds(cfg)
    for law in proved_laws():
        for size, binding in pure.draw_plan(law.plan, len(law.params), bounds, _mix(cfg.seed, law.id), 0, 70):
            assert type(size) is int and (binding is None or _plain(binding)), law.id
    monkeypatch.setattr(engine, "active", pure)
    for index in range(70):
        assert _plain(random_hfs(cfg, index)._grid), index


def test_pure_codes_are_the_generators_codes():
    assert (pure._SET, pure._FAMILY, pure._LADDER, pure._COPY, pure._COINCIDE, pure._ABOVE,
            pure._BELOW, pure._SUBFAMILY, pure._CHOICE) == tuple(range(9))
    assert (g.SET, g.FAMILY, g.LADDER, g.COPY, g.COINCIDE, g.ABOVE, g.BELOW, g.SUBFAMILY, g.CHOICE) == tuple(range(9))
    assert (pure._ALL, pure._SOME, pure._LONGER) == (g.ALL, g.SOME, g.LONGER)
    assert (pure._UNION, pure._INTER, pure._COMPL, pure._MEET_ALL, pure._JOIN_ALL) == tuple(TERM_OPS)
