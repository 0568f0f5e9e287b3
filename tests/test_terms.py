"""`term`: both kernels evaluate a set term's postfix program over slots.

The registry compiles every compound term of a law to a program
(`generators._program`) and runs it through the kernel's `term`, so a term
must give what the public set algebra gives for the same expression:
`expressions.evaluate_on_hfs`, with `family_fold` for ⋂F and ⋃F. A program
the kernels cannot run raises the same exception type on both.
"""

import random

import pytest

from hesitant._kernel import _pykernel as pure
from hesitant.expressions import Compl, Join, Meet, Var, evaluate_on_hfs
from hesitant.laws import generators as g
from hesitant.laws.registry import Fold
from hesitant.sets import HFS, Family, SetOp, Universe, family_fold

DEN = 100
# The slots of every program below: three sets and a family.
SLOT = {"A": 0, "B": 1, "C": 2, "F": 3}
LEAVES = ("A", "B", "C", "⋂F", "⋃F")


def _hfes(rng, size):
    return tuple(
        tuple(sorted((rng.randint(0, DEN) for _ in range(rng.randint(1, 4))), reverse=True))
        for _ in range(size)
    )


def _slots(rng):
    size = rng.randint(1, 4)
    family = tuple(_hfes(rng, size) for _ in range(rng.randint(1, 3)))
    return (_hfes(rng, size), _hfes(rng, size), _hfes(rng, size), family)


def _expression(rng, depth):
    """A random tree over `LEAVES`; a fold leaf is a variable named ⋂F or ⋃F."""
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(LEAVES))
    shape = rng.randrange(3)
    if shape == 0:
        return Compl(_expression(rng, depth - 1))
    return (Join if shape == 1 else Meet)(_expression(rng, depth - 1), _expression(rng, depth - 1))


def _with_folds(node):
    """The registry's term for a tree: each ⋂F or ⋃F leaf becomes a `Fold`."""
    if isinstance(node, Var):
        return Fold(node.name[0], node.name[1:]) if node.name in ("⋂F", "⋃F") else node
    if isinstance(node, Compl):
        return Compl(_with_folds(node.child))
    return type(node)(_with_folds(node.left), _with_folds(node.right))


def _oracle(node, slots):
    """The tree's value through the public `HFS` algebra."""
    universe = Universe(f"x{i}" for i in range(1, len(slots[0]) + 1))
    sets = {name: HFS._from_grid(universe, slots[i], DEN) for name, i in SLOT.items() if name != "F"}
    family = Family([(f"F{j}", HFS._from_grid(universe, member, DEN)) for j, member in enumerate(slots[3])])
    sets["⋂F"] = family_fold(SetOp.INTERSECTION, family)
    sets["⋃F"] = family_fold(SetOp.UNION, family)
    return universe, evaluate_on_hfs(node, sets.__getitem__)


@pytest.mark.parametrize("seed", range(3))
def test_term_equals_the_set_algebra(compiled, seed):
    rng = random.Random(seed)
    for _ in range(200):
        node, slots = _expression(rng, rng.randint(1, 4)), _slots(rng)
        program = g._program(_with_folds(node), SLOT)
        universe, want = _oracle(node, slots)
        for k in (pure, compiled):
            got = k.term(program, slots, DEN)
            assert HFS._from_grid(universe, got, DEN) == want, (k.IMPLEMENTATION, str(node))


def test_a_variable_is_its_slot(compiled):
    slots = _slots(random.Random(5))
    for k in (pure, compiled):
        assert [k.term((i,), slots, DEN) for i in range(4)] == list(slots)


# Programs over the slots (A, B, C, F, an empty family) that no kernel can
# run, and what both raise.
_EMPTY_FAMILY = 4
MALFORMED = {
    "empty_program": ((), IndexError),
    "union_of_nothing": ((g.UNION,), IndexError),
    "intersection_of_one": ((0, g.INTER), IndexError),
    "complement_of_nothing": ((g.COMPL,), IndexError),
    "fold_of_nothing": ((g.MEET_ALL,), IndexError),
    "unknown_operator": ((0, -6), ValueError),
    "unknown_operator_first": ((-9, 0), ValueError),
    "slot_out_of_range": ((5,), IndexError),
    "slot_past_the_operands": ((0, 9, g.UNION), IndexError),
    "meet_of_an_empty_family": ((_EMPTY_FAMILY, g.MEET_ALL), TypeError),
    "join_of_an_empty_family": ((_EMPTY_FAMILY, g.JOIN_ALL), TypeError),
    "union_of_a_set_and_a_family": ((0, 3, g.UNION), TypeError),
    "complement_of_a_family": ((3, g.COMPL), TypeError),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_programs_raise_alike(compiled, name):
    program, error = MALFORMED[name]
    slots = (*_slots(random.Random(1)), ())
    for k in (pure, compiled):
        with pytest.raises(error):
            k.term(program, slots, DEN)


def _outcome(k, program, slots):
    try:
        return "returned", k.term(program, slots, DEN)
    except Exception as exc:
        return "raised", type(exc)


@pytest.mark.parametrize("seed", range(3))
def test_random_programs_raise_alike(compiled, seed):
    """Any codes in any order, over sets, a family and an empty family: the
    compiled kernel returns pure's value or raises pure's exception type.
    Where pure returns, the compiled kernel may raise TypeError instead:
    pure's loops compare the hfes of a family as they compare degrees, the
    compiled kernel reads a degree as an int."""
    rng = random.Random(seed)
    for _ in range(500):
        slots = (*_slots(rng), ())
        program = tuple(rng.randrange(-7, len(slots) + 1) for _ in range(rng.randrange(7)))
        want, got = _outcome(pure, program, slots), _outcome(compiled, program, slots)
        assert got == want or want[0] == "returned" and got == ("raised", TypeError), program


def test_term_arguments(compiled):
    slots = _slots(random.Random(2))
    for k in (pure, compiled):
        assert k.term((0, g.COMPL), slots, DEN) == k.u_compl(slots[0], DEN)
        with pytest.raises(TypeError):
            k.term((0,), slots)
    # the compiled kernel reads a complement unit as int64, as `u_compl` does
    with pytest.raises(OverflowError):
        compiled.term((0, g.COMPL), slots, 2**64)
    with pytest.raises(TypeError):
        compiled.term((0,), list(slots), DEN)
