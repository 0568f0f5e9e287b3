"""Pure and compiled kernels must agree operation-for-operation and share
bit-identical random streams.

`compiled` (see `conftest.py`) is the built extension, or else `_ckernel.c`
compiled by gcc into a temporary directory, so these tests run wherever gcc
and `Python.h` exist. The boundary probes run the compiled kernel in a
subprocess, so that a crash fails one test instead of the session.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hesitant._kernel import _pykernel as pure
from hesitant.expressions import COMPL, INTER, UNION
from hesitant.laws.generators import BELOW, COINCIDE, FAMILY, SET
import reference

int_hfes = st.lists(st.integers(0, 10), min_size=1, max_size=6).map(
    lambda v: tuple(sorted(v, reverse=True))
)


def _all_small(den=2, cmax=3):
    out = []
    for k in range(1, cmax + 1):
        out.extend(
            tuple(sorted(c, reverse=True))
            for c in itertools.combinations_with_replacement(range(den + 1), k)
        )
    return out


# The kernel contract: the names both kernels define, the entries the law
# engine calls on the active kernel. The pure kernel also defines the exact
# algebra's set functions, and neither kernel defines anything else.
KERNEL_NAMES = {
    "IMPLEMENTATION", "REL_P", "REL_A", "REL_M", "REL_S", "REL_T", "REL_N", "REL_SOT",
    "u_rel", "term", "draw_plan",
}
PURE_SET_FUNCTIONS = {"u_union", "u_inter", "u_compl"}


# The compiled kernel's set operations: one-operator `term` programs, which
# run the C code the engine's terms run. The pure functions are the oracle.
def union(k, A, B):
    return k.term((0, 1, UNION), (A, B), 0)


def inter(k, A, B):
    return k.term((0, 1, INTER), (A, B), 0)


def compl(k, A, one):
    return k.term((0, COMPL), (A,), one)


def _defined_names(kernel):
    """The public names a kernel module defines itself (imports left out)."""
    return {
        name
        for name, value in vars(kernel).items()
        if not name.startswith("_") and getattr(value, "__module__", kernel.__name__) == kernel.__name__
    }


def test_kernels_export_the_same_names(compiled):
    assert _defined_names(pure) == KERNEL_NAMES | PURE_SET_FUNCTIONS
    assert _defined_names(compiled) == KERNEL_NAMES


def test_streams_identical(compiled):
    """Output 1 of 100 trials' streams, each trial's universe size, over the
    widest range, [1, 2**63 - 1], and two narrow ones."""
    for seed, lo, hi in ((12345, 1, 2**63 - 1), (7, 1, 999), (99, 3, 9)):
        bounds = (100, lo, hi, 1, 1, 1, 1)
        assert pure.draw_plan((), 0, bounds, seed, 0, 100) == compiled.draw_plan((), 0, bounds, seed, 0, 100)


def test_generation_identical(compiled):
    """Sets, a family and coinciding degrees drawn one after another, at
    sizes 1, 4 and 16 and at the first and the last trial index."""
    plan = ((SET, 0), (FAMILY, 1), (SET, 2), (COINCIDE, 3, 4))
    for seed in (0, 1, 2**63, 2**64 - 1):
        for den in (1, 100, 10**9):
            for lo, hi in ((1, 1), (6, 6), (1, 6), (1, 64)):
                for size in (1, 4, 16):
                    bounds = (den, size, size, lo, hi, 1, 4)
                    for first in (0, 2**64 - 3):
                        assert pure.draw_plan(plan, 5, bounds, seed, first, 3) == compiled.draw_plan(
                            plan, 5, bounds, seed, first, 3
                        )


def test_exhaustive_small_grid_equivalence(compiled):
    hfes = _all_small()
    for a, b in itertools.product(hfes, repeat=2):
        assert pure.u_union((a,), (b,)) == union(compiled, (a,), (b,))
        assert pure.u_inter((a,), (b,)) == inter(compiled, (a,), (b,))
        for code in range(7):
            assert pure.u_rel(code, (a,), (b,)) == compiled.u_rel(code, (a,), (b,))
    for a in hfes:
        assert pure.u_compl((a,), 2) == compl(compiled, (a,), 2)


@given(int_hfes, int_hfes)
def test_randomized_equivalence(compiled, a, b):
    assert pure.u_union((a,), (b,)) == union(compiled, (a,), (b,))
    assert pure.u_inter((a,), (b,)) == inter(compiled, (a,), (b,))
    assert pure.u_compl((a,), 10) == compl(compiled, (a,), 10)
    for code in range(7):
        assert pure.u_rel(code, (a,), (b,)) == compiled.u_rel(code, (a,), (b,))


@given(st.lists(int_hfes, min_size=1, max_size=4), st.lists(int_hfes, min_size=1, max_size=4))
def test_set_level_equivalence(compiled, A, B):
    n = min(len(A), len(B))
    A, B = tuple(A[:n]), tuple(B[:n])
    assert pure.u_union(A, B) == union(compiled, A, B)
    assert pure.u_inter(A, B) == inter(compiled, A, B)
    assert pure.u_compl(A, 10) == compl(compiled, A, 10)
    for code in range(7):
        assert pure.u_rel(code, A, B) == compiled.u_rel(code, A, B)


# --- the set loops against the per-element definitions ----------------------
#
# The pure kernel runs each set-level function as one loop over the universe
# positions. `reference.py` holds the element-level definitions they
# replaced, applied here position by position; both must agree on every
# input, on grids past 2**64.


@st.composite
def _hfs_pair(draw):
    """Two hfss of possibly different lengths on one grid (zip stops at the
    shorter), with a unit `one` that may pass 2**64."""
    one = draw(st.sampled_from([1, 10, 2**64 - 1, 2**64 + 13, 3**50]))
    hfe = st.lists(st.integers(0, one), min_size=1, max_size=7).map(
        lambda v: tuple(sorted(v, reverse=True))
    )
    A = tuple(draw(st.lists(hfe, max_size=5)))
    B = tuple(draw(st.lists(hfe, max_size=5)))
    return one, A, B


@given(_hfs_pair())
def test_set_loops_equal_the_per_element_definitions(pair):
    one, A, B = pair
    pairs = list(zip(A, B))
    assert pure.u_union(A, B) == tuple(reference.union(a, b) for a, b in pairs)
    assert pure.u_inter(A, B) == tuple(reference.inter(a, b) for a, b in pairs)
    assert pure.u_compl(A, one) == tuple(reference.compl(a, one) for a in A)
    for code in range(7):
        assert pure.u_rel(code, A, B) == all(reference.rel(code, a, b) for a, b in pairs)
    for a, b in pairs:
        assert [pure.u_rel(c, (a,), (b,)) for c in range(7)] == [reference.rel(c, a, b) for c in range(7)]


def test_unknown_relation_code_raises_value_error(compiled):
    """Codes outside 0..6 raise ValueError once a position is compared; an
    empty set compares none."""
    for k in (pure, compiled):
        for code in (-1, 7, 17):
            with pytest.raises(ValueError):
                k.u_rel(code, ((1,),), ((1,),))
            with pytest.raises(ValueError):
                k.u_rel(code, ((1,), (2,)), ((1,), (2,)))
            assert k.u_rel(code, (), ()) is True


# Every function that reads the degrees of an hfe rejects an empty one with
# IndexError, in both kernels alike. An `e_*` probe runs on one-element
# sets, and its "sot" is `REL_SOT` (code 6). The probes evaluate with
# `union`, `inter` and `compl` as above in scope, so both kernels run the
# set operations as `term` programs.
EMPTY_HFE = {
    "e_union_empty_a": "union(k, ((),), ((1,),))",
    "e_union_empty_b": "union(k, ((1,),), ((),))",
    "e_inter_empty_b": "inter(k, ((1,),), ((),))",
    "e_rel_p_empty_a": "k.u_rel(0, ((),), ((1,),))",
    "e_rel_n_empty_b": "k.u_rel(5, ((1,),), ((),))",
    "e_rel_empty_each": "[(k.u_rel(c, ((),), ((1,),)), k.u_rel(c, ((1,),), ((),))) for c in (2, 3, 4, 6)]",
    "e_rel_m_empty_a": "k.u_rel(2, ((),), ((1, 0),))",
    "e_rel_m_empty_b": "k.u_rel(2, ((1,),), ((),))",
    "e_rel_m_empty_both": "k.u_rel(2, ((),), ((),))",
    "e_rel_s_empty_a": "k.u_rel(3, ((),), ((1,),))",
    "e_rel_s_empty_b": "k.u_rel(3, ((1, 0),), ((),))",
    "e_rel_s_empty_both": "k.u_rel(3, ((),), ((),))",
    "e_rel_t_empty_a": "k.u_rel(4, ((),), ((1, 0),))",
    "e_rel_t_empty_b": "k.u_rel(4, ((1,),), ((),))",
    "u_rel_m_empty_later": "k.u_rel(2, ((1,), ()), ((1,), (1,)))",
    "e_sot_empty_a": "k.u_rel(6, ((),), ((1,),))",
    "e_sot_empty_b": "k.u_rel(6, ((1,),), ((),))",
    "e_compl_empty": "compl(k, ((),), 1)",
    "u_compl_empty_later": "compl(k, ((1,), ()), 1)",
}

# --- draw_plan over a chunk of trials ---

_BOUNDS = (100, 1, 4, 1, 6, 1, 5)
# Per trial, one draw picks a free set or a move that no kernel knows: with
# the prefix 1, trials 0 and 1 draw and trial 2 raises.
_SOMETIMES_RAISES = ((8, ((0, 0),), ((9, 0),)),), 1, _BOUNDS, 1


def test_draw_plan_chunk_arguments(compiled):
    free = ((0, 0),), 1, _BOUNDS, 1
    for k in (pure, compiled):
        assert k.draw_plan(*free, 0, 0) == k.draw_plan(*free, 2**64 - 1, 0) == []
        with pytest.raises(ValueError):
            k.draw_plan(*free, 0, -1)
        with pytest.raises(ValueError):
            k.draw_plan(*free, 0, -2**70)
        for bad in (1.0, "1", None, True):
            with pytest.raises(TypeError):
                k.draw_plan(*free, 0, bad)
            with pytest.raises(TypeError):
                k.draw_plan(*free, bad, 1)
        # every trial index must fit 64 bits, and both kernels name the range
        assert len(k.draw_plan(*free, 2**64 - 2, 2)) == 2
        for first, count in ((2**64 - 1, 2), (1, 2**64), (0, 2**70), (-1, 1), (2**64, 0)):
            with pytest.raises(OverflowError, match=r"^trial index out of range 0\.\.2\*\*64 - 1$"):
                k.draw_plan(*free, first, count)


def test_draw_plan_width(compiled):
    """A binding is the tuple of `width` slots; the width is an int and not
    a bool, and not negative."""
    plan = ((0, 1),)
    for k in (pure, compiled):
        ((size, (unset, drawn, last)),) = k.draw_plan(plan, 3, _BOUNDS, 1, 0, 1)
        assert unset is None is last and len(drawn) == size
        assert [binding for _, binding in k.draw_plan((), 0, _BOUNDS, 1, 0, 2)] == [(), ()]
        with pytest.raises(IndexError):
            k.draw_plan(plan, 1, _BOUNDS, 1, 0, 1)
        with pytest.raises(ValueError):
            k.draw_plan(plan, -1, _BOUNDS, 1, 0, 1)
        for bad in (2.0, "2", None, (0, 1), True):
            with pytest.raises(TypeError):
                k.draw_plan(plan, bad, _BOUNDS, 1, 0, 1)


def test_draw_plan_bounds_are_int64(compiled):
    """Both kernels read each of the seven bounds as an int64: one just
    outside it, den = 2**63 among them, raises OverflowError, and one that
    is not an int TypeError. den = 2**63 - 1 is the widest grid."""
    for k in (pure, compiled):
        assert len(k.draw_plan(((0, 0),), 1, (2**63 - 1, *_BOUNDS[1:]), 1, 0, 2)) == 2
        for at in range(7):
            for bad in (2**63, -(2**63) - 1):
                with pytest.raises(OverflowError):
                    k.draw_plan(((0, 0),), 1, _BOUNDS[:at] + (bad,) + _BOUNDS[at + 1 :], 1, 0, 1)
            for bad in (1.0, "1", None):
                with pytest.raises(TypeError):
                    k.draw_plan(((0, 0),), 1, _BOUNDS[:at] + (bad,) + _BOUNDS[at + 1 :], 1, 0, 1)


def test_draw_plan_refuses_bounds_outside_the_draw_domain(compiled):
    """The draw domain is a grid den >= 1 and 1 <= lo <= hi for the size,
    cardinality and family ranges. Both kernels raise ValueError for each
    bound outside it, at every count, and draw at its edges."""
    plan = ((0, 0), (1, 1))
    edges = [(1, 1, 1, 1, 1, 1, 1), (2**63 - 1, 1, 4, 1, 6, 1, 5), (100, 3, 3, 6, 6, 5, 5)]
    refused = [(den, *_BOUNDS[1:]) for den in (0, -1, -(2**63))]
    for lo_at in (1, 3, 5):  # each lo below 1, and each lo above its hi
        for lo in (0, -1, -(2**63)):
            refused.append(_BOUNDS[:lo_at] + (lo,) + _BOUNDS[lo_at + 1 :])
        refused.append(_BOUNDS[:lo_at] + (_BOUNDS[lo_at + 1] + 1,) + _BOUNDS[lo_at + 1 :])
        refused.append(_BOUNDS[:lo_at] + (2**63 - 1, -(2**63)) + _BOUNDS[lo_at + 2 :])
    for k in (pure, compiled):
        for bounds in edges:
            assert len(k.draw_plan(plan, 2, bounds, 1, 0, 2)) == 2
        for bounds in refused:
            for count in (0, 1, 3):
                with pytest.raises(ValueError, match="^bounds need den >= 1"):
                    k.draw_plan(plan, 2, bounds, 1, 0, count)


def test_a_trial_that_raises_raises_for_its_chunk(compiled):
    for k in (pure, compiled):
        ones = [k.draw_plan(*_SOMETIMES_RAISES, index, 1) for index in range(2)]
        with pytest.raises(ValueError, match="unknown plan move 9"):
            k.draw_plan(*_SOMETIMES_RAISES, 2, 1)
        assert k.draw_plan(*_SOMETIMES_RAISES, 0, 2) == ones[0] + ones[1]
        with pytest.raises(ValueError, match="unknown plan move 9"):
            k.draw_plan(*_SOMETIMES_RAISES, 0, 40)


def test_below_builds_no_mean_or_strong_inclusion(compiled):
    """A `BELOW` move builds ⊂p, ⊂a, ⊂t and ⊂n under a term's value, the
    relations of the registry's premises `A ⊂k term`. Both kernels refuse ⊂m
    and ⊂s with the same ValueError, where a wide set or one degree would
    leave no room as well as where there is."""
    for k in (pure, compiled):
        for code in (pure.REL_M, pure.REL_S):
            plan = ((SET, 1), (BELOW, code, 0, (1, 1, UNION)))
            for bounds in (_BOUNDS, (100, 4, 4, 1, 1, 1, 1), (100, 4, 4, 6, 6, 1, 1)):
                with pytest.raises(ValueError, match=f"^no dominated construction for relation code {code}$"):
                    k.draw_plan(plan, 2, bounds, 1, 0, 3)
        for code in (pure.REL_P, pure.REL_A, pure.REL_T, pure.REL_N):
            assert len(k.draw_plan(((SET, 1), (BELOW, code, 0, (1,))), 2, _BOUNDS, 1, 0, 3)) == 3


def test_failing_chunks_leak_nothing(compiled):
    """A chunk that raises after drawing trials frees them. The sanitized CI
    job runs with leak detection off, so this counts the memory that Python's
    allocators still hold after 2,000 such chunks."""
    import tracemalloc

    def fail(times):
        for _ in range(times):
            try:
                compiled.draw_plan(*_SOMETIMES_RAISES, 0, 3)
            except ValueError:
                pass

    fail(200)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fail(2000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 10_000  # one leaked chunk of two bindings is several hundred bytes


# Each probe is an expression over `k`, a kernel module, evaluated on the
# compiled and on the pure kernel. The compiled kernel must not crash: it
# returns pure's value, or raises where pure raises. Only the probes in
# MAY_RAISE, where a value leaves int64 or a list stands for an hfe tuple,
# may raise where pure returns, and the probes in REFUSED, whose bounds
# lie outside the draw domain, must raise ValueError on both. Neither
# kernel has an element-level function, so the `e_*` probes reach each
# operation and relation through the set-level function on one-element
# sets.
PROBES = {
    "e_union_1500": "union(k, (tuple(range(1500, 0, -1)),), (tuple(range(1600, 100, -1)),))",
    "e_inter_1500": "inter(k, (tuple(range(1500, 0, -1)),), (tuple(range(1600, 100, -1)),))",
    "gen_hfe_3000": "k.draw_plan(((0, 0),), 1, (100, 1, 1, 3000, 3000, 1, 1), 1, 0, 1)",
    "gen_hfs_3000": "k.draw_plan(((0, 0),), 1, (10**9, 3, 3, 2500, 3000, 1, 1), 2, 0, 1)",
    "u_union_short_b": "union(k, ((3, 1), (2,), (5,)), ((2,),))",
    "u_inter_short_b": "inter(k, ((3, 1), (2,)), ((2,),))",
    "u_rel_short_b": "[k.u_rel(c, ((3, 1), (2,), (5,)), ((4,),)) for c in range(6)]",
    "u_sot_short_b": "k.u_rel(6, ((3, 1), (2,), (5,)), ((4,),))",
    "u_union_list_hfe": "union(k, ([1],), ((1,),))",
    "u_rel_list_hfe": "k.u_rel(0, ([1],), ((1,),))",
    **EMPTY_HFE,
    "e_rel_m_wraps": "k.u_rel(2, ((2**62, 2**62),), ((1,),))",
    "e_rel_m_extremes": "k.u_rel(2, ((2**63 - 1,) * 40,), ((-2**63,) * 3,))",
    "gen_hfe_empty_range": "k.draw_plan(((0, 0),), 1, (100, 1, 1, 5, 1, 1, 1), 7, 0, 1)",
    # a trial's first output, its universe size, drawn from a range at and
    # past the ends of int64 and of the draw domain
    "randint_widest_range": "k.draw_plan((), 0, (100, 1, 2**63 - 1, 1, 1, 1, 1), 5, 0, 3)",
    "randint_full_int64": "k.draw_plan((), 0, (100, -2**63, 2**63 - 1, 1, 1, 1, 1), 5, 0, 3)",
    "randint_empty_range": "k.draw_plan((), 0, (100, -2**63 + 3, -2**63, 1, 1, 1, 1), 5, 0, 3)",
    "randint_past_2_63": "k.draw_plan((), 0, (100, 0, 2**63, 1, 1, 1, 1), 5, 0, 3)",
    "below_past_2_63": "k.draw_plan((), 0, (100, 0, 2**64 - 1, 1, 1, 1, 1), 5, 0, 3)",
    "e_compl_int64_edge": "compl(k, ((2**63 - 1, 0),), 2**63 - 1)",
    "e_compl_past_2_63": "compl(k, ((0,),), 2**63)",
    "e_compl_wraps": "compl(k, ((-1,),), 2**63 - 1)",
    "e_rel_degree_past_2_63": "k.u_rel(0, ((2**64,),), ((1,),))",
    # every law's plan at the config bounds: grid 10**9, universe 16,
    # cardinality 64, family 8
    "draw_plan_every_law_at_the_bounds": (
        "[k.draw_plan(*_law_plan(law), (10**9, 16, 16, 64, 64, 8, 8), 7, 0, 3) for law in _laws()]"
    ),
    # and on the widest grid, where a degree's draw spans up to 2**63 values
    "draw_plan_every_law_on_the_widest_grid": (
        "[k.draw_plan(*_law_plan(law), (2**63 - 1, 1, 4, 1, 6, 1, 5), 7, 0, 3) for law in _laws()]"
    ),
    # plans and arguments that no law has: moves, slots and terms out of
    # range, bounds outside the draw domain (cardinality 0, reversed ranges)
    **{f"draw_plan_{name}": f"k.draw_plan({call})" for name, call in {
        "unknown_move": "((9, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "slot_past_the_names": "((0, 5),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "negative_slot": "((0, -1),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "move_without_slots": "((2, 0), (3,)), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "choice_of_nothing": "((8,),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "term_underflow": "((6, 0, 0, (-1,)),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "unknown_term_operator": "((0, 1), (6, 0, 0, (1, -9)),), 2, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "fold_of_an_empty_family": "((1, 1), (6, 0, 0, (1, -4))), 2, (100, 1, 4, 1, 6, 0, 0), 1, 0, 1",
        "fold_of_a_set": "((0, 1), (6, 0, 0, (1, -5))), 2, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "empty_hfes_under_a_ladder": "((2, 0, 0, 1),), 2, (100, 1, 4, 0, 0, 1, 5), 1, 0, 1",
        "empty_hfes_under_a_mean_ladder": "((2, 2, 0, 1, 2),), 3, (100, 1, 4, 0, 0, 1, 5), 1, 0, 1",
        "reversed_bounds": "tuple((m, 0, 1, 2, 3) for m in (0, 1, 3, 4, 7, 2)), 4, (100, 4, 1, 9, 2, 3, 0), 5, 9, 1",
        "unknown_relation_code": "((2, 9, 0, 1),), 2, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "member_of_no_family": "((5, 0, 0, 1, 1),), 2, (100, 1, 4, 1, 6, 0, 0), 1, 0, 1",
        "index_past_2_64": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 2**64, 1",
        "negative_index": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, -1, 1",
        "grid_past_2_63": "((2, 0, 0, 1),), 2, (2**63, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "deep_choice": "__import__('functools').reduce(lambda p, _: ((8, p),), range(5000), ()), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "list_plan": "[(0, 0)], 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        # the chunk of trials first .. first + count - 1: empty, past the
        # 64-bit indices, and with a trial that raises
        "count_0": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 0",
        "negative_count": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, -1",
        "float_count": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1.0",
        "str_first": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, '0', 1",
        "bool_first": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, True, 1",
        "bool_count": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, True",
        "bool_width": "((0, 0),), True, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "negative_width": "((0, 0),), -1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "width_past_2_64": "((0, 0),), 2**70, (100, 1, 4, 1, 6, 1, 5), 1, 0, 1",
        "chunk_to_2_64": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 2**64 - 3, 3",
        "chunk_past_2_64": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 2**64 - 3, 4",
        "count_past_2_64": "((0, 0),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 2**70",
        "chunk_of_a_raising_plan": "((8, ((0, 0),), ((9, 0),)),), 1, (100, 1, 4, 1, 6, 1, 5), 1, 0, 40",
    }.items()},
}
REFUSED = {
    "gen_hfe_empty_range", "randint_full_int64", "randint_empty_range", "draw_plan_fold_of_an_empty_family",
    "draw_plan_empty_hfes_under_a_ladder", "draw_plan_empty_hfes_under_a_mean_ladder",
    "draw_plan_reversed_bounds", "draw_plan_member_of_no_family",
}
MAY_RAISE = {
    "u_rel_list_hfe", "e_compl_past_2_63", "e_compl_wraps", "e_rel_degree_past_2_63",
    "draw_plan_negative_slot", "draw_plan_deep_choice", "draw_plan_list_plan",
}

_PROBE = """
import importlib.util, sys
from hesitant._kernel import _pykernel as pure
spec = importlib.util.spec_from_file_location("hesitant._kernel._ckernel", sys.argv[1])
compiled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compiled)

from hesitant import law_registry as _laws
from hesitant.expressions import COMPL, INTER, UNION

def _law_plan(law):
    return law.plan, len(law.params)

scope = {
    "_laws": _laws,
    "_law_plan": _law_plan,
    "union": lambda k, A, B: k.term((0, 1, UNION), (A, B), 0),
    "inter": lambda k, A, B: k.term((0, 1, INTER), (A, B), 0),
    "compl": lambda k, A, one: k.term((0, COMPL), (A,), one),
}

def run(k):
    try:
        return "returned", eval(sys.argv[2], {**scope, "k": k})
    except Exception as exc:
        return "raised", type(exc).__name__

c, p = run(compiled), run(pure)
print("same" if c == p else "raised" if c[0] == "raised" else "differs", c[1] if c[0] == "raised" else "")
"""


@pytest.mark.parametrize("name", PROBES)
def test_boundary_probe(compiled, name):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, compiled.__file__, PROBES[name]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = proc.stdout.split()
    assert verdict[0] in (("same", "raised") if name in MAY_RAISE else ("same",)), verdict
    if name in REFUSED:
        assert verdict == ["same", "ValueError"]


@pytest.mark.parametrize("name", EMPTY_HFE)
def test_empty_hfe_raises_index_error(compiled, name):
    for k in (pure, compiled):
        with pytest.raises(IndexError):
            eval(EMPTY_HFE[name], {"k": k, "union": union, "inter": inter, "compl": compl})
