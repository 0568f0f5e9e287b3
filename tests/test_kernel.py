"""Pure and compiled kernels must agree operation-for-operation and share
bit-identical random streams."""

import itertools

import pytest
from hypothesis import given, strategies as st

from hesitant._kernel import _pykernel as pure
from hesitant._kernel import compiled

pytestmark = pytest.mark.skipif(
    compiled is None, reason="compiled kernel not built in this environment"
)

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


def test_streams_identical():
    a, b = pure.Stream(12345), compiled.Stream(12345)
    assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]
    a, b = pure.Stream(7), compiled.Stream(7)
    assert [a.below(1000) for _ in range(100)] == [b.below(1000) for _ in range(100)]
    a, b = pure.Stream(99), compiled.Stream(99)
    assert [a.randint(3, 9) for _ in range(100)] == [b.randint(3, 9) for _ in range(100)]


def test_generation_identical():
    for seed in (0, 1, 2**63, 2**64 - 1):
        for den in (1, 100, 10**9):
            for lo, hi in ((1, 1), (6, 6), (1, 6), (1, 64)):
                a, b = pure.Stream(seed), compiled.Stream(seed)
                for size in (1, 4, 16):
                    assert pure.gen_hfs(a, den, size, lo, hi) == compiled.gen_hfs(
                        b, den, size, lo, hi
                    )
                    assert pure.gen_hfe(a, den, lo, hi) == compiled.gen_hfe(b, den, lo, hi)
                    assert a.randint(1, 4) == b.randint(1, 4)
                assert a.state == b.state


def test_exhaustive_small_grid_equivalence():
    hfes = _all_small()
    for a, b in itertools.product(hfes, repeat=2):
        assert pure.e_union(a, b) == compiled.e_union(a, b)
        assert pure.e_inter(a, b) == compiled.e_inter(a, b)
        assert pure.e_sot(a, b) == compiled.e_sot(a, b)
        assert pure.is_subseq(a, b) == compiled.is_subseq(a, b)
        for code in range(6):
            assert pure.e_rel(code, a, b) == compiled.e_rel(code, a, b)
    for a in hfes:
        assert pure.e_compl(a, 2) == compiled.e_compl(a, 2)
        for q in range(1, len(a) + 1):
            assert pure.best_q(a, q) == compiled.best_q(a, q)


@given(int_hfes, int_hfes)
def test_randomized_equivalence(a, b):
    assert pure.e_union(a, b) == compiled.e_union(a, b)
    assert pure.e_inter(a, b) == compiled.e_inter(a, b)
    assert pure.e_compl(a, 10) == compiled.e_compl(a, 10)
    assert pure.e_sot(a, b) == compiled.e_sot(a, b)
    for code in range(6):
        assert pure.e_rel(code, a, b) == compiled.e_rel(code, a, b)


@given(st.lists(int_hfes, min_size=1, max_size=4), st.lists(int_hfes, min_size=1, max_size=4))
def test_set_level_equivalence(A, B):
    n = min(len(A), len(B))
    A, B = tuple(A[:n]), tuple(B[:n])
    assert pure.u_union(A, B) == compiled.u_union(A, B)
    assert pure.u_inter(A, B) == compiled.u_inter(A, B)
    assert pure.u_sot(A, B) == compiled.u_sot(A, B)
    for code in range(6):
        assert pure.u_rel(code, A, B) == compiled.u_rel(code, A, B)


def test_canon_and_errors():
    assert compiled.canon([3, 1, 2]) == (3, 2, 1) == pure.canon([3, 1, 2])
    with pytest.raises(ValueError):
        compiled.best_q((3, 2, 1), 0)
    with pytest.raises(ValueError):
        compiled.pointwise_leq((1, 2), (1,))
    with pytest.raises(ValueError):
        pure.e_rel(17, (1,), (1,))
    with pytest.raises(ValueError):
        compiled.e_rel(17, (1,), (1,))
