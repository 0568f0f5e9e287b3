import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hesitant import (
    Family,
    HFS,
    SetOp,
    Universe,
    combine,
    family_fold,
    hfe,
    is_subfamily,
    make_hfs,
)
from hesitant.errors import UniverseMismatchError

from conftest import hfes


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe([])
    with pytest.raises(ValueError):
        Universe(["x", "x"])
    with pytest.raises(ValueError, match="^duplicate universe element 'a'$"):
        Universe(["c", "b", "a", "c", "b", "a"])
    uni = Universe(["x", "y"])
    assert list(uni) == ["x", "y"]
    assert "x" in uni and "z" not in uni


def test_make_hfs_totality():
    uni = Universe(["x", "y"])
    s = make_hfs(uni, {"x": ["0.6", "0.5", "0.3"], "y": ["0.5", "0.3", "0.2"]})
    assert s["x"] == hfe("0.6", "0.5", "0.3")
    with pytest.raises(ValueError, match="missing"):
        make_hfs(uni, {"x": ["0.6"]})
    with pytest.raises(ValueError, match="unknown"):
        make_hfs(uni, {"x": ["0.6"], "y": ["0.5"], "z": ["0.1"]})
    with pytest.raises(ValueError):
        make_hfs(uni, {"x": ["0.6"], "y": []})


def test_make_hfs_names_one_bad_key_in_a_short_message():
    """A key that is not an element id, of any type, and a huge universe
    with no memberships each give one short ValueError."""
    with pytest.raises(ValueError, match="^unknown element 1$"):
        HFS(["x"], {"x": ["0.5"], 1: ["0.2"]})
    with pytest.raises(ValueError, match="^unknown element None$"):
        HFS(["x", "y"], {"x": ["0.5"], "y": ["0.5"], None: ["0.2"], 2.5: ["0.1"]})
    with pytest.raises(ValueError, match="^missing membership for element 'y'$"):
        HFS(["x", "y", "z"], {"x": ["0.5"], 1: ["0.2"], (2, 3): ["0.1"]})
    with pytest.raises(ValueError) as info:
        HFS([f"element{i}" for i in range(5000)], {})
    assert str(info.value) == "missing membership for element 'element0'"
    with pytest.raises(ValueError) as info:
        HFS(["x"], {"x": ["0.5"], "y" * 5000: ["0.2"]})
    assert len(str(info.value)) < 80


def test_hfs_rows_match_their_hfes():
    """The constructor canonicalizes each membership row directly; HFE and
    raw-degree memberships give the same set."""
    rows = {"x": ["0.5", Fraction(1, 3), "1"], "y": [Fraction(2, 4), "0"], "z": [0, 1, "0.25"]}
    s = HFS(["x", "y", "z"], rows)
    assert s == HFS(["x", "y", "z"], {e: hfe(*v) for e, v in rows.items()})
    assert s.hfes == tuple(hfe(*rows[e]) for e in "xyz")
    assert s._den == 12
    assert s._grid == ((12, 6, 4), (6, 0), (12, 3, 0))


def _abc_on_x():
    uni = Universe(["x"])
    A = make_hfs(uni, {"x": ["0.1", "0.2", "0.3"]})
    B = make_hfs(uni, {"x": ["0.3", "0.4", "0.5"]})
    C = make_hfs(uni, {"x": ["0.3", "0.45", "0.5"]})
    return A, B, C


def test_pointwise_operations():
    A, B, _ = _abc_on_x()
    assert combine(SetOp.UNION, A, B)["x"] == hfe("0.5", "0.4", "0.3", "0.3")
    assert combine(SetOp.INTERSECTION, A | B, A)["x"] == hfe("0.3", "0.3", "0.3", "0.2", "0.1")
    doubled = A | A
    assert len(doubled["x"]) == 2 * len(A["x"])


def test_complement_pointwise():
    uni = Universe(["x", "y"])
    A = make_hfs(uni, {"x": ["0.4", "0.4"], "y": ["0.2", "0.25"]})
    assert (~A)["x"] == hfe("0.6", "0.6")
    assert (~A)["y"] == hfe("0.8", "0.75")
    assert ~~A == A
    boundary = make_hfs(Universe(["x"]), {"x": ["1"]})
    assert (~boundary)["x"] == hfe("0")


def test_universe_mismatch_rejected():
    A, _, _ = _abc_on_x()
    other = make_hfs(Universe(["y"]), {"y": ["0.5"]})
    with pytest.raises(UniverseMismatchError):
        A | other


def test_family_validation():
    A, B, _ = _abc_on_x()
    with pytest.raises(ValueError):
        Family([])
    with pytest.raises(ValueError):
        Family([("A", A), ("A", B)])
    other = make_hfs(Universe(["y"]), {"y": ["0.5"]})
    with pytest.raises(UniverseMismatchError):
        Family([("A", A), ("B", other)])



def test_family_refuses_a_member_that_is_not_an_hfs():
    A, _, _ = _abc_on_x()
    with pytest.raises(TypeError, match="^family member 'b' must be an HFS, not int$"):
        Family([("a", A), ("b", 3)])


@pytest.mark.parametrize("membership", ["10", "0.5", b"1"])
def test_a_membership_must_not_be_text(membership):
    """make_hfs(U, {"x": "10"}) was the membership {1, 0}."""
    uni = Universe(["x"])
    kind = type(membership).__name__
    for build in (HFS, make_hfs):
        with pytest.raises(TypeError, match=f"^membership of element 'x' must be a collection of degrees, not {kind}$"):
            build(uni, {"x": membership})


@pytest.mark.parametrize("elements", ["x1", b"x1"])
def test_a_universe_must_not_be_text(elements):
    """Universe("x1") was the universe of 'x' and '1'."""
    kind = type(elements).__name__
    with pytest.raises(TypeError, match=f"^universe elements must be a collection of element ids, not {kind}$"):
        Universe(elements)


def test_operators_refuse_a_foreign_operand():
    A, _, _ = _abc_on_x()
    for op, symbol in ((operator.or_, "|"), (operator.and_, "&")):
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: 'HFS' and 'int'$"):
            op(A, 3)
    for method in (A.union, A.intersection):
        with pytest.raises(TypeError, match="^operand must be an HFS, not HFE$"):
            method(hfe("0.5"))


def test_operators_call_the_methods_at_call_time(monkeypatch):
    """`|` and `&` look `union` and `intersection` up when they run, so a
    wrapper bound over a method also sees the operator."""
    A, B, _ = _abc_on_x()
    calls = []
    for name in ("union", "intersection"):
        method = getattr(HFS, name)
        monkeypatch.setattr(HFS, name, lambda a, b, method=method, name=name: calls.append(name) or method(a, b))
    assert A | B == combine(SetOp.UNION, A, B)
    assert A & B == combine(SetOp.INTERSECTION, A, B)
    assert calls == ["union", "union", "intersection", "intersection"]


def test_family_fold_reduces_to_binary():
    A, B, C = _abc_on_x()
    assert family_fold(SetOp.UNION, Family([("A", A)])) == A
    assert family_fold(SetOp.UNION, Family([("A", A), ("B", B)])) == (A | B)
    folded = family_fold(SetOp.INTERSECTION, Family([("A", A), ("B", B), ("C", C)]))
    assert folded == ((A & B) & C)
    assert folded == (A & (B & C))


def test_is_subfamily_uses_multiset_equality():
    uni = Universe(["x", "y"])
    A = make_hfs(uni, {"x": ["0.6", "0.5", "0.3"], "y": ["0.5", "0.3", "0.2"]})
    B = make_hfs(uni, {"x": ["0.9"], "y": ["0.1"]})
    A_permuted = make_hfs(uni, {"x": ["0.3", "0.6", "0.5"], "y": ["0.2", "0.5", "0.3"]})
    C = make_hfs(uni, {"x": ["0.3", "0.3", "0.6", "0.5"], "y": ["0.2", "0.5", "0.3"]})
    fam = Family([("A", A), ("B", B)])
    assert is_subfamily(Family([("Z", A_permuted)]), fam)
    assert not is_subfamily(Family([("Z", C)]), fam)
    assert is_subfamily(fam, fam)


def test_is_subfamily_counts_multiplicity():
    """Each member of the larger family matches at most one member of the
    smaller: [X, X] is not a subfamily of [X]."""
    X = make_hfs(Universe(["x"]), {"x": ["0.25", "0"]})
    once, twice = Family([("c", X)]), Family([("a", X), ("b", X)])
    assert not is_subfamily(twice, once)
    assert is_subfamily(once, twice)
    assert is_subfamily(twice, twice)


@given(st.data())
def test_family_fold_order_independent(data):
    uni = Universe(["x", "y"])
    draw_hfe = hfes(max_size=4)
    members = [
        (f"H{i}", HFS(uni, {"x": data.draw(draw_hfe), "y": data.draw(draw_hfe)}))
        for i in range(data.draw(st.integers(min_value=1, max_value=5)))
    ]
    fam = Family(members)
    shuffled = list(members)
    random.Random(data.draw(st.integers(0, 2**16))).shuffle(shuffled)
    fam2 = Family(shuffled)
    assert family_fold(SetOp.UNION, fam) == family_fold(SetOp.UNION, fam2)
    assert family_fold(SetOp.INTERSECTION, fam) == family_fold(SetOp.INTERSECTION, fam2)
