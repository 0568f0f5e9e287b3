import operator
from fractions import Fraction

import pytest
from hypothesis import given

from hesitant import HFE, hfe, make_hfe

from conftest import hfes


def test_canonical_descending_order():
    assert hfe("0.3", "0.6", "0.5").degrees == hfe("0.6", "0.5", "0.3").degrees
    assert hfe("0.6", "0.6", "0.5").degrees == (
        Fraction(3, 5), Fraction(3, 5), Fraction(1, 2),
    )
    assert hfe("0.7").degrees == (Fraction(7, 10),)


def test_multiset_equality_counts_duplicates():
    a = hfe("0.6", "0.5", "0.3")
    b = hfe("0.3", "0.6", "0.5")
    c = hfe("0.3", "0.3", "0.6", "0.5")
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_empty_rejected():
    with pytest.raises(ValueError):
        HFE([])


def test_bounds():
    assert hfe("0.9", "0.2").bounds == (Fraction(1, 5), Fraction(9, 10))
    assert hfe("0.5").bounds == (Fraction(1, 2), Fraction(1, 2))
    assert hfe("0.8", "0.6", "0.5").bounds == (Fraction(1, 2), Fraction(4, 5))


def test_mean_exact():
    assert hfe("0.9", "0.2").mean == Fraction(11, 20)
    assert hfe("0.6", "0.6", "0.5").mean == Fraction(17, 30)
    assert hfe("0.5").mean == Fraction(1, 2)


def test_union_concatenates_and_filters():
    assert (hfe("0.1", "0.8") | hfe("0.1", "0.9")) == hfe("0.9", "0.8", "0.1", "0.1")
    assert (hfe("0.1", "0.2", "0.3") | hfe("0.3", "0.4", "0.5")) == hfe(
        "0.5", "0.4", "0.3", "0.3"
    )
    assert (hfe("0.5") | hfe("0.5")) == hfe("0.5", "0.5")


def test_intersection_concatenates_and_filters():
    assert (hfe("0.1", "0.8") & hfe("0.7", "0.9")) == hfe("0.8", "0.7", "0.1")
    assert (hfe("0.1", "0.2", "0.3") & hfe("0.3", "0.4", "0.5")) == hfe(
        "0.3", "0.3", "0.2", "0.1"
    )
    assert (hfe("0.8", "0.9") & hfe("0.6", "0.8", "0.9")) == hfe(
        "0.9", "0.9", "0.8", "0.8", "0.6"
    )


def test_complement_values():
    assert ~hfe("0.4", "0.4") == hfe("0.6", "0.6")
    assert ~hfe("0.1", "0.1", "0.41") == hfe("0.9", "0.9", "0.59")
    assert ~hfe("0") == hfe("1")


def test_best_subsequence_bounds_checked():
    w = hfe("0.9", "0.8", "0.7", "0.65", "0.6", "0.5")
    assert w.best(2) == hfe("0.9", "0.8")
    assert w.best(3) == hfe("0.9", "0.8", "0.7")
    assert hfe("0.4").best(1) == hfe("0.4")
    with pytest.raises(ValueError):
        w.best(0)
    with pytest.raises(ValueError):
        w.best(7)


@pytest.mark.parametrize("q", [True, 1.0, "1"])
def test_best_refuses_a_bool_or_non_int_q(q):
    """best(True) returned one degree, and best(1.0) failed inside slicing."""
    with pytest.raises(TypeError, match=f"^q must be an int, not {type(q).__name__}$"):
        hfe("0.9", "0.8").best(q)


@pytest.mark.parametrize("values", ["10", b"1"])
def test_text_is_not_a_collection_of_degrees(values):
    """HFE("10") was the membership {1, 0}: a str iterated as characters."""
    kind = type(values).__name__
    for build in (HFE, make_hfe):
        with pytest.raises(TypeError, match=f"^HFE values must be a collection of degrees, not {kind}$"):
            build(values)
    assert hfe("0.5") == HFE(["0.5"])  # varargs: each argument is one degree


def test_operators_refuse_a_foreign_operand():
    a = hfe("0.5", "0.2")
    for op, symbol in ((operator.or_, "|"), (operator.and_, "&")):
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: 'HFE' and 'int'$"):
            op(a, 3)
    for method in (a.union, a.intersection):
        with pytest.raises(TypeError, match="^operand must be an HFE, not int$"):
            method(3)


def test_float_degrees_rejected():
    with pytest.raises(Exception):
        hfe(0.5)


def test_str_uses_minimal_decimals():
    assert str(hfe("0.60", "0.5")) == "{0.6, 0.5}"


@given(hfes())
def test_canonicalization_idempotent(h):
    assert HFE(h.degrees) == h


@given(hfes())
def test_double_complement(h):
    assert ~~h == h


@given(hfes(), hfes())
def test_de_morgan_element_level(a, b):
    assert ~(a & b) == (~a | ~b)
    assert ~(a | b) == (~a & ~b)


@given(hfes(), hfes())
def test_commutativity(a, b):
    assert (a | b) == (b | a)
    assert (a & b) == (b & a)


@given(hfes(), hfes(), hfes(max_size=4))
def test_associativity(a, b, c):
    assert ((a | b) | c) == (a | (b | c))
    assert ((a & b) & c) == (a & (b & c))


@given(hfes(), hfes())
def test_results_never_empty_and_cover_concatenation(a, b):
    union, inter = a | b, a & b
    assert len(union) >= 1 and len(inter) >= 1
    # every degree of the concatenation lands in at least one result
    assert len(union) + len(inter) >= len(a) + len(b)


@given(hfes())
def test_mean_of_complement(h):
    assert (~h).mean == 1 - h.mean
