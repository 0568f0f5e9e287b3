from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hesitant import DegreeError, format_degree, parse_degree, render_rational
from hesitant.degrees import SCALE, coerce_degree, format_grid, parse_grid


def test_parse_exact_decimals():
    assert parse_degree("0.45") == Fraction(45, 100)
    assert parse_degree("1") == Fraction(1)
    assert parse_degree("0.567") == Fraction(567, 1000)
    assert parse_degree("0") == Fraction(0)
    assert parse_degree("0.000000001") == Fraction(1, 10**9)


def test_parse_strips_whitespace_and_keeps_leading_zeros():
    assert parse_degree(" 0.5 ") == Fraction(1, 2)
    assert parse_degree("00.50") == Fraction(1, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "abc", "1.5", "-0.1", "0.1e2", "0.1234567891", ".5", "0..1", "1/2", "0.5 0.6"],
)
def test_parse_rejects_malformed_or_out_of_range(bad):
    with pytest.raises(DegreeError):
        parse_degree(bad)


@pytest.mark.parametrize("bad", ["١.٠", "٠.٥", "0.５", "１"])
def test_parse_rejects_non_ascii_digits(bad):
    with pytest.raises(DegreeError, match="malformed degree"):
        parse_degree(bad)


def test_parse_rejects_huge_digit_strings_as_out_of_range():
    with pytest.raises(DegreeError, match="outside"):
        parse_degree("9" * 5000)
    with pytest.raises(DegreeError, match="outside"):
        parse_degree("0" * 4999 + "2")
    assert parse_degree("0" * 5000 + ".5") == Fraction(1, 2)


def test_grid_parse_and_format():
    assert parse_grid("0.45") == 450_000_000
    assert parse_grid(" 1 ") == SCALE
    assert format_grid(450_000_000, SCALE) == "0.45"
    assert format_grid(6, 12) == "0.5"  # unreduced input
    assert format_grid(0, 7) == "0"
    with pytest.raises(DegreeError, match="1/3 has no exact decimal form"):
        format_grid(2, 6)


def test_parse_rejects_excess_precision_even_in_range():
    with pytest.raises(DegreeError):
        parse_degree("0.0000000001")  # ten digits


def test_coerce_rejects_floats_and_bools():
    with pytest.raises(DegreeError):
        coerce_degree(0.5)
    with pytest.raises(DegreeError):
        coerce_degree(True)
    with pytest.raises(DegreeError):
        coerce_degree(Fraction(3, 2))
    assert coerce_degree(1) == Fraction(1)
    assert coerce_degree(Fraction(1, 3)) == Fraction(1, 3)


def test_format_minimal_decimal():
    assert format_degree(Fraction(1, 2)) == "0.5"
    assert format_degree(Fraction(1)) == "1"
    assert format_degree(Fraction(0)) == "0"
    assert format_degree(Fraction(45, 100)) == "0.45"
    assert format_degree(Fraction(1, 10**9)) == "0.000000001"
    with pytest.raises(DegreeError):
        format_degree(Fraction(1, 3))


def test_render_rational_exact_and_approximate():
    assert render_rational(Fraction(9, 20)) == "9/20 = 0.45"
    assert render_rational(Fraction(8, 15)).startswith("8/15 ≈ 0.533")
    assert render_rational(Fraction(2)) == "2"


@given(st.integers(min_value=0, max_value=10**9))
def test_grid_round_trip(num):
    value = Fraction(num, 10**9)
    assert parse_degree(format_degree(value)) == value
    assert format_grid(num, SCALE) == format_degree(value)
    assert parse_grid(format_grid(num, SCALE)) == num
