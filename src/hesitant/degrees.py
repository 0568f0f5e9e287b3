"""Exact membership degrees.

A degree is a rational number in [0, 1]. Degrees enter the system as finite
decimal strings with at most nine fractional digits and parse without
rounding, to an integer numerator over `SCALE` = 10**9 (`parse_grid`);
`format_grid` renders a numerator over any denominator back as its minimal
decimal. The public API hands out `fractions.Fraction` values, and accepts
them as well as ints, so non-decimal degrees such as 1/3 stay exact. Floats
are rejected everywhere: `float("0.1")` is not 1/10, and a single inexact
value would poison tie-sensitive verdicts such as mean equality.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DegreeError, shown

#: Maximum number of fractional digits accepted on input.
MAX_FRACTION_DIGITS = 9

#: The denominator of every numerator `parse_grid` returns.
SCALE = 10**MAX_FRACTION_DIGITS

# ASCII digits only: `\d` would also take other scripts' digits, which `int`
# then reads as the same values.
_DECIMAL = re.compile(r"([0-9]+)(?:\.([0-9]+))?")
# A membership list whose degrees all have a plain form ("0", "0.45", "1",
# "1.00"), joined with commas.
_PLAIN = rf"(?:0(?:\.[0-9]{{1,{MAX_FRACTION_DIGITS}}})?|1(?:\.0{{1,{MAX_FRACTION_DIGITS}}})?)"
_PLAIN_ROW = re.compile(f"{_PLAIN}(?:,{_PLAIN})*")


def parse_grid(text: str) -> int:
    """Parse a decimal string into its exact numerator over `SCALE`.

    "0.45" -> 450000000, "1" -> 10**9.  Raises DegreeError on malformed
    text, more than nine fractional digits, or a value outside [0, 1].
    """
    if not isinstance(text, str):
        raise DegreeError(f"degree must be a decimal string, got {type(text).__name__}")
    m = _DECIMAL.fullmatch(text.strip())
    if m is None:
        raise DegreeError(f"malformed degree {shown(text)}: expected a plain decimal like 0.45")
    whole, frac = m.groups("")
    if len(frac) > MAX_FRACTION_DIGITS:
        raise DegreeError(
            f"degree {shown(text)} has {len(frac)} fractional digits; at most "
            f"{MAX_FRACTION_DIGITS} are accepted"
        )
    # Past one significant whole digit the value exceeds 1, however long the
    # string; checking that first keeps `int` away from huge digit strings.
    whole = whole.lstrip("0")
    if len(whole) > 1 or (value := int(whole + frac.ljust(MAX_FRACTION_DIGITS, "0"))) > SCALE:
        raise DegreeError(f"degree {shown(text)} is outside [0, 1]")
    return value


def parse_grid_row(texts) -> list[int]:
    """`parse_grid` over one membership list, in list order.

    A list written only in the plain forms "0", "0.d" with one to nine
    digits, "1" and "1.0…0" (these cover all that `save_document` writes) is
    checked by one match over the joined strings and converted in one pass.
    Any other list goes through `parse_grid` degree by degree, so it gets the
    same values, and the error names the first bad degree.
    """
    try:
        joined = ",".join(texts)
    except TypeError:  # a non-string degree
        joined = ""
    # A degree that contains the separator itself would read as two degrees.
    if _PLAIN_ROW.fullmatch(joined) and joined.count(",") == len(texts) - 1:
        return [int(t[2:].ljust(MAX_FRACTION_DIGITS, "0")) if t[0] == "0" else SCALE for t in texts]
    return [parse_grid(t) for t in texts]


def parse_degree(text: str) -> Fraction:
    """Parse a decimal string into an exact degree.

    "0.45" -> 9/20, "1" -> 1.  Raises DegreeError on malformed text, more
    than nine fractional digits, or a value outside [0, 1].
    """
    return Fraction(parse_grid(text), SCALE)


def degree_ratio(value) -> tuple[int, int]:
    """A degree given as str, int, or Fraction, as (numerator, denominator)
    with a positive denominator; validates the range.

    Strings come back over `SCALE`, unreduced. Floats are refused on
    purpose — pass the decimal as a string instead.
    """
    if isinstance(value, str):
        return parse_grid(value), SCALE
    if isinstance(value, bool):
        raise DegreeError("degree must be a number, not a bool")
    if isinstance(value, float):
        raise DegreeError(
            f"float degrees are inexact; pass {value!r} as a string, e.g. '{value!r}'"
        )
    if isinstance(value, int):
        num, den = value, 1
    elif isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
    else:
        raise DegreeError(f"cannot use {type(value).__name__} as a degree")
    if not 0 <= num <= den:
        raise DegreeError(f"degree {value} is outside [0, 1]")
    return num, den


def coerce_degree(value) -> Fraction:
    """Accept a degree given as str, int, or Fraction; validate the range.

    Floats are refused on purpose — pass the decimal as a string instead.
    """
    num, den = degree_ratio(value)
    return value if isinstance(value, Fraction) else Fraction(num, den)


def format_grid(num: int, den: int) -> str:
    """Render the degree num/den as its minimal exact decimal ("0.45", "1",
    "0.125"); num/den need not be reduced.

    Only defined when the reduced denominator divides 10**9, which covers
    everything a document or the generator grid can produce.
    """
    scaled, rest = divmod(num * SCALE, den)
    if rest:
        raise DegreeError(
            f"{Fraction(num, den)} has no exact decimal form within {MAX_FRACTION_DIGITS} digits"
        )
    whole, frac = divmod(scaled, SCALE)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:09d}".rstrip("0")


def format_degree(value: Fraction) -> str:
    """Render a degree as its minimal exact decimal; see `format_grid`."""
    return format_grid(value.numerator, value.denominator)


def render_rational(value: Fraction, places: int = 4) -> str:
    """Exact fraction plus a decimal rendering, for human-readable traces.

    Terminating decimals print exactly ("9/20 = 0.45"); non-terminating ones
    print an approximation ("8/15 ≈ 0.5333").
    """
    if value.denominator == 1:
        return str(value.numerator)
    try:
        return f"{value.numerator}/{value.denominator} = {format_degree(value)}"
    except DegreeError:
        approx = float(value)
        return f"{value.numerator}/{value.denominator} ≈ {approx:.{places}f}"
