"""Exception types shared across the package, and how messages quote input."""

import reprlib

_REPR = reprlib.Repr()
_REPR.maxlevel = 2
_REPR.maxstring = _REPR.maxother = 40


def shown(value) -> str:
    """The repr of a value that came from outside the program, cut to at
    most 60 characters so that an error message stays short whatever the
    input (reprlib also stops at the second level of nesting)."""
    text = _REPR.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def collection(value, name: str, items: str):
    """`value`, which must be a collection of `items`: a str or bytes, which
    would iterate as its characters, is a TypeError that names it."""
    if isinstance(value, (str, bytes)):
        raise TypeError(f"{name} must be a collection of {items}, not {type(value).__name__}")
    return value


def require(cls: type, what: str, **args) -> None:
    """Raise a TypeError naming the first keyword argument that is not a
    `cls`, which `what` names with its article. Entry points call it only
    once reading their arguments has failed, so that a well-typed call
    checks no types; the TypeError replaces that failure."""
    for name, value in args.items():
        if not isinstance(value, cls):
            raise TypeError(f"{name} must be {what}, not {type(value).__name__}") from None


class HesitantError(Exception):
    """Base class for all errors raised by this package."""


class DegreeError(HesitantError, ValueError):
    """A membership degree is malformed, out of [0, 1], or too precise."""


class UniverseMismatchError(HesitantError, ValueError):
    """Two objects defined over different universes were combined."""


class DocumentError(HesitantError, ValueError):
    """A document failed schema validation; the message carries the path."""


class UnknownLawError(HesitantError, KeyError):
    """A law id is not present in the registry."""

    # KeyError.__str__ would quote the message as if it were the missing key.
    __str__ = Exception.__str__
