"""Exception types shared across the package."""


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
