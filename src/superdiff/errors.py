"""Shared exception types.

Every exception raised on purpose by this package derives from
SuperdiffError, so callers can catch the whole family at once.  The CLI
maps each subclass to a distinct exit code.
"""

from __future__ import annotations


class SuperdiffError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SuperdiffError):
    """Mismatched numbers of even/odd coordinates or external generators."""


class ParityError(SuperdiffError):
    """An element has the wrong parity for the requested operation."""


class DomainError(SuperdiffError):
    """Input lies outside the mathematical domain of an operation.

    Examples: exponentiating a field whose filtration degree is too low,
    taking the logarithm of a substitution that is not unipotent.
    """


class InvertibilityError(SuperdiffError):
    """Raised when an operation needs an inverse that is not certified."""


class LimitError(SuperdiffError):
    """A result would pass an explicit size limit of the package.

    An exponent of an even coordinate above 2**31 - 1, in an input to a
    product, derivative or substitution or in its result, is one; a
    section basis of more than 2**16 coefficients is another, and an x,
    th or t index above 2**20 in a text a third (the CLI exits 6).
    """


class ParseError(SuperdiffError):
    """Syntax error in the text format.

    Carries the byte offset of the offending token, the set of token
    kinds that would have been accepted there, and a human message.
    """

    def __init__(self, offset: int, expected: tuple[str, ...], message: str):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset
        self.expected = expected
        self.message = message
