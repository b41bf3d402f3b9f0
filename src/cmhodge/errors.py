"""Exception types shared across the package."""

from __future__ import annotations


class CmhodgeError(Exception):
    """Base class for all errors raised by this package; ``witness``, where
    given, holds the elements or the point that show the failure."""

    def __init__(self, message: str, witness=None) -> None:
        super().__init__(message)
        self.witness = witness


class NotAGroup(CmhodgeError):
    """Multiplication table fails a group axiom; carries a witness tuple."""


class BadInvolution(CmhodgeError):
    """iota is not a central involution distinct from the identity."""


class NotASubgroup(CmhodgeError):
    pass


class IotaInSubgroup(CmhodgeError):
    """Conjugation would fix an embedding; the algebra would not be CM."""


class NotACMType(CmhodgeError):
    pass


class CapExceeded(CmhodgeError):
    """An enumeration would exceed the configured size cap."""


class NotClosed(CmhodgeError):
    """A set handed to the orbit partitioner is not translation-closed."""


class ParseError(CmhodgeError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(CmhodgeError):
    """An instance parsed but failed a structural validation; wraps the cause."""


class UnknownCatalogEntry(CmhodgeError):
    pass


class NoCentralInvolution(CmhodgeError):
    pass
