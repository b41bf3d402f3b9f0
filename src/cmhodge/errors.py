"""Exception types shared across the package."""

from __future__ import annotations


class CmhodgeError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(CmhodgeError):
    """Multiplication table fails a group axiom; carries a witness tuple."""

    def __init__(self, message: str, witness: tuple | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class BadInvolution(CmhodgeError):
    """iota is not a central involution distinct from the identity."""


class NotASubgroup(CmhodgeError):
    def __init__(self, message: str, witness: tuple | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class IotaInSubgroup(CmhodgeError):
    """Conjugation would fix an embedding; the algebra would not be CM."""


class NotACMType(CmhodgeError):
    def __init__(self, message: str, witness: int | None = None) -> None:
        super().__init__(message)
        self.witness = witness


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
