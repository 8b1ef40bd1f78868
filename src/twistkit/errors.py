"""Exception types shared across the toolkit."""

from __future__ import annotations


class TwistkitError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidGroupError(TwistkitError):
    """A Cayley table violates a group axiom (identity, Latin square, associativity)."""


class IdentityViolationError(TwistkitError):
    """A candidate 2-cochain fails the cocycle identity.

    Carries a witnessing triple of element indices.
    """

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.triple = triple


class ResourceCapError(TwistkitError):
    """An input exceeds the documented size guard for an operation."""


class DecompositionUnstableError(TwistkitError):
    """The k x k split of an algebra's center gave no integer-certified block
    dimensions after all retries."""


class IndeterminateHirschError(TwistkitError):
    """A quotient or wreath descriptor does not determine a Hirsch length."""


class VerificationError(TwistkitError):
    """A structural identity that must hold (axiom, isomorphism check) failed."""


class OracleInconsistencyError(TwistkitError):
    """An element oracle returned data violating the group axioms."""
