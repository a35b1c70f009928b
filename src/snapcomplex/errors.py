"""Shared exception types."""

from __future__ import annotations


class SnapComplexError(Exception):
    """Base class for all library-specific errors."""


class ComplexTooLargeError(SnapComplexError):
    """Raised when a construction would exceed the configured simplex cap,
    or a budget bounded by it (``budget`` names which)."""

    def __init__(self, limit: int, budget: str = "simplex cap"):
        self.limit = limit
        self.budget = budget
        super().__init__(f"{budget} of {limit} exceeded")


class VerificationError(SnapComplexError):
    """A structural invariant that should always hold failed to verify.

    This always indicates an implementation bug (or a genuinely violated
    claim), never bad user input.
    """


class CollapseStalledError(VerificationError):
    """No free pair is available but simplices remain to be collapsed."""
