"""Shared exception types, and the simplex cap that the size errors report."""

from __future__ import annotations

import os

# A build retains about 210 B per stored simplex on 2,1,1,1 and
# 1,1,1,1,1 and about 240 B on 1,1,1,1,1,1, and takes 10 to 20 µs for
# each (tracemalloc and wall time, Python 3.11), so the default cap
# bounds a complex at about 0.48 GB and 40 s.
DEFAULT_SIMPLEX_CAP = 2_000_000
CAP_ENV_VAR = "SNAPCOMPLEX_MAX_SIMPLICES"


def simplex_cap(override: int | None = None) -> int:
    """Resolve the stored-simplex budget (argument, else env var, else
    default); a negative budget is a :class:`ValueError`."""
    cap, source = override, "the simplex cap"
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return DEFAULT_SIMPLEX_CAP
        try:
            cap, source = int(env), CAP_ENV_VAR
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"{source} must be nonnegative, got {cap}")
    return cap


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
