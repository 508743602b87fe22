"""Exception types shared across the package."""

from __future__ import annotations


class CFError(Exception):
    """Base class for all semicf errors."""


class TietzeViolation(CFError):
    """evaluate() or certify() was given a sequence that validate() rejects."""


class InsufficientTerms(CFError):
    """An operation needs more terms than the sequence provides."""


class IdentityViolation(CFError):
    """An exact identity that must hold for valid sequences failed.

    Raised only when the library itself is inconsistent; seeing this on a
    validated sequence is a bug, not a data problem.
    """


class DenominatorBelowOne(CFError):
    """A backward-recursion denominator dropped below 1 (invalid sequence)."""


class ZeroDenominator(CFError):
    """Direct nested evaluation hit a zero denominator (invalid sequence)."""

    def __init__(self, index: int):
        super().__init__(f"zero denominator while folding at index {index}")
        self.index = index


class BudgetExhausted(CFError):
    """evaluate() ran out of steps before certifying the requested accuracy."""

    def __init__(self, max_steps: int, best_bound):
        # Not str(best_bound): that raises ValueError past the int-to-str digit limit.
        super().__init__(f"no certificate within {max_steps} steps; see best_bound")
        self.max_steps = max_steps
        self.best_bound = best_bound


class ParseError(CFError):
    """A document does not conform to the CF interchange format."""
