"""Exception types shared across the package.

An error with data keeps it in args as raised and reads it back through
properties, so copy, deepcopy and pickle rebuild it whole.
"""

from __future__ import annotations


def _show(x: object, form=str) -> str:
    """form(x), str(x) by default, for a message, or a stand-in where it raises ValueError."""
    try:
        return form(x)
    except ValueError:  # more digits than the int-to-str limit converts
        return "<a number past the int-to-str digit limit>"


class CFError(Exception):
    """Base class for all semicf errors."""


class TietzeViolation(CFError):
    """(violation, b): validate's first Violation of a sequence given to
    evaluate() or certify(), and b_n at its index."""

    violation = property(lambda e: e.args[0])

    def __str__(self) -> str:
        v, b = self.args
        return f"{v.reason} at index {v.index} (b_{v.index} = {_show(b)})"


class InsufficientTerms(CFError):
    """(message, available): an index past the `available` terms of a sequence."""

    available = property(lambda e: e.args[1])

    def __str__(self) -> str:
        return self.args[0]


class IdentityViolation(CFError):
    """An exact identity that must hold for valid sequences failed.

    Raised only when the library itself is inconsistent; seeing this on a
    validated sequence is a bug, not a data problem.
    """


class DenominatorBelowOne(CFError):
    """A backward-recursion denominator dropped below 1 (invalid sequence)."""


class ZeroDenominator(CFError):
    """(index): direct nested evaluation hit a zero denominator (invalid sequence)."""

    index = property(lambda e: e.args[0])

    def __str__(self) -> str:
        return f"zero denominator while folding at index {self.index}"


class BudgetExhausted(CFError):
    """(max_steps, best_bound): evaluate() ran out of steps before certifying eps."""

    max_steps = property(lambda e: e.args[0])
    best_bound = property(lambda e: e.args[1])

    def __str__(self) -> str:
        # Not str(best_bound): that raises ValueError past the int-to-str digit limit.
        return f"no certificate within {self.max_steps} steps; see best_bound"


class ParseError(CFError):
    """A document does not conform to the CF interchange format."""
