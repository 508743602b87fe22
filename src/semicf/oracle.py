"""Brute-force nested evaluation, kept independent of the recurrence engine.

This module deliberately shares no code with core's convergent recurrences:
it folds the nested fraction directly so that agreement between the two
paths is evidence, not tautology.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import SemiRegularCF
from .errors import InsufficientTerms, ZeroDenominator, _show


def fold_eval(cf: SemiRegularCF, n: Optional[int] = None) -> Fraction:
    """Evaluate b0 + a1/(b1 + a2/(b2 + ... + an/bn)) by one backward pass.

    The inner value is held as an unreduced integer pair r/s: for b_i = u/v,
    a_i/(b_i + r/s) = a_i v s / (u s + v r).  A zero intermediate denominator
    is possible only for invalid sequences and is reported as ZeroDenominator
    rather than asserted away.
    """
    if n is None:
        n = len(cf)
    if not 0 <= n <= len(cf):
        raise InsufficientTerms(f"index {_show(n)} outside 0..{len(cf)}", len(cf))
    r, s = 0, 1
    for i, t in zip(range(n, 0, -1), reversed(cf.terms[:n])):
        u, v = t.b.as_integer_ratio()
        den = u * s + v * r
        if den == 0:
            raise ZeroDenominator(i)
        r, s = t.a * v * s, den
    b0 = cf.b0
    return Fraction(b0.numerator * s + b0.denominator * r, b0.denominator * s)
