"""Tail values, certified error bounds, and the converging evaluator.

The tail x_{n,k} is the value of the depth-k continued fraction starting
after index n.  For every valid sequence its sign equals a_{n+1} and its
magnitude is at most 1, which combined with the shift identity

    p_{n+k}/q_{n+k} = (p_n + x_{n,k} p_{n-1}) / (q_n + x_{n,k} q_{n-1})

gives the per-step error bound 1/(q_n |q_n + x_{n,k} q_{n-1}|).

The uniform bound used by the evaluator is derived from that by replacing
x_{n,k} with its worst case over all depths k: when a_{n+1} = +1 the tail is
positive, so the denominator exceeds q_n and 1/q_n^2 works; when
a_{n+1} = -1 the tail lies in [-1, 0), so the denominator is at least
q_n - q_{n-1}, which is itself at least 1 because q_n + a_{n+1} q_{n-1} >= 1
holds for every valid sequence.  Either way the bound is valid for all
deeper convergents simultaneously and needs only one term of lookahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .core import (
    ConvergentState,
    RationalLike,
    SemiRegularCF,
    convergent,
    iter_states,
    state_at,
)
from .errors import (
    BudgetExhausted,
    DenominatorBelowOne,
    IdentityViolation,
    InsufficientTerms,
)

#: Default step budget for evaluate(): enough for a slowest-case bound
#: shrinking like 1/n to certify eps = 1e-3 with room to spare.
DEFAULT_MAX_STEPS = 10_000

PLUS_ANCHOR = "PlusAnchor"
ALL_MINUS_TAIL = "AllMinusTail"


@dataclass(frozen=True)
class TailValue:
    """Exact value of the depth-k tail starting after index n."""

    n: int
    k: int
    value: Fraction


@dataclass(frozen=True)
class ErrorCertificate:
    """An exact upper bound on |limit - p_n/q_n| over all deeper convergents."""

    n: int
    anchor: Optional[int]
    bound: Fraction
    regime: str


@dataclass(frozen=True)
class EvalResult:
    approximation: Fraction
    certified_error: Fraction
    steps_used: int
    exact: bool


def _tail_sweep(cf: SemiRegularCF, end: int, k: int) -> List[Fraction]:
    """The tails that end at term `end`, through depth k: entry j is x_{end-j-1, j+1}.

    cf keeps the sweep of its latest `end`, extended back on demand, so the
    queries of one end share one sweep of the largest depth they ask for.
    """
    memo = cf._sweep
    if memo is None or memo[0] != end:
        memo = (end, [])
        object.__setattr__(cf, "_sweep", memo)
    xs = memo[1]
    while len(xs) < k:
        j = len(xs)
        m = end - j  # x_{m-1, j+1} = a_m / (b_m + x_{m, j}), with x_{m, 0} = 0
        den = cf.b(m) + (xs[j - 1] if j else 0)
        if den < 1:
            raise DenominatorBelowOne(f"b_{m} + x_{m},{j} = {den} < 1")
        # Write slot j rather than append, as core._states_through does.
        xs[j:j + 1] = [cf.a(m) / den]
    return xs


def tail(cf: SemiRegularCF, n: int, k: int) -> TailValue:
    """x_{n,k}, computed by backward recursion from x_{n+k-1,1} = a_{n+k}/b_{n+k}.

    Every intermediate denominator b_{n+j} + x_{n+j,.} is checked to be >= 1;
    DenominatorBelowOne is impossible for valid sequences.  Costs O(k), not
    O(n + k).
    """
    if k < 1:
        raise ValueError("tail depth k must be >= 1")
    if n < 0:
        raise ValueError("tail start index n must be >= 0")
    if n + k > len(cf):
        raise InsufficientTerms(f"requested {n + k} of {len(cf)} terms")
    return TailValue(n, k, _tail_sweep(cf, n + k, k)[k - 1])


def shift_check(cf: SemiRegularCF, n: int, k: int) -> Fraction:
    """(p_n + x_{n,k} p_{n-1}) / (q_n + x_{n,k} q_{n-1}).

    Asserts exact equality with convergent(cf, n+k).
    """
    x = tail(cf, n, k).value
    s = state_at(cf, n)
    value = (s.p_cur + x * s.p_prev) / (s.q_cur + x * s.q_prev)
    deep = convergent(cf, n + k)
    if value != deep:
        raise IdentityViolation(
            f"shift value {value} != convergent {deep} at n={n}, k={k}"
        )
    return value


def error_bound(cf: SemiRegularCF, n: int, k: int) -> Fraction:
    """1 / (q_n |q_n + x_{n,k} q_{n-1}|), an exact bound on the convergent gap.

    Asserts |p_{n+k}/q_{n+k} - p_n/q_n| <= bound.
    """
    x = tail(cf, n, k).value
    s = state_at(cf, n)
    den = s.q_cur + x * s.q_prev
    bound = 1 / (s.q_cur * abs(den))
    actual = abs(convergent(cf, n + k) - s.value)
    if actual > bound:
        raise IdentityViolation(
            f"convergent gap {actual} exceeds bound {bound} at n={n}, k={k}"
        )
    return bound


def _uniform_bound(s: ConvergentState, a_next: int) -> Fraction:
    d = s.q_cur if a_next == 1 else s.q_cur - s.q_prev
    if d < 1:
        raise IdentityViolation(
            f"uniform-bound denominator {d} < 1 at n={s.n} (invalid sequence?)"
        )
    return 1 / (s.q_cur * d)


def uniform_step_bound(cf: SemiRegularCF, n: int) -> Fraction:
    """A bound on |p_{n+k}/q_{n+k} - p_n/q_n| valid for all k >= 1 at once.

    Equals 1/(q_n * D_n) with D_n = q_n when a_{n+1} = +1 and
    D_n = q_n - q_{n-1} otherwise; see the module docstring for why D_n >= 1.
    """
    a_next = cf.a(n + 1)
    return _uniform_bound(state_at(cf, n), a_next)


def anchor_index(cf: SemiRegularCF, n: int) -> Optional[int]:
    """The largest m with 0 <= m < n and a_{m+1} = +1, if any."""
    if n > len(cf):
        raise InsufficientTerms(f"requested {n} of {len(cf)} terms")
    for m in range(n - 1, -1, -1):
        if cf.a(m + 1) == 1:
            return m
    return None


def certify(cf: SemiRegularCF, n: int) -> ErrorCertificate:
    """An exact certificate on the distance from p_n/q_n to every deeper convergent.

    With an anchor m < n whose next numerator is +1, the triangle inequality
    through p_m/q_m gives |p_n/q_n - p_m/q_m| + 1/q_m^2 (the second leg uses
    that all tails past the anchor are positive).  The coarser 2/q_m^2 bound
    is asserted whenever the first leg is itself at most 1/q_m^2.  Without an
    anchor the uniform one-step bound applies directly.
    """
    if n + 1 > len(cf):
        raise InsufficientTerms(f"certify at n={n} needs {n + 1} terms")
    m = anchor_index(cf, n)
    if m is None:
        return ErrorCertificate(n, None, uniform_step_bound(cf, n), ALL_MINUS_TAIL)
    s_m = state_at(cf, m)
    leg = abs(convergent(cf, n) - s_m.value)
    second = 1 / (s_m.q_cur * s_m.q_cur)
    bound = leg + second
    if leg <= second and bound > 2 * second:
        raise IdentityViolation(
            f"certificate {bound} exceeds 2/q_m^2 = {2 * second} at n={n}, m={m}"
        )
    return ErrorCertificate(n, m, bound, PLUS_ANCHOR)


def evaluate(
    cf: SemiRegularCF,
    eps: RationalLike,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> EvalResult:
    """Advance the recurrence until the uniform step bound certifies eps.

    Returns the first convergent whose bound over all deeper convergents is
    at most eps.  A finite sequence consumed in full yields its exact value
    with certified_error 0.  Convergence is guaranteed for valid unbounded
    sequences but without an effective rate, so a step budget is mandatory;
    exceeding it raises BudgetExhausted carrying the best bound seen.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    best: Optional[Fraction] = None
    for s in iter_states(cf, min(len(cf), max_steps), checked=True):
        if s.n == len(cf):
            return EvalResult(s.value, Fraction(0), s.n, True)
        bound = _uniform_bound(s, cf.a(s.n + 1))
        if bound <= eps:
            return EvalResult(s.value, bound, s.n, False)
        if best is None or bound < best:
            best = bound
    raise BudgetExhausted(max_steps, best)
