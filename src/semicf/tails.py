"""Tail values, certified error bounds, and the converging evaluator.

The tail x_{n,k} is the value of the depth-k continued fraction starting
after index n.  For every valid sequence its sign equals a_{n+1} and its
magnitude is at most 1.  With the shift identity

    p_{n+k}/q_{n+k} = (p_n + x_{n,k} p_{n-1}) / (q_n + x_{n,k} q_{n-1})

and the determinant identity it gives error_bound, the exact convergent gap
|x_{n,k}| / (q_n |q_n + x_{n,k} q_{n-1}|).  That grows with |x_{n,k}|, so
its supremum over all depths k, at x = a_{n+1}, is the uniform bound
1/(q_n g_n), where g_n = q_n + a_{n+1} q_{n-1} >= 1 is the gap of core._gap
and check's lemma1.  It is attained at k = 1 when b_{n+1} = 1, and in the
limit of a (-1, 2) tail, so no rule on q_n, q_{n-1} and a_{n+1} is tighter.

Let f_n = q_n g_n, so f_0 = 1, and q_{n+1} = (b_{n+1} - 1) q_n + g_n >= g_n.
If a_{n+2} = +1, then g_{n+1} = q_{n+1} + q_n >= g_n + q_n.  If
a_{n+2} = -1, the gap rule gives b_{n+1} >= 2, so q_{n+1} >= q_n + g_n and
g_{n+1} = (b_{n+1} - 2) q_n + g_n >= g_n.  Either way
f_{n+1} >= f_n + g_n^2 >= f_n + 1: the bound at n is at most 1/(n + 1) and
strictly decreases with n, for rational b too.  The all-minus-2 chain meets
1/(n + 1), so no faster rate holds for every valid sequence.

certify prints the uniform bound at n.  Its anchor m is the largest m < n
with a_{m+1} = +1, so g_m = q_m + q_{m-1} >= q_m, and as f grows the bound
1/f_n is at most 1/f_{m+1} <= 1/g_m^2 <= 1/q_m^2: at most the triangle bound
|p_n/q_n - p_m/q_m| + 1/q_m^2 through p_m/q_m.  Past m, a_{j+1} = -1 for
m < j < n, so g_j >= g_{j-1} there and q_n >= g_{n-1} >= g_m >= q_m; chained
over the anchors, q_n >= q_m for every anchor m <= n.

evaluate and certify validate the whole sequence first.  The per-index probes
(tail, shift_check, error_bound, uniform_step_bound) assume a valid sequence
and certify nothing on an invalid one: on 0; (+1, 2), (-1, 1/3) the uniform
bound at n = 1 is 1/2, but the next convergent is 3/2 away.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .core import (
    ConvergentState,
    RationalLike,
    SemiRegularCF,
    _gap,
    _index,
    _set,
    _states_through,
    iter_states,
    state_at,
    validate,
)
from .errors import (
    BudgetExhausted,
    DenominatorBelowOne,
    IdentityViolation,
    TietzeViolation,
    _show,
)

#: Default step budget for evaluate(): the bound at step n is at most
#: 1/(n + 1), so it certifies every eps >= 1/10001 on every valid sequence.
DEFAULT_MAX_STEPS = 10_000

PLUS_ANCHOR = "PlusAnchor"
ALL_MINUS_TAIL = "AllMinusTail"


class TailValue(NamedTuple):
    """Exact value of the depth-k tail starting after index n."""

    n: int
    k: int
    value: Fraction


class ErrorCertificate(NamedTuple):
    """An exact upper bound on |limit - p_n/q_n| over all deeper convergents."""

    n: int
    anchor: Optional[int]
    bound: Fraction

    regime = property(lambda c: ALL_MINUS_TAIL if c.anchor is None else PLUS_ANCHOR)


class EvalResult(NamedTuple):
    approximation: Fraction
    certified_error: Fraction
    steps_used: int

    # Only a finite end has error 0: every uniform bound is positive.
    exact = property(lambda r: r.certified_error == 0)


def _tail_pair(cf: SemiRegularCF, n: int, k: int) -> Tuple[int, int]:
    """x_{n,k} as an unreduced integer pair (r, s) with s > 0.

    cf keeps the sweep of its latest end n + k: entry j of it is
    x_{end-j-1, j+1}, extended back on demand, so the queries of one end
    share one sweep of the largest depth they ask for.  The end is checked
    when its sweep starts; cf is immutable, so a kept sweep's end stays valid.
    """
    if k < 1:
        raise ValueError("tail depth k must be >= 1")
    if n < 0:
        raise ValueError("tail start index n must be >= 0")
    end, memo = n + k, cf._sweep
    if memo[0] != end:
        memo = (_index(cf, end), [])
        _set(cf, "_sweep", memo)
    xs, terms = memo[1], cf.terms
    # Test the length read, since another thread may extend xs at any time.
    while (j := len(xs)) < k:
        m = end - j  # x_{m-1, j+1} = a_m / (b_m + x_{m, j}), with x_{m, 0} = 0
        r, s = xs[j - 1] if j else (0, 1)
        t = terms[m - 1]  # n < m <= end
        u, v = t.b.as_integer_ratio()
        den = u * s + v * r  # v s (b_m + x_{m, j})
        if den < v * s:
            raise DenominatorBelowOne(f"b_{m} + x_{m},{j} = {_show(Fraction(den, v * s))} < 1")
        # Write slot j rather than append, as core._states_through does.
        xs[j:j + 1] = [(t.a * v * s, den)]
    return xs[k - 1]


def tail(cf: SemiRegularCF, n: int, k: int) -> TailValue:
    """x_{n,k}, computed by backward recursion from x_{n+k-1,1} = a_{n+k}/b_{n+k}.

    Every intermediate denominator b_{n+j} + x_{n+j,.} is checked to be >= 1;
    DenominatorBelowOne is impossible for valid sequences.  Costs O(k), not
    O(n + k).
    """
    return TailValue(n, k, Fraction(*_tail_pair(cf, n, k)))


def shift_check(cf: SemiRegularCF, n: int, k: int) -> Fraction:
    """(p_n + x_{n,k} p_{n-1}) / (q_n + x_{n,k} q_{n-1}).

    Asserts exact equality with convergent(cf, n+k) on every call; cf's memo
    keeps the value of each end that passed, so a repeat builds no Fraction.
    """
    r, t = _tail_pair(cf, n, k)
    states = _states_through(cf, n + k)
    _, P_prev, P_cur, Q_prev, Q_cur, _, _ = states[n]
    _, _, deep_P, _, deep_Q, _, _ = states[n + k]
    num, den = t * P_cur + r * P_prev, t * Q_cur + r * Q_prev
    if num * deep_Q != den * deep_P:
        raise IdentityViolation(f"shift value {_show(Fraction(num, den))} != convergent "
                                f"{_show(Fraction(deep_P, deep_Q))} at n={n}, k={k}")
    if (value := cf._shifts.get(n + k)) is None:
        value = cf._shifts[n + k] = Fraction(num, den)
    return value


def error_bound(cf: SemiRegularCF, n: int, k: int) -> Fraction:
    """|x_{n,k}| / (q_n |q_n + x_{n,k} q_{n-1}|), the exact convergent gap.

    Asserts |p_{n+k}/q_{n+k} - p_n/q_n| == bound.
    """
    r, t = _tail_pair(cf, n, k)
    states = _states_through(cf, n + k)
    _, _, P_cur, Q_prev, Q_cur, scale, _ = states[n]
    _, _, deep_P, _, deep_Q, _, _ = states[n + k]
    bound = Fraction(abs(r) * scale * scale, Q_cur * abs(t * Q_cur + r * Q_prev))
    # |p_{n+k}/q_{n+k} - p_n/q_n| = gap / gap_den
    gap = abs(deep_P * Q_cur - P_cur * deep_Q)
    gap_den = abs(deep_Q * Q_cur)
    if gap * bound.denominator != bound.numerator * gap_den:
        raise IdentityViolation(f"convergent gap {_show(Fraction(gap, gap_den))} != "
                                f"bound {_show(bound)} at n={n}, k={k}")
    return bound


def _uniform_bound(s: ConvergentState, a_next: int) -> Tuple[int, int]:
    """The uniform bound at s as an integer pair (numerator, positive denominator)."""
    n, _, _, _, Q_cur, scale, _ = s
    d = _gap(s, a_next)  # scale * g_n
    if d < scale:
        raise IdentityViolation(
            f"uniform-bound denominator {_show(Fraction(d, scale))} < 1 at n={n} "
            "(invalid sequence?)"
        )
    return scale * scale, Q_cur * d


def uniform_step_bound(cf: SemiRegularCF, n: int) -> Fraction:
    """A bound on |p_{n+k}/q_{n+k} - p_n/q_n| valid for all k >= 1 at once.

    Equals 1/(q_n g_n) with g_n = q_n + a_{n+1} q_{n-1} >= 1, the supremum of
    error_bound(cf, n, k) over k, and is at most 1/(n + 1); see the module
    docstring.
    cf's memo keeps each checked bound, so a repeat builds no Fraction.
    """
    if (bound := cf._bounds.get(n)) is None:
        bound = cf._bounds[n] = Fraction(*_uniform_bound(state_at(cf, n), cf.a(n + 1)))
    return bound


def anchor_index(cf: SemiRegularCF, n: int) -> Optional[int]:
    """The largest m with 0 <= m < n and a_{m+1} = +1, if any."""
    for m in range(_index(cf, n) - 1, -1, -1):
        if cf.a(m + 1) == 1:
            return m
    return None


def _require_valid(cf: SemiRegularCF) -> None:
    """Raise TietzeViolation at validate's first violation of cf, if any."""
    v = validate(cf).first_violation
    if v is not None:
        raise TietzeViolation(v, cf.b(v.index))


def certify(cf: SemiRegularCF, n: int) -> ErrorCertificate:
    """The uniform bound at n, and n's anchor.  Validates cf before it checks n, so an
    invalid sequence is refused before a short one; walks to n keeping one state."""
    _require_valid(cf)
    _index(cf, n + 1)  # a certificate at n needs term n + 1; iter_states checks n >= 0
    for s_n in iter_states(cf, n):
        pass
    return ErrorCertificate(n, anchor_index(cf, n), Fraction(*_uniform_bound(s_n, cf.a(n + 1))))


def evaluate(
    cf: SemiRegularCF,
    eps: RationalLike,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> EvalResult:
    """Advance the recurrence until the uniform step bound certifies eps.

    Returns the first convergent whose bound over all deeper convergents is
    at most eps.  A finite sequence consumed in full yields its exact value
    with certified_error 0; an invalid cf raises TietzeViolation.  The bound
    at step n is at most 1/(n + 1) and strictly decreases, so the first step
    with a bound <= eps is at most ceil(1/eps) - 1; exceeding max_steps raises
    BudgetExhausted carrying the last bound, the smallest.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    _require_valid(cf)
    for s in iter_states(cf, min(len(cf), max_steps)):
        if s.n == len(cf):
            return EvalResult(s.value, Fraction(0), s.n)
        num, den = _uniform_bound(s, cf.a(s.n + 1))
        if num * eps.denominator <= eps.numerator * den:
            return EvalResult(s.value, Fraction(num, den), s.n)
    raise BudgetExhausted(max_steps, Fraction(num, den))
