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

certify prints the uniform bound at n.  With an anchor m, the largest m < n
with a_{m+1} = +1, it is at most 1/q_m^2, and so at most the triangle bound
|p_n/q_n - p_m/q_m| + 1/q_m^2 through p_m/q_m.  Past the anchor a_j = -1 for
m + 1 < j <= n, and the gap rule gives b_j >= 2 wherever a_{j+1} = -1.
Let D_j = q_j - q_{j-1}.  If n = m + 1 and a_{n+1} = +1, then
q_n = b_n q_m + q_{m-1} >= q_m.  Otherwise b_{m+1} >= 2, so
D_{m+1} = (b_{m+1} - 1) q_m + q_{m-1} >= q_m, and on the minus stretch
D_j = D_{j-1} + (b_j - 2) q_{j-1} >= D_{j-1} wherever b_j >= 2: at every
j < n, and at n when a_{n+1} = -1.  So D_n >= q_m when a_{n+1} = -1, and
q_n >= q_m, as q_n >= D_n at n = m + 1 and q_n = b_n q_{n-1} - q_{n-2} >=
D_{n-1} past it.  The bound is at most 1/q_m^2 either way, and chained over
the anchors, q_n >= q_m for every anchor m <= n.

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

#: Default step budget for evaluate(): enough for a slowest-case bound
#: shrinking like 1/n to certify eps = 1e-3 with room to spare.
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
    """1 / (q_n |q_n + x_{n,k} q_{n-1}|), an exact bound on the convergent gap.

    Asserts |p_{n+k}/q_{n+k} - p_n/q_n| <= bound.
    """
    r, t = _tail_pair(cf, n, k)
    states = _states_through(cf, n + k)
    _, _, P_cur, Q_prev, Q_cur, scale, _ = states[n]
    _, _, deep_P, _, deep_Q, _, _ = states[n + k]
    bound = Fraction(t * scale * scale, Q_cur * abs(t * Q_cur + r * Q_prev))
    # |p_{n+k}/q_{n+k} - p_n/q_n| = gap / gap_den
    gap = abs(deep_P * Q_cur - P_cur * deep_Q)
    gap_den = abs(deep_Q * Q_cur)
    if gap * bound.denominator > bound.numerator * gap_den:
        raise IdentityViolation(f"convergent gap {_show(Fraction(gap, gap_den))} exceeds "
                                f"bound {_show(bound)} at n={n}, k={k}")
    return bound


def _uniform_bound(s: ConvergentState, a_next: int) -> Tuple[int, int]:
    """The uniform bound at s as an integer pair (numerator, positive denominator)."""
    n, _, _, Q_prev, Q_cur, scale, _ = s
    d = Q_cur if a_next == 1 else Q_cur - Q_prev  # scale * D_n
    if d < scale:
        raise IdentityViolation(
            f"uniform-bound denominator {_show(Fraction(d, scale))} < 1 at n={n} "
            "(invalid sequence?)"
        )
    return scale * scale, Q_cur * d


def uniform_step_bound(cf: SemiRegularCF, n: int) -> Fraction:
    """A bound on |p_{n+k}/q_{n+k} - p_n/q_n| valid for all k >= 1 at once.

    Equals 1/(q_n * D_n) with D_n = q_n when a_{n+1} = +1 and
    D_n = q_n - q_{n-1} otherwise; see the module docstring for why D_n >= 1.
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
    with certified_error 0; an invalid cf raises TietzeViolation.  Valid
    unbounded sequences converge without an effective rate, so a step budget
    is mandatory; exceeding it raises BudgetExhausted carrying the best bound.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    _require_valid(cf)
    best: Optional[Tuple[int, int]] = None
    for s in iter_states(cf, min(len(cf), max_steps)):
        if s.n == len(cf):
            return EvalResult(s.value, Fraction(0), s.n)
        num, den = _uniform_bound(s, cf.a(s.n + 1))
        if num * eps.denominator <= eps.numerator * den:
            return EvalResult(s.value, Fraction(num, den), s.n)
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
    raise BudgetExhausted(max_steps, Fraction(*best))
