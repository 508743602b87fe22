"""Semi-regular continued fractions: terms, validation, convergent recurrences.

A semi-regular continued fraction is b0 + a1/(b1 + a2/(b2 + ...)) with each
partial numerator a_n in {-1, +1} and each partial denominator b_n >= 1,
subject to the gap condition b_n + a_{n+1} >= 1 (so a minus numerator may
only follow a denominator of at least 2).  Sequences satisfying these
conditions are called Tietze-valid here; every convergent p_n/q_n of such a
sequence is well defined and the sequence of convergents converges.

All arithmetic is exact.  The recurrence runs on plain ints with no gcd: a
ConvergentState holds p_{n-1}, p_n, q_{n-1}, q_n times one common scale, the
product of the denominators of b0, b_1, ..., b_n.  Values cross the API as
reduced `fractions.Fraction`s, so equality of results is canonical-form
equality.  All types are immutable; operations return new values.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from .errors import IdentityViolation, InsufficientTerms

RationalLike = Union[int, str, Fraction]

#: Violation reasons reported by validate().
B_TOO_SMALL = "BTooSmall"
GAP_VIOLATION = "GapViolation"


@dataclass(frozen=True)
class Term:
    """One partial fraction: a numerator sign and a positive denominator.

    The denominator is *not* required to be >= 1 at construction time so that
    invalid sequences remain representable (validation reports them as data).
    """

    a: int
    b: Fraction

    def __post_init__(self) -> None:
        if self.a is True or self.a is False or self.a not in (1, -1):
            raise ValueError(f"numerator sign must be +1 or -1, got {self.a!r}")
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b <= 0:
            raise ValueError(f"partial denominator must be positive, got {self.b}")


class PeriodicTerms(Sequence):
    """The first `length` terms of an endlessly repeated period, unrolled lazily.

    Item i (0-based) is period[i % len(period)].  Immutable; compares equal
    to, and hashes like, the tuple of the same terms (hashing builds that
    tuple, so it costs O(length)).
    """

    # A plain class rather than a dataclass: every CLI process imports this
    # module, and the dataclass decorator would cost more than the class.
    __slots__ = ("period", "length")

    def __init__(self, period: Tuple[Term, ...], length: int) -> None:
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"PeriodicTerms(period={self.period!r}, length={self.length!r})"

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        p = len(self.period)
        if isinstance(i, slice):
            return tuple(self.period[j % p] for j in range(self.length)[i])
        return self.period[range(self.length)[i] % p]

    def __iter__(self) -> Iterator[Term]:
        return itertools.islice(itertools.cycle(self.period), self.length)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PeriodicTerms):
            # Sequences with periods p and q that agree on their first p + q
            # terms agree everywhere (Fine and Wilf).
            k = min(self.length, len(self.period) + len(other.period))
            return self.length == other.length and self[:k] == other[:k]
        if isinstance(other, tuple):
            return self.length == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class SemiRegularCF:
    """A finite sequence b0; (a1, b1), (a2, b2), ... with 1-based term indices.

    `terms` is a tuple, or a PeriodicTerms for sequences built by periodic().
    """

    b0: Fraction
    terms: Sequence = ()
    # A memo freed with the sequence: _states[k] is the recurrence window after
    # terms 1..k, and _sweep the latest tail sweep (end, xs), kept by tails.
    _states: List[ConvergentState] = field(init=False, compare=False, repr=False)
    _sweep: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "b0", Fraction(self.b0))
        if not isinstance(self.terms, PeriodicTerms):
            object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "_states", [init_state(self.b0)])

    @classmethod
    def from_pairs(
        cls, b0: RationalLike, pairs: Iterable[Tuple[int, RationalLike]]
    ) -> "SemiRegularCF":
        return cls(Fraction(b0), tuple(Term(a, Fraction(b)) for a, b in pairs))

    @classmethod
    def periodic(
        cls,
        b0: RationalLike,
        pairs: Iterable[Tuple[int, RationalLike]],
        length: int,
    ) -> "SemiRegularCF":
        """The first `length` terms of the repeated period; term n is
        pairs[(n - 1) % len(pairs)].  Nothing is unrolled up front."""
        period = tuple(Term(a, Fraction(b)) for a, b in pairs)
        if not period:
            raise ValueError("periodic continuation needs a nonempty period")
        if length < 0:
            raise ValueError("length must be nonnegative")
        return cls(Fraction(b0), PeriodicTerms(period, length))

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, n: int) -> Term:
        """The n-th term, 1-based."""
        if not 1 <= n <= len(self.terms):
            raise InsufficientTerms(f"term index {n} outside 1..{len(self.terms)}")
        return self.terms[n - 1]

    def a(self, n: int) -> int:
        return self.term(n).a

    def b(self, n: int) -> Fraction:
        return self.term(n).b

    def prefix(self, n: int) -> "SemiRegularCF":
        """The sub-sequence keeping only terms 1..n."""
        if not 0 <= n <= len(self.terms):
            raise InsufficientTerms(f"prefix length {n} outside 0..{len(self.terms)}")
        return SemiRegularCF(self.b0, self.terms[:n])


@dataclass(frozen=True)
class Violation:
    index: int
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    first_violation: Optional[Violation] = None


def validate(cf: SemiRegularCF, upto: Optional[int] = None) -> ValidationReport:
    """Check b_n >= 1 and b_n + a_{n+1} >= 1 through index `upto`.

    The gap condition is checked wherever the successor term exists in the
    full sequence; the final available term is exempt.  Violations are data,
    not errors.
    """
    available = len(cf)
    if upto is None:
        upto = available
    if upto > available:
        raise InsufficientTerms(f"requested {upto} of {available} terms")
    scan = upto
    if isinstance(cf.terms, PeriodicTerms):
        # With period p, a violation at n > p repeats at n - p, so indices
        # 1..p (the gap at p reads a_{p+1} = a_1) decide the whole sequence.
        scan = min(upto, len(cf.terms.period))
    for n in range(1, scan + 1):
        reason = _tietze_violation(cf.b(n), cf.a(n + 1) if n < available else None)
        if reason:
            return ValidationReport(False, Violation(n, reason))
    return ValidationReport(True, None)


def _tietze_violation(b: Fraction, a_next: Optional[int]) -> Optional[str]:
    """The condition a term with denominator b breaks, if any: b >= 1, then the
    gap b + a_next >= 1 (a_next is None for the last term, which is exempt)."""
    if b < 1:
        return B_TOO_SMALL
    if a_next is not None and b + a_next < 1:
        return GAP_VIOLATION
    return None


@dataclass(frozen=True, slots=True)
class ConvergentState:
    """Sliding window of the convergent recurrence, held as integers.

    (P_prev, P_cur, Q_prev, Q_cur) are scale * (p_{n-1}, p_n, q_{n-1}, q_n)
    with scale > 0, and det_product is the running product of the numerator
    signs a_1..a_n (+1 at n = 0).  The Fraction fields are built when read.
    """

    n: int
    P_prev: int
    P_cur: int
    Q_prev: int
    Q_cur: int
    scale: int
    det_product: int = 1

    p_prev = property(lambda s: Fraction(s.P_prev, s.scale))
    p_cur = property(lambda s: Fraction(s.P_cur, s.scale))
    q_prev = property(lambda s: Fraction(s.Q_prev, s.scale))
    q_cur = property(lambda s: Fraction(s.Q_cur, s.scale))

    @property
    def value(self) -> Fraction:
        """The convergent p_n / q_n."""
        return Fraction(self.P_cur, self.Q_cur)


def init_state(b0: RationalLike) -> ConvergentState:
    """The n = 0 window: p_{-1}=1, p_0=b0, q_{-1}=0, q_0=1."""
    u, v = Fraction(b0).as_integer_ratio()
    return ConvergentState(0, v, u, 0, v, v)


def step(s: ConvergentState, t: Term) -> ConvergentState:
    """Advance the window by one term: p_new = b*p_n + a*p_{n-1}, same for q.

    For b = u/v the new window is (v*P_cur, u*P_cur + a*v*P_prev) over
    scale*v, the same for Q.  The term is not checked; evaluate checks terms.
    """
    u, v = t.b.numerator, t.b.denominator
    if v == 1:  # the new window shares P_cur and Q_cur with s instead of copying them
        return ConvergentState(s.n + 1, s.P_cur, u * s.P_cur + t.a * s.P_prev,
                               s.Q_cur, u * s.Q_cur + t.a * s.Q_prev,
                               s.scale, s.det_product * t.a)
    av = t.a * v
    return ConvergentState(s.n + 1, v * s.P_cur, u * s.P_cur + av * s.P_prev,
                           v * s.Q_cur, u * s.Q_cur + av * s.Q_prev,
                           s.scale * v, s.det_product * t.a)


def iter_states(cf: SemiRegularCF, upto: Optional[int] = None) -> Iterator[ConvergentState]:
    """Yield the states for n = 0 .. upto (default: the whole sequence)."""
    if upto is None:
        upto = len(cf)
    if upto > len(cf):
        raise InsufficientTerms(f"requested {upto} of {len(cf)} terms")
    s = init_state(cf.b0)
    yield s
    for n in range(1, upto + 1):
        s = step(s, cf.term(n))
        yield s


def _states_through(cf: SemiRegularCF, n: int) -> List[ConvergentState]:
    """cf's memoized states, extended on demand through index n <= len(cf)."""
    states = cf._states
    # Test the state read, since another thread may append at any time, and
    # write slot s.n + 1 so that a racing thread stores an equal state there.
    while (s := states[-1]).n < n:
        states[s.n + 1:s.n + 2] = [step(s, cf.term(s.n + 1))]
    return states


def state_at(cf: SemiRegularCF, n: int) -> ConvergentState:
    """The recurrence window after consuming terms 1..n; costs O(n), not O(len(cf))."""
    if n < 0 or n > len(cf):
        raise InsufficientTerms(f"state index {n} outside 0..{len(cf)}")
    return _states_through(cf, n)[n]


def convergent(cf: SemiRegularCF, n: int) -> Fraction:
    """The convergent p_n / q_n, equal to the depth-n truncation of cf."""
    return state_at(cf, n).value


def determinant_check(s: ConvergentState) -> int:
    """Return (-1)^{n-1} a_1...a_n and verify the cross-product identity.

    p_n q_{n-1} - p_{n-1} q_n equals that sign exactly for every valid
    sequence; a mismatch means the recurrence was driven with inconsistent
    data and raises IdentityViolation.
    """
    if s.n < 1:
        raise ValueError("determinant identity needs n >= 1")
    expected = s.det_product if s.n % 2 == 1 else -s.det_product
    actual = s.P_cur * s.Q_prev - s.P_prev * s.Q_cur  # scale**2 times the identity
    if actual != expected * s.scale * s.scale:
        raise IdentityViolation(
            f"p_n q_(n-1) - p_(n-1) q_n = {Fraction(actual, s.scale * s.scale)}, "
            f"expected {expected} at n={s.n}"
        )
    return expected


def series_partial_sum(cf: SemiRegularCF, n: int) -> Fraction:
    """b0 plus the telescoped series of convergent differences through n.

    Each term is (-1)^{k-1} a_1...a_k / (q_{k-1} q_k); the partial sum equals
    convergent(cf, n) exactly.  The sum runs over integer pairs, added as
    Knuth (TAOCP 4.5.1) adds fractions: two gcds with the denominators' gcd.
    """
    if n > len(cf):
        raise InsufficientTerms(f"requested {n} of {len(cf)} terms")
    states = _states_through(cf, n)
    num, den = cf.b0.numerator, cf.b0.denominator
    for k in range(1, n + 1):
        t_num, t_den = _series_pair(states[k])
        g = gcd(den, t_den)
        num = num * (t_den // g) + t_num * (den // g)
        g2 = gcd(num, g)
        num, den = num // g2, den // g * (t_den // g2)
    return Fraction(num, den)


def _series_pair(s: ConvergentState) -> Tuple[int, int]:
    sign = s.det_product if s.n % 2 == 1 else -s.det_product
    return sign * s.scale * s.scale, s.Q_prev * s.Q_cur


def series_term(s: ConvergentState) -> Fraction:
    """The n-th series term (-1)^{n-1} a_1...a_n / (q_{n-1} q_n), for n >= 1."""
    return Fraction(*_series_pair(s))


def gap(s: ConvergentState, a_next: int) -> Fraction:
    """q_n + a_{n+1} q_{n-1}; at least 1 for every valid sequence."""
    if a_next not in (1, -1):
        raise ValueError(f"numerator sign must be +1 or -1, got {a_next!r}")
    return Fraction(s.Q_cur + a_next * s.Q_prev, s.scale)
