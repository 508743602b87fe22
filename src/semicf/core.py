"""Semi-regular continued fractions: terms, validation, convergent recurrences.

A semi-regular continued fraction is b0 + a1/(b1 + a2/(b2 + ...)) with each
partial numerator a_n in {-1, +1} and each partial denominator b_n >= 1,
subject to the gap condition b_n + a_{n+1} >= 1 (so a minus numerator may
only follow a denominator of at least 2).  Sequences satisfying these
conditions are called Tietze-valid here; every convergent p_n/q_n of such a
sequence is well defined and the sequence of convergents converges.

All arithmetic is exact.  The recurrence runs on plain ints with no gcd: a
ConvergentState holds p_{n-1}, p_n, q_{n-1}, q_n times one common scale, the
product of the denominators of b0, b_1, ..., b_n; the series partial sum is
an integer over that scaled q_n.  Values cross the API as reduced
`fractions.Fraction`s, so equality of results is canonical-form
equality.  All types are immutable; operations return new values.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .errors import IdentityViolation, InsufficientTerms

RationalLike = Union[int, str, Fraction]

#: Violation reasons reported by validate().
B_TOO_SMALL = "BTooSmall"
GAP_VIOLATION = "GapViolation"

_set = object.__setattr__


class _Frozen:
    """An immutable __slots__ record, compared, hashed, printed and pickled by _fields."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Term(_Frozen):
    """One partial fraction: a numerator sign and a positive denominator.

    The denominator is *not* required to be >= 1 at construction time so that
    invalid sequences remain representable (validation reports them as data).
    """

    __slots__ = _fields = __match_args__ = ("a", "b")

    def __init__(self, a: int, b: RationalLike) -> None:
        if type(a) is not int or a not in (1, -1):  # not True, not 1.0
            raise ValueError(f"numerator sign must be +1 or -1, got {a!r}")
        b = b if type(b) is Fraction else Fraction(b)  # a subclass is converted
        if b.numerator <= 0:
            raise ValueError(f"partial denominator must be positive, got {b}")
        _set(self, "a", a)
        _set(self, "b", b)


class PeriodicTerms(_Frozen, Sequence):
    """The first `length` terms of an endlessly repeated period, unrolled lazily.

    Item i (0-based) is period[i % len(period)].  Immutable; compares and
    hashes by (period, length) in O(period), as the other records do, so it
    is not equal to the tuple of its terms, nor to a source whose period is
    another period's repetition.
    """

    __slots__ = _fields = __match_args__ = ("period", "length")

    def __init__(self, period: Tuple[Term, ...], length: int) -> None:
        _set(self, "period", period)
        _set(self, "length", length)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        p = len(self.period)
        if isinstance(i, slice):
            return tuple(self.period[j % p] for j in range(self.length)[i])
        return self.period[range(self.length)[i] % p]


class SemiRegularCF(_Frozen):
    """A finite sequence b0; (a1, b1), (a2, b2), ... with 1-based term indices.

    `terms` is a tuple, or a PeriodicTerms for sequences built by periodic().
    """

    _fields = __match_args__ = ("b0", "terms")
    # A memo freed with the sequence: _states[k] is the recurrence window after
    # terms 1..k; _sums[k], once series_partial_sum has checked index k, is the
    # series numerator N_k over _states[k].Q_cur; and _sweep the latest tail
    # sweep (end, xs), kept by tails, with xs[j] the tail x_{end-j-1, j+1} as an
    # unreduced integer pair.  tails also keeps two dicts of reduced Fractions,
    # holding only the indices asked for: _shifts[m], the value shift_check
    # returned for end m, and _bounds[n], the checked uniform_step_bound at n.
    __slots__ = _fields + ("_states", "_sums", "_sweep", "_shifts", "_bounds", "__weakref__")

    def __init__(self, b0: RationalLike, terms: Sequence = ()) -> None:
        b0 = b0 if type(b0) is Fraction else Fraction(b0)
        _set(self, "b0", b0)
        _set(self, "terms", terms if isinstance(terms, PeriodicTerms) else tuple(terms))
        _set(self, "_states", [init_state(b0)])
        _set(self, "_sums", None)
        _set(self, "_sweep", None)
        _set(self, "_shifts", None)
        _set(self, "_bounds", None)

    @classmethod
    def from_pairs(
        cls, b0: RationalLike, pairs: Iterable[Tuple[int, RationalLike]]
    ) -> "SemiRegularCF":
        return cls(b0, tuple(Term(a, b) for a, b in pairs))

    @classmethod
    def periodic(
        cls,
        b0: RationalLike,
        pairs: Iterable[Tuple[int, RationalLike]],
        length: int,
    ) -> "SemiRegularCF":
        """The first `length` terms of the repeated period; term n is
        pairs[(n - 1) % len(pairs)].  Nothing is unrolled up front.  length
        is an int in 0..sys.maxsize, the lengths that len() can report."""
        period = tuple(Term(a, b) for a, b in pairs)
        if not period:
            raise ValueError("periodic continuation needs a nonempty period")
        if type(length) is not int or not 0 <= length <= sys.maxsize:
            raise ValueError(f"length must be nonnegative and an int <= sys.maxsize, "
                             f"got {length!r}")
        return cls(b0, PeriodicTerms(period, length))

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, n: int) -> Term:
        """The n-th term, 1-based."""
        if not 1 <= n <= len(self.terms):
            raise InsufficientTerms(f"term index {n} outside 1..{len(self)}", len(self))
        return self.terms[n - 1]

    def a(self, n: int) -> int:
        return self.term(n).a

    def b(self, n: int) -> Fraction:
        return self.term(n).b

    def prefix(self, n: int) -> "SemiRegularCF":
        """The sub-sequence keeping only terms 1..n."""
        return SemiRegularCF(self.b0, self.terms[:_index(self, n)])


def _index(cf: SemiRegularCF, n: int) -> int:
    """n, if 0 <= n <= len(cf): an index of a state, a prefix or a tail end."""
    if not 0 <= n <= len(cf):
        raise InsufficientTerms(f"index {n} outside 0..{len(cf)}", len(cf))
    return n


class Violation(NamedTuple):
    index: int
    reason: str


class ValidationReport(NamedTuple):
    first_violation: Optional[Violation] = None

    valid = property(lambda r: r.first_violation is None)


def validate(cf: SemiRegularCF) -> ValidationReport:
    """Check b_n >= 1 and b_n + a_{n+1} >= 1 at every index.

    The final term is exempt from the gap condition, having no successor.
    Violations are data; evaluate and certify raise the first as TietzeViolation.
    """
    available = scan = len(cf)
    if isinstance(cf.terms, PeriodicTerms):
        # With period p, a violation at n > p repeats at n - p, so indices
        # 1..p (the gap at p reads a_{p+1} = a_1) decide the whole sequence.
        scan = min(available, len(cf.terms.period))
    for n in range(1, scan + 1):
        u, v = cf.b(n).as_integer_ratio()  # v > 0, so b_n >= 1 is u >= v
        if u < v:
            return ValidationReport(Violation(n, B_TOO_SMALL))
        if n < available and u + cf.a(n + 1) * v < v:
            return ValidationReport(Violation(n, GAP_VIOLATION))
    return ValidationReport()


class ConvergentState(NamedTuple):
    """Sliding window of the convergent recurrence, held as integers.

    (P_prev, P_cur, Q_prev, Q_cur) are scale * (p_{n-1}, p_n, q_{n-1}, q_n)
    with scale > 0, and det is the sign (-1)^{n-1} a_1...a_n, which
    p_n q_{n-1} - p_{n-1} q_n equals (-1 at n = 0).  The Fraction fields are
    built when read.
    """

    n: int
    P_prev: int
    P_cur: int
    Q_prev: int
    Q_cur: int
    scale: int
    det: int

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
    return ConvergentState(0, v, u, 0, v, v, -1)


def step(s: ConvergentState, t: Term) -> ConvergentState:
    """Advance the window by one term: p_new = b*p_n + a*p_{n-1}, same for q.

    For b = u/v the new window is (v*P_cur, u*P_cur + a*v*P_prev) over
    scale*v, the same for Q.  Unchecked: evaluate and certify validate first.
    """
    n, P_prev, P_cur, Q_prev, Q_cur, scale, det = s
    a, (u, v) = t.a, t.b.as_integer_ratio()
    if v == 1:  # the new window shares P_cur and Q_cur with s instead of copying them
        return ConvergentState(n + 1, P_cur, u * P_cur + a * P_prev,
                               Q_cur, u * Q_cur + a * Q_prev, scale, -det * a)
    av = a * v
    return ConvergentState(n + 1, v * P_cur, u * P_cur + av * P_prev,
                           v * Q_cur, u * Q_cur + av * Q_prev, scale * v, -det * a)


def iter_states(cf: SemiRegularCF, upto: Optional[int] = None) -> Iterator[ConvergentState]:
    """Yield the states for n = 0 .. upto (default: the whole sequence)."""
    upto = len(cf) if upto is None else _index(cf, upto)
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
    return _states_through(cf, _index(cf, n))[n]


def convergent(cf: SemiRegularCF, n: int) -> Fraction:
    """The convergent p_n / q_n, equal to the depth-n truncation of cf."""
    return state_at(cf, n).value


def determinant_check(s: ConvergentState) -> int:
    """Return (-1)^{n-1} a_1...a_n and verify the cross-product identity.

    p_n q_{n-1} - p_{n-1} q_n equals that sign exactly for every n >= 0 of a
    valid sequence (-1 at n = 0); a mismatch means the recurrence was driven
    with inconsistent data and raises IdentityViolation.
    """
    actual = s.P_cur * s.Q_prev - s.P_prev * s.Q_cur  # scale**2 times the identity
    if actual != s.det * s.scale * s.scale:
        raise IdentityViolation(
            f"p_n q_(n-1) - p_(n-1) q_n = {Fraction(actual, s.scale * s.scale)}, "
            f"expected {s.det} at n={s.n}"
        )
    return s.det


def _series_step(s: ConvergentState, prev: ConvergentState, num: int) -> Tuple[int, int]:
    """divmod of N_n = S_n * s.Q_cur, the series sum S_n held over the scaled q_n,
    from num = N_{n-1} (N_0 is b0's numerator).  As s.Q_prev = v * prev.Q_cur for
    b_n's denominator v, N_n = (num v Q_cur + det scale^2) / Q_prev; states that
    obey the recurrence leave no remainder, since then N_n = scale * p_n."""
    _, _, _, Q_prev, Q_cur, scale, det = s
    return divmod(num * (scale // prev.scale) * Q_cur + det * scale * scale, Q_prev)


def series_partial_sum(cf: SemiRegularCF, n: int) -> Fraction:
    """b0 plus the telescoped series of convergent differences through n.

    Each term is (-1)^{k-1} a_1...a_k / (q_{k-1} q_k); the partial sum equals
    convergent(cf, n) exactly.  The sum is an integer over the scaled q_k, so a
    term costs one exact division and no gcd; a remainder raises IdentityViolation
    and is not kept.  cf's memo keeps the checked sums, so a repeated query steps
    through no term and a deeper one only through its new terms.
    """
    states, sums = _states_through(cf, _index(cf, n)), cf._sums
    if sums is None:
        sums = [cf.b0.numerator]
        _set(cf, "_sums", sums)
    # Test the length read and write slot k, as _states_through does.
    while (k := len(sums)) <= n:
        num, r = _series_step(states[k], states[k - 1], sums[k - 1])
        if r:
            raise IdentityViolation(f"series term {k} leaves remainder {r}")
        sums[k:k + 1] = [num]
    return Fraction(sums[n], states[n].Q_cur)


def gap(s: ConvergentState, a_next: int) -> Fraction:
    """q_n + a_{n+1} q_{n-1}; at least 1 for every valid sequence."""
    if a_next not in (1, -1):
        raise ValueError(f"numerator sign must be +1 or -1, got {a_next!r}")
    return Fraction(s.Q_cur + a_next * s.Q_prev, s.scale)
