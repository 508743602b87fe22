import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicf import (
    B_TOO_SMALL,
    GAP_VIOLATION,
    RandomSpec,
    SemiRegularCF,
    Term,
    TietzeViolation,
    certify,
    convergent,
    determinant_check,
    evaluate,
    fold_eval,
    gap,
    init_state,
    iter_states,
    random_tietze,
    series_partial_sum,
    state_at,
    step,
    validate,
)
from semicf.errors import IdentityViolation, InsufficientTerms

from conftest import all_minus_two, golden

# Below every uniform bound of the short sequences here, so evaluate steps to the end.
TINY = Fraction(1, 10**100)


class _Sub(Fraction):
    pass


class TestTerm:
    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            Term(0, Fraction(2))
        with pytest.raises(ValueError):
            Term(True, Fraction(2))
        with pytest.raises(ValueError):
            Term(1.0, Fraction(2))

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            Term(1, Fraction(0))
        for b, shown in ((Fraction(0), "0"), (Fraction(-1, 2), "-1/2"), ("-3", "-3"), (0, "0")):
            message = f"^partial denominator must be positive, got {shown}$"
            with pytest.raises(ValueError, match=message):
                Term(1, b)

    def test_keeps_a_fraction_and_converts_anything_else(self):
        f = Fraction(7, 3)
        assert Term(1, f).b is f
        assert SemiRegularCF(f, ()).b0 is f
        for b in (2, "7/3", _Sub(7, 3)):
            assert type(Term(1, b).b) is Fraction and Term(1, b).b == Fraction(b)
            assert type(SemiRegularCF(b, ()).b0) is Fraction

    def test_below_one_is_representable(self):
        # validation reports b < 1 as data, so construction must allow it
        assert Term(1, Fraction(1, 2)).b == Fraction(1, 2)


class TestValidate:
    def test_golden_prefix_valid(self):
        cf = SemiRegularCF.from_pairs(1, [(1, 1), (1, 1)])
        assert validate(cf).valid

    def test_gap_violation(self):
        cf = SemiRegularCF.from_pairs(0, [(-1, 1), (-1, 2)])
        report = validate(cf)
        assert not report.valid
        assert report.first_violation.index == 1
        assert report.first_violation.reason == GAP_VIOLATION

    def test_b_too_small(self):
        cf = SemiRegularCF.from_pairs(0, [(1, Fraction(1, 2))])
        report = validate(cf)
        assert not report.valid
        assert report.first_violation.index == 1
        assert report.first_violation.reason == B_TOO_SMALL

    @pytest.mark.parametrize("b, a_next, reason", [
        (Fraction(4, 5), 1, B_TOO_SMALL),
        (Fraction(3, 2), 1, None),
        (Fraction(3, 2), -1, GAP_VIOLATION),
        (Fraction(19, 10), -1, GAP_VIOLATION),
        (Fraction(2), -1, None),
        (Fraction(5, 2), -1, None),
    ])
    def test_rule_on_rational_b(self, b, a_next, reason):
        first = validate(SemiRegularCF.from_pairs(0, [(1, b), (a_next, 2)])).first_violation
        if reason is None:
            assert first is None
        else:
            assert (first.index, first.reason) == (1, reason)

    def test_final_term_exempt_from_gap(self):
        # a successor would be needed for the gap condition to apply
        cf = SemiRegularCF.from_pairs(0, [(1, 1)])
        assert validate(cf).valid

    def test_successor_counts_and_final_term_needs_b_at_least_one(self):
        # the gap at n reads a_{n+1}; the final term skips only the gap condition
        report = validate(SemiRegularCF.from_pairs(0, [(1, 1), (-1, 2)]))
        assert (report.first_violation.index, report.first_violation.reason) == (1, GAP_VIOLATION)
        report = validate(SemiRegularCF.from_pairs(0, [(1, 2), (1, Fraction(1, 2))]))
        assert (report.first_violation.index, report.first_violation.reason) == (2, B_TOO_SMALL)


class TestPeriodic:
    def test_terms_repeat_the_period(self):
        cf = SemiRegularCF.periodic(2, [(1, 3), (-1, Fraction(5, 2))], 5)
        assert len(cf) == 5
        assert [cf.b(n) for n in range(1, 6)] == [3, Fraction(5, 2), 3, Fraction(5, 2), 3]
        assert [cf.a(n) for n in range(1, 6)] == [1, -1, 1, -1, 1]
        assert cf.terms[-1] == cf.term(5) and cf.terms[1:4] == cf.prefix(4).terms[1:]
        with pytest.raises(InsufficientTerms):
            cf.term(6)

    def test_prefix_is_tuple_backed(self):
        cf = SemiRegularCF.periodic(1, [(1, 1)], 10)
        assert type(cf.prefix(4).terms) is tuple
        assert cf.prefix(4) == golden(4)

    def test_huge_length_costs_only_the_period(self):
        cf = SemiRegularCF.periodic(1, [(1, 1)], 10**12)
        assert cf.b(10**12) == 1
        assert len(cf) == 10**12
        assert validate(cf).valid

    def test_equal_periodic_sequences_with_different_periods(self):
        """Periodic sources are equal exactly when their periods and lengths are,
        even where two periods spell the same terms; hash() reads no term."""
        one = SemiRegularCF.periodic(1, [(1, 1)], 10**12)
        same = SemiRegularCF.periodic(1, [(1, 1)], 10**12)
        two = SemiRegularCF.periodic(1, [(1, 1), (1, 1)], 10**12)
        shorter = SemiRegularCF.periodic(1, [(1, 1)], 10**12 - 1)
        start = time.perf_counter()
        assert one == same and hash(one) == hash(same)
        assert time.perf_counter() - start < 1
        assert one != two and one != shorter
        assert one.terms[:5] == two.terms[:5]

    def test_needs_a_period_and_a_nonnegative_length(self):
        with pytest.raises(ValueError, match="nonempty period"):
            SemiRegularCF.periodic(1, [], 5)
        with pytest.raises(ValueError, match="length must be nonnegative"):
            SemiRegularCF.periodic(1, [(1, 1)], -1)

    @pytest.mark.parametrize("length", [sys.maxsize + 1, 2.5])
    def test_refuses_a_length_len_cannot_report(self, length):
        with pytest.raises(ValueError, match="length must be nonnegative and an int"):
            SemiRegularCF.periodic(1, [(1, 1)], length)

    def test_longest_length_is_sys_maxsize(self):
        cf = SemiRegularCF.periodic(1, [(1, 1)], sys.maxsize)
        assert len(cf) == sys.maxsize and cf.a(sys.maxsize) == 1 and validate(cf).valid

    def test_fields_are_read_only(self):
        terms = SemiRegularCF.periodic(1, [(1, 1)], 5).terms
        with pytest.raises(AttributeError, match="cannot assign to field 'length'"):
            terms.length = 6
        assert len(terms) == 5
        assert repr(terms) == f"PeriodicTerms(period=({Term(1, Fraction(1))!r},), length=5)"


PERIOD_TERMS = st.tuples(
    st.sampled_from([1, -1]),
    st.one_of(
        st.integers(1, 3),
        st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3),
    ),
)


@settings(deadline=None, max_examples=200)
@given(b0=st.integers(-3, 3), period=st.lists(PERIOD_TERMS, min_size=1, max_size=6))
@example(b0=0, period=[(-1, 2), (1, 1)])  # wrap gap b_2 + a_1 < 1
@example(b0=0, period=[(1, 1), (-1, 2)])  # in-period gap
@example(b0=0, period=[(1, 2), (1, Fraction(1, 2))])  # BTooSmall
def test_periodic_matches_eager_unroll(b0, period):
    """Validating the first p indices decides a periodic sequence of any length."""
    p = len(period)
    for horizon in range(3 * p + 3):
        lazy = SemiRegularCF.periodic(b0, period, horizon)
        eager = SemiRegularCF.from_pairs(b0, [period[i % p] for i in range(horizon)])
        assert tuple(lazy.terms) == eager.terms
        assert validate(lazy) == validate(eager)


class TestRecurrence:
    def test_init_state(self):
        s = init_state(1)
        assert (s.p_prev, s.p_cur, s.q_prev, s.q_cur) == (1, 1, 0, 1)
        assert s.det == -1
        s = init_state(Fraction(7, 3))
        assert s.p_cur == Fraction(7, 3)
        assert init_state(0).p_cur == 0

    def test_golden_fibonacci(self):
        qs = [s.q_cur for s in iter_states(golden(5))]
        ps = [s.p_cur for s in iter_states(golden(5))]
        assert qs == [1, 1, 2, 3, 5, 8]
        assert ps == [1, 2, 3, 5, 8, 13]

    def test_all_minus_linear(self):
        for s in iter_states(all_minus_two(12)):
            assert s.q_cur == s.n + 1
            assert s.p_cur == s.n + 2

    def test_first_step_q_is_b(self):
        for a, b in [(1, Fraction(5, 2)), (-1, 3)]:
            s = step(init_state(9), Term(a, Fraction(b)))
            assert s.q_cur == b

    def test_checked_step_raises(self):
        # evaluate validates the whole sequence first; the gap b_1 + a_2 = 0 refuses it
        with pytest.raises(TietzeViolation):
            evaluate(SemiRegularCF.from_pairs(0, [(1, 1), (-1, 2)]), TINY)
        # step itself does not check, so experiments get through
        s = step(init_state(0), Term(1, Fraction(1)))
        assert step(s, Term(-1, Fraction(2))).n == 2

    def test_checked_step_rejects_small_b(self):
        with pytest.raises(TietzeViolation):
            evaluate(SemiRegularCF.from_pairs(0, [(1, Fraction(1, 2))]), TINY)

    def test_convergent_examples(self):
        assert convergent(golden(5), 2) == Fraction(3, 2)
        assert convergent(golden(5), 0) == 1
        assert convergent(all_minus_two(5), 3) == Fraction(5, 4)

    def test_convergent_insufficient(self):
        with pytest.raises(InsufficientTerms):
            convergent(golden(3), 4)


class TestDeterminant:
    def test_first_index_is_a1(self):
        for a in (1, -1):
            s = step(init_state(Fraction(7, 2)), Term(a, Fraction(3)))
            assert determinant_check(s) == a

    def test_golden_n2(self):
        s = state_at(golden(5), 2)
        assert s.p_cur * s.q_prev - s.p_prev * s.q_cur == -1
        assert determinant_check(s) == -1

    def test_all_minus_n2(self):
        s = state_at(all_minus_two(5), 2)
        assert s.p_cur * s.q_prev - s.p_prev * s.q_cur == -1
        assert determinant_check(s) == -1

    @pytest.mark.parametrize("b0", [1, Fraction(-7, 3)], ids=["1", "-7/3"])
    def test_index_zero_is_minus_one(self, b0):
        """b0*0 - 1*1 = -1: the empty product's sign, which init_state stores."""
        assert determinant_check(init_state(b0)) == -1


class TestSeries:
    def test_golden_n2(self):
        assert series_partial_sum(golden(5), 2) == Fraction(3, 2)

    def test_empty_sum(self):
        assert series_partial_sum(golden(5), 0) == 1

    def test_all_minus_n2(self):
        assert series_partial_sum(all_minus_two(5), 2) == Fraction(4, 3)

    def test_memo_state_off_by_one_raises(self):
        cf = golden(5)
        state_at(cf, 5)
        cf._states[3] = cf._states[3]._replace(Q_cur=cf._states[3].Q_cur + 1)
        assert series_partial_sum(cf, 2) == Fraction(3, 2)
        with pytest.raises(IdentityViolation, match="^series term 3 leaves remainder 1$"):
            series_partial_sum(cf, 3)
        with pytest.raises(IdentityViolation, match="^series term 3 "):
            series_partial_sum(cf, 5)

    def test_invalid_sequence_with_q2_zero(self):
        # b_1 = 1/2 breaks b >= 1, and q_2 = 2 * (1/2) - 1 = 0
        cf = SemiRegularCF.from_pairs(0, [(1, "1/2"), (-1, 2), (1, 3), (1, 1)])
        assert [series_partial_sum(cf, n) for n in (0, 1)] == [0, 2]
        for n in (2, 3, 4):
            with pytest.raises(ZeroDivisionError):
                series_partial_sum(cf, n)


def _gap_fixed(pairs):
    """pairs with b_n raised by 1 wherever a_{n+1} (cyclically) is -1 and b_n < 2."""
    return [(a, b + 1 if pairs[(i + 1) % len(pairs)][0] == -1 and b < 2 else b)
            for i, (a, b) in enumerate(pairs)]


@settings(deadline=None, max_examples=150)
@given(
    b0=st.fractions(-5, 5, max_denominator=7),
    pairs=st.lists(
        st.tuples(st.sampled_from([1, -1]),
                  st.integers(1, 4) | st.fractions(1, 4, max_denominator=6)),
        min_size=1, max_size=10,
    ),
    length=st.none() | st.integers(0, 25),
)
@example(b0=Fraction(7, 3), pairs=[(1, Fraction(5, 2)), (-1, 3), (1, Fraction(7, 3))],
         length=None)
@example(b0=Fraction(-1, 2), pairs=[(-1, Fraction(5, 2)), (1, Fraction(7, 3))], length=12)
def test_series_equals_fold_and_convergent_at_every_index(b0, pairs, length):
    """length None is a tuple sequence; otherwise the pairs repeat as a period."""
    pairs = _gap_fixed(pairs)
    cf = (SemiRegularCF.from_pairs(b0, pairs) if length is None
          else SemiRegularCF.periodic(b0, pairs, length))
    assert validate(cf).valid
    for n in range(len(cf) + 1):
        assert series_partial_sum(cf, n) == fold_eval(cf, n) == convergent(cf, n)


class TestGap:
    def test_initial(self):
        assert gap(init_state(3), 1) == 1

    def test_golden_n2(self):
        assert gap(state_at(golden(5), 2), 1) == 3

    def test_all_minus_n2(self):
        assert gap(state_at(all_minus_two(5), 2), -1) == 1

    def test_rejects_a_sign_that_is_not_one(self):
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            gap(init_state(3), 0)


def test_growth_thresholds():
    # Lemma-style growth: every threshold is eventually crossed, and the
    # chain inequality keeps later q above the crossing gap.
    g = golden(40)
    for threshold in (10, 10**3, 10**6):
        hit = next(s for s in iter_states(g) if s.q_cur >= threshold)
        assert hit.q_cur >= threshold
    am = all_minus_two(600)
    assert any(s.q_cur >= 500 for s in iter_states(am))


def test_chain_keeps_growth():
    for cf in (golden(30), all_minus_two(30)):
        states = list(iter_states(cf))
        for m in range(1, len(states) - 1):
            floor = gap(states[m], cf.a(m + 1))
            for n in range(m + 1, len(states)):
                assert states[n].q_cur >= floor >= 1


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    length=st.integers(1, 25),
    integer_only=st.booleans(),
    minus_prob=st.fractions(0, 1),
)
def test_random_sequences_satisfy_exact_identities(
    seed, length, integer_only, minus_prob
):
    cf = random_tietze(
        RandomSpec(
            seed=seed,
            length=length,
            minus_probability=minus_prob,
            integer_only=integer_only,
        )
    )
    assert validate(cf).valid
    prev = None
    for s in iter_states(cf):
        assert s.q_cur >= 1
        if s.n >= 1:
            assert s.det == -prev.det * cf.a(s.n)
        determinant_check(s)
        prev = s
        if s.n < length:
            assert gap(s, cf.a(s.n + 1)) >= 1
    assert series_partial_sum(cf, length) == convergent(cf, length)
    assert fold_eval(cf, length) == convergent(cf, length)


def test_threads_sharing_a_sequence_extend_its_states_in_place():
    cf = random_tietze(RandomSpec(seed=11, length=200))
    fresh = SemiRegularCF(cf.b0, cf.terms)
    expected = [state_at(fresh, n) for n in range(201)]
    sums = [series_partial_sum(fresh, n) for n in range(201)]
    wrong = []
    errors = []

    def query(seed):
        rng = random.Random(seed)
        try:
            for _ in range(100):
                n = rng.randint(0, 200)
                if state_at(cf, n) != expected[n]:
                    wrong.append(n)
                n = rng.randint(0, 200)
                if series_partial_sum(cf, n) != sums[n]:
                    wrong.append(n)
        except BaseException as exc:  # an exception would otherwise end the thread unseen
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert wrong == []
    assert [state_at(cf, n) for n in range(201)] == expected
    assert [series_partial_sum(cf, n) for n in range(201)] == sums


@settings(deadline=None, max_examples=200)
@given(
    b0=st.integers(-3, 3),
    pairs=st.lists(
        st.tuples(st.sampled_from([1, -1]), st.sampled_from([Fraction(1, 2), 1, 2, 3])),
        max_size=8,
    ),
)
@example(b0=0, pairs=[(1, 1), (-1, Fraction(1, 2))])  # gap at 1 and BTooSmall at 2
@example(b0=0, pairs=[(1, 2), (-1, Fraction(1, 3))])  # the bound at 0 covers eps = 1
@example(b0=0, pairs=[(1, 2), (-1, Fraction(1, 2)), (1, 1)])  # q_2 = 0: no p_2/q_2
def test_checked_stepping_stops_where_validate_reports(b0, pairs):
    """evaluate and certify refuse an invalid sequence at validate's first
    violation, whatever eps or n: validate is their one check of the rule."""
    cf = SemiRegularCF.from_pairs(b0, pairs)
    report = validate(cf)
    if report.valid:
        result = evaluate(cf, TINY, max_steps=len(cf) + 1)
        assert result.exact and result.steps_used == len(cf)
        for result in (result, evaluate(cf, 1, max_steps=len(cf) + 1)):
            assert result.exact == (result.certified_error == 0)
    else:
        v = report.first_violation
        message = f"{v.reason} at index {v.index} (b_{v.index} = {cf.b(v.index)})"
        for eps in (TINY, 1):
            with pytest.raises(TietzeViolation, match=f"^{re.escape(message)}$"):
                evaluate(cf, eps, max_steps=len(cf) + 1)
        for n in range(len(cf)):
            with pytest.raises(TietzeViolation, match=f"^{re.escape(message)}$"):
                certify(cf, n)
