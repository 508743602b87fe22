import gc
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicf import (
    ALL_MINUS_TAIL,
    PLUS_ANCHOR,
    BudgetExhausted,
    DenominatorBelowOne,
    RandomSpec,
    SemiRegularCF,
    TietzeViolation,
    anchor_index,
    certify,
    convergent,
    error_bound,
    evaluate,
    fold_eval,
    iter_states,
    random_tietze,
    series_partial_sum,
    shift_check,
    state_at,
    tail,
    uniform_step_bound,
)
from semicf import core, tails
from semicf.errors import IdentityViolation, InsufficientTerms

from conftest import all_minus_two, corpus_cf, golden

# rational bracket of the golden ratio, tight enough for the bounds below
PHI_LO = Fraction(1618033, 1000000)
PHI_HI = Fraction(1618034, 1000000)


class TestTail:
    def test_depth_one(self):
        cf = corpus_cf(17)
        for n in range(len(cf) - 1):
            t = tail(cf, n, 1)
            assert t.value == Fraction(cf.a(n + 1)) / cf.b(n + 1)

    def test_golden_depth_two(self):
        assert tail(golden(), 0, 2).value == Fraction(1, 2)

    def test_all_minus_depth_two(self):
        assert tail(all_minus_two(), 0, 2).value == Fraction(-2, 3)

    def test_sign_matches_next_numerator(self):
        cf = corpus_cf(3)
        for n in range(min(len(cf), 12)):
            for k in range(1, min(len(cf) - n, 12) + 1):
                x = tail(cf, n, k).value
                if cf.a(n + 1) == 1:
                    assert 0 < x <= 1
                else:
                    assert -1 <= x < 0

    def test_insufficient(self):
        with pytest.raises(InsufficientTerms):
            tail(golden(3), 1, 3)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            tail(golden(3), 0, 0)

    @pytest.mark.parametrize("query", [tail, shift_check, error_bound])
    @pytest.mark.parametrize("pairs, message", [
        ([(1, 1), (-1, 1)], "b_1 + x_1,1 = 0 < 1"),
        ([(1, Fraction(3, 2)), (-1, Fraction(5, 3))], "b_1 + x_1,1 = 9/10 < 1"),
        ([(1, 2), (1, Fraction(1, 3))], "b_2 + x_2,0 = 1/3 < 1"),
    ])
    def test_denominator_below_one_on_an_invalid_sequence(self, query, pairs, message):
        cf = SemiRegularCF.from_pairs(0, pairs)
        with pytest.raises(DenominatorBelowOne) as exc:
            query(cf, 0, 2)
        assert str(exc.value) == message


class TestShift:
    def test_golden_example(self):
        assert shift_check(golden(), 1, 1) == Fraction(3, 2)

    def test_all_minus_example(self):
        assert shift_check(all_minus_two(), 1, 1) == Fraction(4, 3)

    def test_from_zero_matches_deep_convergent(self):
        cf = corpus_cf(8)
        for k in range(1, len(cf) + 1):
            assert shift_check(cf, 0, k) == convergent(cf, k)


class TestErrorBound:
    def test_golden_tight(self):
        assert error_bound(golden(), 1, 1) == Fraction(1, 2)
        assert abs(convergent(golden(), 2) - convergent(golden(), 1)) == Fraction(1, 2)

    def test_all_minus(self):
        assert error_bound(all_minus_two(), 1, 1) == Fraction(1, 3)

    def test_positive_tail_beats_inverse_square(self):
        cf = golden(12)
        for n in range(1, 10):
            for k in range(1, 12 - n):
                s_q = convergent(cf, n).denominator
                assert error_bound(cf, n, k) <= Fraction(1, s_q * s_q)


class TestUniformBound:
    def test_golden(self):
        assert uniform_step_bound(golden(), 2) == Fraction(1, 4)

    def test_all_minus(self):
        am = all_minus_two()
        assert uniform_step_bound(am, 2) == Fraction(1, 3)
        # the limit of (n+2)/(n+1) is 1, so the bound is tight at n=2
        assert abs(Fraction(1) - convergent(am, 2)) == Fraction(1, 3)

    def test_dominates_every_depth(self):
        cf = corpus_cf(21)
        horizon = min(len(cf), 15)
        for n in range(horizon - 1):
            u = uniform_step_bound(cf, n)
            for k in range(1, horizon - n):
                assert error_bound(cf, n, k) <= u


class TestAnchor:
    def test_only_first_plus(self):
        cf = SemiRegularCF.from_pairs(0, [(1, 2), (-1, 2), (-1, 2)])
        assert anchor_index(cf, 3) == 0

    def test_latest_plus_wins(self):
        cf = SemiRegularCF.from_pairs(0, [(1, 2), (-1, 2), (-1, 2), (1, 2)])
        assert anchor_index(cf, 4) == 3

    def test_absent(self):
        cf = SemiRegularCF.from_pairs(0, [(-1, 2), (-1, 2)])
        assert anchor_index(cf, 2) is None


class TestCertify:
    def test_golden_within_two_over_q_squared(self):
        cert = certify(golden(10), 4)
        assert cert.regime == PLUS_ANCHOR
        assert cert.anchor == 3
        assert cert.bound <= Fraction(2, 9)
        # |phi - 8/5| is about 0.018
        approx = convergent(golden(10), 4)
        assert max(PHI_HI - approx, approx - PHI_LO) <= cert.bound

    def test_all_minus(self):
        cert = certify(all_minus_two(10), 5)
        assert cert.regime == ALL_MINUS_TAIL
        assert cert.anchor is None
        assert cert.bound == Fraction(1, 6)
        assert abs(Fraction(1) - convergent(all_minus_two(10), 5)) == Fraction(1, 6)

    def test_anchor_just_below_when_a_n_plus(self):
        cf = golden(10)
        cert = certify(cf, 6)
        assert cert.anchor == 5
        q_prev = convergent(cf, 5).denominator
        assert cert.bound <= Fraction(2, q_prev * q_prev)

    @pytest.mark.parametrize("cf", [golden(4), all_minus_two(4)], ids=["anchored", "all-minus"])
    def test_needs_the_term_after_n(self, cf):
        certify(cf, len(cf) - 1)
        with pytest.raises(InsufficientTerms):
            certify(cf, len(cf))

    def test_refuses_an_invalid_sequence_before_a_short_one(self):
        # n = 5 needs five more terms than the one there, and b_1 = 1/2 < 1
        with pytest.raises(TietzeViolation, match=r"^BTooSmall at index 1 \(b_1 = 1/2\)$"):
            certify(SemiRegularCF.from_pairs(0, [(1, Fraction(1, 2))]), 5)

    def test_cauchy_property(self):
        for seed in (2, 5, 11, 14):
            cf = corpus_cf(seed)
            horizon = min(len(cf), 20)
            for base in range(horizon - 1):
                cert = certify(cf, base)
                assert cert.regime == (ALL_MINUS_TAIL if cert.anchor is None else PLUS_ANCHOR)
                bound = cert.bound
                values = [convergent(cf, j) for j in range(base, horizon + 1)]
                for i, vi in enumerate(values):
                    for vj in values[i + 1:]:
                        assert abs(vj - vi) <= bound


class TestEvaluate:
    def test_golden(self):
        res = evaluate(golden(10), Fraction(1, 100))
        assert res.approximation == Fraction(21, 13)
        assert res.steps_used == 6
        assert not res.exact
        assert res.certified_error == Fraction(1, 169)

    def test_all_minus(self):
        res = evaluate(all_minus_two(20), Fraction(1, 10))
        assert res.approximation == Fraction(11, 10)
        assert res.steps_used == 9

    def test_finite_exact(self):
        cf = SemiRegularCF.from_pairs(2, [(1, 3)])
        res = evaluate(cf, Fraction(1, 10**30))
        assert res.exact
        assert res.approximation == Fraction(7, 3)
        assert res.certified_error == 0
        assert res.steps_used == 1
        # A budget of len(cf) steps still reaches the last term.
        assert evaluate(cf, Fraction(1, 10**30), max_steps=1) == res

    def test_budget(self):
        with pytest.raises(BudgetExhausted) as exc:
            evaluate(all_minus_two(50), Fraction(1, 10**6), max_steps=40)
        assert exc.value.max_steps == 40
        assert exc.value.best_bound == Fraction(1, 41)

    def test_first_certifying_step_of_a_non_monotone_bound(self):
        # q_n runs 1, 2, 1, 3, so the uniform bounds run 1, 1/2, 1, 1/9.
        cf = SemiRegularCF.from_pairs(0, [(1, 2), (-1, 1), (1, 1), (1, 1)])
        bounds = [uniform_step_bound(cf, n) for n in range(4)]
        assert bounds == [1, Fraction(1, 2), 1, Fraction(1, 9)]
        for eps, steps in [(1, 0), (Fraction(1, 2), 1), (Fraction(1, 3), 3), (Fraction(1, 9), 3)]:
            result = evaluate(cf, eps)
            assert (result.steps_used, result.certified_error) == (steps, bounds[steps])
        # The budget reports the smallest bound seen, not the last one.
        for max_steps, best in [(2, Fraction(1, 2)), (len(cf) - 1, Fraction(1, 9))]:
            with pytest.raises(BudgetExhausted) as exc:
                evaluate(cf, Fraction(1, 10), max_steps)
            assert (exc.value.max_steps, exc.value.best_bound) == (max_steps, best)

    def test_budget_with_a_bound_past_the_digit_limit(self):
        # best_bound = 1/q_1^2 = y^2/x^2 has about 8000 digits, more than str() converts.
        x, y = 2 * 10**3999 + 1, 10**3999
        cf = SemiRegularCF.from_pairs(0, [(1, Fraction(x, y)), (1, 1)])
        with pytest.raises(BudgetExhausted) as exc:
            evaluate(cf, Fraction(1, 100), max_steps=1)
        assert exc.value.best_bound == Fraction(y * y, x * x)
        assert str(exc.value) == "no certificate within 1 steps; see best_bound"

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            evaluate(golden(5), Fraction(0))

    def test_rejects_a_zero_budget(self):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            evaluate(golden(5), Fraction(1, 10), max_steps=0)


# Every query the per-sequence memo serves, as (name, function of cf, n, k);
# each is defined for 0 <= n < len(cf) and 1 <= k <= len(cf) - n.
QUERIES = [
    ("state_at", lambda cf, n, k: state_at(cf, n + k)),
    ("convergent", lambda cf, n, k: convergent(cf, n + k)),
    ("series_partial_sum", lambda cf, n, k: series_partial_sum(cf, n + k)),
    ("tail", lambda cf, n, k: tail(cf, n, k)),
    ("shift_check", lambda cf, n, k: shift_check(cf, n, k)),
    ("error_bound", lambda cf, n, k: error_bound(cf, n, k)),
    ("uniform_step_bound", lambda cf, n, k: uniform_step_bound(cf, n)),
    ("certify", lambda cf, n, k: certify(cf, n)),
]


# Every call that takes an index i in 0..len(cf), as a function of cf and i.
# The tail queries take i as their end n + k, with k = 1, and
# uniform_step_bound at n, which reads term n + 1, takes i as n + 1.
INDEX_CALLS = {
    "state_at": state_at,
    "convergent": convergent,
    "series_partial_sum": series_partial_sum,
    "iter_states": lambda cf, i: list(iter_states(cf, i)),
    "prefix": lambda cf, i: cf.prefix(i),
    "anchor_index": anchor_index,
    "certify": certify,
    "tail": lambda cf, i: tail(cf, i - 1, 1),
    "shift_check": lambda cf, i: shift_check(cf, i - 1, 1),
    "error_bound": lambda cf, i: error_bound(cf, i - 1, 1),
    "uniform_step_bound": lambda cf, i: uniform_step_bound(cf, i - 1),
    "fold_eval": fold_eval,
}


@pytest.mark.parametrize("i", [-1, 5], ids=["-1", "len+1"])
@pytest.mark.parametrize("name", INDEX_CALLS)
def test_index_outside_the_sequence_raises_insufficient_terms(name, i):
    cf = golden(4)
    # A negative start n of a tail query stays an argument error, as k < 1 is.
    negative_start = i < 0 and name in ("tail", "shift_check", "error_bound")
    with pytest.raises(ValueError if negative_start else InsufficientTerms):
        INDEX_CALLS[name](cf, i)


class TestMemo:
    def test_freed_with_the_sequence(self):
        cf = corpus_cf(40)
        ref = weakref.ref(cf)
        state_at(cf, len(cf))
        tail(cf, 0, len(cf))
        certify(cf, len(cf) - 1)
        series_partial_sum(cf, len(cf))
        shift_check(cf, 0, len(cf))
        uniform_step_bound(cf, 0)
        del cf
        gc.collect()
        assert ref() is None

    def test_series_queries_step_only_through_unchecked_terms(self, monkeypatch):
        steps, series_step = [], core._series_step

        def counted(s, prev, num):
            steps.append(s.n)
            return series_step(s, prev, num)

        monkeypatch.setattr(core, "_series_step", counted)
        cf = corpus_cf(7)  # 50 terms of rational b
        series_partial_sum(cf, 40)
        for n, new in [(40, 0), (45, 5), (10, 0)]:
            steps.clear()
            assert series_partial_sum(cf, n) == convergent(cf, n)
            assert len(steps) == new, n

    def test_repeated_shift_and_uniform_bound_build_no_fraction(self, monkeypatch):
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(tails, "Fraction", Counted)
        cf = corpus_cf(7)  # 50 terms of rational b
        first = shift_check(cf, 10, 5), uniform_step_bound(cf, 10)
        built.clear()
        assert (shift_check(cf, 10, 5), uniform_step_bound(cf, 10)) == first
        assert built == []
        assert first == (convergent(corpus_cf(7), 15), uniform_step_bound(corpus_cf(7), 10))

    def test_memoized_shift_check_still_checks_its_identity(self):
        cf = golden(5)
        assert shift_check(cf, 3, 2) == Fraction(13, 8)
        cf._states[5] = cf._states[5]._replace(Q_cur=cf._states[5].Q_cur + 1)
        with pytest.raises(IdentityViolation, match="^shift value 13/8 != convergent 13/9 "):
            shift_check(cf, 3, 2)

    def test_uniform_bound_below_one_raises_on_every_call(self):
        cf = SemiRegularCF.from_pairs(0, [(1, 1), (-1, 1)])  # D_1 = q_1 - q_0 = 0
        for _ in range(2):
            with pytest.raises(IdentityViolation, match="^uniform-bound denominator 0 < 1 "):
                uniform_step_bound(cf, 1)

    def test_tail_costs_its_depth_not_its_start(self):
        cf = SemiRegularCF.periodic(1, [(1, 1)], 10**12)
        assert tail(cf, 10**12 - 10, 5).value == Fraction(5, 8)

    def test_queries_sharing_an_end_share_one_sweep(self):
        cf = corpus_cf(44)
        end = len(cf)
        tail(cf, 0, end)
        sweep = cf._sweep
        for n in range(end):
            assert tail(cf, n, end - n) == tail(corpus_cf(44), n, end - n)
        assert cf._sweep is sweep

    def test_queries_on_a_huge_periodic_sequence_cost_their_index(self):
        lazy = SemiRegularCF.periodic(1, [(1, 1)], 10**12)
        eager = golden(60)
        for end in range(1, 51):
            for n in range(end):
                for name, query in QUERIES:
                    assert query(lazy, n, end - n) == query(eager, n, end - n), name


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32),
    length=st.integers(1, 30),
    integer_only=st.booleans(),
    data=st.data(),
)
def test_memoized_queries_match_a_fresh_sequence(seed, length, integer_only, data):
    """Queries in any order on one sequence answer as on a fresh copy."""
    spec = RandomSpec(
        seed=seed, length=length, minus_probability=Fraction(1, 2), integer_only=integer_only
    )
    cf = random_tietze(spec)
    for _ in range(data.draw(st.integers(1, 20))):
        name, query = data.draw(st.sampled_from(QUERIES))
        n = data.draw(st.integers(0, length - 1))
        k = data.draw(st.integers(1, length - n))
        assert query(cf, n, k) == query(random_tietze(spec), n, k), name
    fresh = random_tietze(spec)
    assert cf == fresh and hash(cf) == hash((cf.b0, cf.terms)) and repr(cf) == repr(fresh)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32), length=st.integers(1, 16), integer_only=st.booleans())
def test_tail_queries_match_the_independent_oracle(seed, length, integer_only):
    """The integer tail sweep agrees with fold_eval and with a Fraction recurrence."""
    spec = RandomSpec(
        seed=seed, length=length, minus_probability=Fraction(1, 2), integer_only=integer_only
    )
    cf = random_tietze(spec)
    q = [Fraction(0), Fraction(1)]  # q[n + 1] is q_n, from q_{-1} = 0 and q_0 = 1
    for t in cf.terms:
        q.append(t.b * q[-1] + t.a * q[-2])
    for end in range(1, length + 1):
        for n in range(end):
            k = end - n
            x = tail(cf, n, k).value
            assert x == fold_eval(SemiRegularCF(0, cf.terms[n:n + k]))
            assert shift_check(cf, n, k) == fold_eval(cf, end)
            assert error_bound(cf, n, k) == 1 / (q[n + 1] * abs(q[n + 1] + x * q[n]))
    for n in range(length):
        d = q[n + 1] if cf.a(n + 1) == 1 else q[n + 1] - q[n]  # D_n
        assert uniform_step_bound(cf, n) == 1 / (q[n + 1] * d)


def test_threads_sharing_one_sweep_answer_as_a_fresh_sequence():
    # Deep sweeps at ten ends, so threads both restart and extend one another's sweeps.
    spec = RandomSpec(seed=12, length=30, minus_probability=Fraction(1, 2))
    cf = random_tietze(spec)
    names = ["tail", "shift_check", "error_bound", "uniform_step_bound"]
    queries = dict(q for q in QUERIES if q[0] in names)
    ends = range(21, 31)
    expected = {}
    for end in ends:
        fresh = random_tietze(spec)
        for n in range(end):
            for name in names:
                expected[name, n, end - n] = queries[name](fresh, n, end - n)
    wrong = []
    errors = []

    def run(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2500):
                name, end = rng.choice(names), rng.choice(ends)
                n = rng.randrange(end)
                if queries[name](cf, n, end - n) != expected[name, n, end - n]:
                    wrong.append((name, n, end))
        except Exception as exc:  # an exception would otherwise end the thread unseen
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert wrong == []
