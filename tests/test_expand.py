import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semicf
from semicf import (
    RandomSpec,
    SemiRegularCF,
    fold_eval,
    iter_states,
    nearest_int_expand,
    negative_expand,
    random_tietze,
    regular_expand,
    validate,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=999
)
EXPANSIONS = st.sampled_from([regular_expand, negative_expand, nearest_int_expand])

#: Below the spacing 2**-53 of random()'s values, and of floats in [1/2, 1).
EPS_70 = Fraction(1, 2**70)


def pairs(cf):
    return [(t.a, t.b) for t in cf.terms]


class TestRegular:
    def test_seven_thirds(self):
        cf = regular_expand(Fraction(7, 3))
        assert cf.b0 == 2
        assert pairs(cf) == [(1, 3)]

    def test_integer(self):
        cf = regular_expand(5)
        assert cf.b0 == 5 and not cf.terms

    def test_pi_approx(self):
        cf = regular_expand(Fraction(355, 113))
        assert cf.b0 == 3
        assert pairs(cf) == [(1, 7), (1, 16)]


class TestNegative:
    def test_seven_thirds(self):
        cf = negative_expand(Fraction(7, 3))
        assert cf.b0 == 3
        assert pairs(cf) == [(-1, 2), (-1, 2)]

    def test_integer(self):
        cf = negative_expand(5)
        assert cf.b0 == 5 and not cf.terms

    def test_half(self):
        cf = negative_expand(Fraction(1, 2))
        assert cf.b0 == 1
        assert pairs(cf) == [(-1, 2)]

    def test_feeds_linear_growth(self):
        # all-minus expansions satisfy q_n >= n + 1
        cf = negative_expand(Fraction(617, 513))
        for s in iter_states(cf):
            assert s.q_cur >= s.n + 1


class TestNearestInteger:
    def test_seven_thirds(self):
        cf = nearest_int_expand(Fraction(7, 3))
        assert cf.b0 == 2
        assert pairs(cf) == [(1, 3)]

    def test_five_thirds(self):
        cf = nearest_int_expand(Fraction(5, 3))
        assert cf.b0 == 2
        assert pairs(cf) == [(-1, 3)]

    def test_tie_rounds_away_from_zero(self):
        cf = nearest_int_expand(Fraction(3, 2))
        assert cf.b0 == 2
        assert pairs(cf) == [(-1, 2)]
        cf = nearest_int_expand(Fraction(-3, 2))
        assert cf.b0 == -2
        assert pairs(cf) == [(1, 2)]

    def test_denominators_at_least_two(self):
        for num in range(-40, 40):
            cf = nearest_int_expand(Fraction(num, 7))
            assert all(t.b >= 2 for t in cf.terms)


@settings(deadline=None, max_examples=150)
@given(x=rationals, algo=EXPANSIONS)
def test_round_trip_and_validity(x, algo):
    cf = algo(x)
    assert validate(cf).valid
    assert fold_eval(cf) == x


def _rounded(algo, x):
    """The integer part each algorithm takes of a complete quotient x."""
    if algo is regular_expand:
        return math.floor(x)
    if algo is negative_expand:
        return math.ceil(x)
    half = Fraction(1, 2)  # nearest, ties away from zero
    return math.floor(x + half) if x >= 0 else -math.floor(half - x)


def _numerator(algo, remainder):
    """The numerator each algorithm writes after a nonzero remainder."""
    if algo is regular_expand:
        return 1
    if algo is negative_expand:
        return -1
    return 1 if remainder > 0 else -1


@settings(deadline=None, max_examples=150)
@given(x=rationals, algo=EXPANSIONS)
@example(x=Fraction(5, 2), algo=nearest_int_expand)
@example(x=Fraction(-5, 2), algo=nearest_int_expand)
@example(x=Fraction(-1, 2), algo=nearest_int_expand)
@example(x=Fraction(7, 5), algo=nearest_int_expand)  # the tail 5/2 is a tie
@example(x=Fraction(-7, 5), algo=nearest_int_expand)
@example(x=Fraction(-3, 2), algo=regular_expand)
@example(x=Fraction(-3, 2), algo=negative_expand)
@example(x=Fraction(-355, 113), algo=regular_expand)
@example(x=Fraction(-355, 113), algo=negative_expand)
def test_each_denominator_is_the_rounded_complete_quotient(x, algo):
    cf = algo(x)
    assert fold_eval(cf) == x
    for n in range(len(cf) + 1):
        b = cf.b0 if n == 0 else cf.terms[n - 1].b
        quotient = fold_eval(SemiRegularCF(b, cf.terms[n:]))  # x_n = b_n + a_{n+1}/x_{n+1}
        assert b == _rounded(algo, quotient)
        if n < len(cf):
            assert cf.terms[n].a == _numerator(algo, quotient - b)


def test_semicf_expand_is_the_module():
    import semicf.expand as m

    assert m.random_tietze is random_tietze and m.regular_expand is regular_expand
    assert m is sys.modules["semicf.expand"] is semicf.expand


class TestRandomTietze:
    def test_deterministic(self):
        spec = RandomSpec(seed=42, length=30)
        assert random_tietze(spec) == random_tietze(spec)

    def test_no_minus(self):
        cf = random_tietze(RandomSpec(seed=7, length=40, minus_probability=0))
        assert all(t.a == 1 for t in cf.terms)

    def test_all_minus(self):
        cf = random_tietze(RandomSpec(seed=7, length=40, minus_probability=1))
        assert all(t.a == -1 for t in cf.terms)
        assert all(t.b >= 2 for t in cf.terms[:-1])

    @pytest.mark.parametrize("seed", range(0, 40, 7))
    def test_always_valid(self, seed):
        for integer_only in (False, True):
            spec = RandomSpec(
                seed=seed,
                length=seed % 20 + 1,
                minus_probability=Fraction(1, 2),
                integer_only=integer_only,
            )
            assert validate(random_tietze(spec)).valid

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 7)] + [
        Fraction(m, 2**53) + d for m in (3, 2**52 + 3) for d in (0, EPS_70, -EPS_70)
    ])
    def test_signs_are_exact_next_to_the_threshold(self, monkeypatch, p):
        # random() gives k / 2**53; test k = T - 1, T, T + 1 for T = ceil(p 2**53).
        # Seeded draws meet each of these k once in 2**53 draws.
        threshold = math.ceil(p * 2**53)
        ks = [k for k in (threshold - 1, threshold, threshold + 1) if 0 <= k < 2**53]
        monkeypatch.setattr(semicf.expand, "random",
                            SimpleNamespace(Random=lambda seed: _Draws(k / 2**53 for k in ks)))
        spec = RandomSpec(seed=0, length=len(ks), minus_probability=p, integer_only=True)
        signs = [t.a for t in random_tietze(spec).terms]
        assert signs == [-1 if Fraction(k, 2**53) < p else 1 for k in ks]

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_random_is_an_integer_over_two_to_the_53(self, seed):
        # The premise of random_tietze's float threshold, on this Python.
        rng = random.Random(seed)
        for _ in range(10_000):
            k = rng.random() * 2**53  # exact: a power-of-two scaling
            assert k.is_integer() and 0 <= k < 2**53

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomSpec(seed=1, length=0)
        with pytest.raises(ValueError):
            RandomSpec(seed=-1, length=5)
        with pytest.raises(ValueError):
            RandomSpec(seed=1, length=5, minus_probability=2)


class _Draws:
    """Stands in for random.Random: random() returns the given draws in order,
    and randint(lo, hi) returns lo."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)

    def randint(self, lo, hi):
        return lo
