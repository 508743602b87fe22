from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicf import SemiRegularCF, ZeroDenominator, convergent, fold_eval, shift_check
from semicf.errors import InsufficientTerms

from conftest import corpus_cf, golden


def test_direct_substitution():
    cf = SemiRegularCF.from_pairs(2, [(1, 3)])
    assert fold_eval(cf, 1) == Fraction(7, 3)


def test_no_fold_at_zero():
    assert fold_eval(golden(4), 0) == 1
    assert fold_eval(SemiRegularCF.from_pairs(Fraction(7, 3), []), 0) == Fraction(7, 3)


def test_golden_depth_two():
    assert fold_eval(golden(4), 2) == Fraction(3, 2)


def test_matches_recurrence_on_random_sequences():
    for seed in range(30):
        cf = corpus_cf(seed, max_len=25)
        for n in range(len(cf) + 1):
            assert fold_eval(cf, n) == convergent(cf, n)


def test_tail_consistency():
    cf = corpus_cf(9, max_len=20)
    for n in range(len(cf)):
        for k in range(1, len(cf) - n + 1):
            assert fold_eval(cf, n + k) == shift_check(cf, n, k)


def test_zero_denominator_reported():
    # invalid sequence: inner fold produces b1 + (-1) = 0
    cf = SemiRegularCF.from_pairs(0, [(1, 1), (-1, 1)])
    with pytest.raises(ZeroDenominator) as exc:
        fold_eval(cf, 2)
    assert exc.value.index == 1


def test_insufficient_terms():
    with pytest.raises(InsufficientTerms):
        fold_eval(golden(2), 3)


def plain_fold(cf, n):
    """b0 + a1/(b1 + ... + an/bn), folded backward over reduced Fractions."""
    acc = Fraction(0)
    for i in range(n, 0, -1):
        den = cf.b(i) + acc
        if den == 0:
            raise ZeroDenominator(i)
        acc = cf.a(i) / den
    return cf.b0 + acc


TERMS = st.tuples(
    st.sampled_from([1, -1]),
    st.one_of(
        st.integers(1, 4),
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
    ),
)


@settings(deadline=None, max_examples=300)
@given(
    b0=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    pairs=st.lists(TERMS, max_size=12),
)
@example(b0=Fraction(0), pairs=[(1, 1), (-1, 1)])  # b_1 + x = 0 at index 1
@example(b0=Fraction(1, 2), pairs=[(1, Fraction(1, 2)), (-1, 2)])  # 1/2 - 1/2 = 0
@example(b0=Fraction(0), pairs=[(1, 2), (1, 1), (-1, 1), (1, 3)])  # zero at index 2
def test_fold_eval_matches_a_plain_fraction_fold(b0, pairs):
    """Integer or rational b, valid or not: every prefix folds to the same value,
    or both folds hit a zero denominator at the same index."""
    cf = SemiRegularCF.from_pairs(b0, pairs)
    for n in range(len(cf) + 1):
        try:
            expected = plain_fold(cf, n)
        except ZeroDenominator as exc:
            with pytest.raises(ZeroDenominator) as got:
                fold_eval(cf, n)
            assert got.value.index == exc.index
        else:
            assert fold_eval(cf, n) == expected
