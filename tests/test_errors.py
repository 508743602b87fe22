"""The errors that carry data: raised by the library, they copy, deepcopy
and pickle with their type, message and data intact."""

import copy
import pickle
from fractions import Fraction

import pytest

from semicf import (
    BudgetExhausted,
    InsufficientTerms,
    SemiRegularCF,
    Violation,
    ZeroDenominator,
    certify,
    convergent,
    evaluate,
    fold_eval,
    tail,
    uniform_step_bound,
)


def _raised(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except Exception as exc:
        return exc
    pytest.fail(f"{call.__name__} did not raise")


GOLDEN = SemiRegularCF.periodic(1, [(1, 1)], 10**6)

#: One error of each kind as the library raises it, with its message and data.
ERRORS = {
    "ZeroDenominator": (
        lambda: _raised(fold_eval, SemiRegularCF.from_pairs(0, [(1, 1), (-1, 1)]), 2),
        "zero denominator while folding at index 1",
        {"index": 1},
    ),
    "BudgetExhausted": (
        lambda: _raised(evaluate, GOLDEN, Fraction(1, 10**6), max_steps=3),
        "no certificate within 3 steps; see best_bound",
        {"max_steps": 3, "best_bound": Fraction(1, 9)},
    ),
    "TietzeViolation": (
        lambda: _raised(certify, SemiRegularCF.from_pairs(0, [(1, 2), (-1, Fraction(1, 3))]), 1),
        "BTooSmall at index 2 (b_2 = 1/3)",
        {"violation": Violation(2, "BTooSmall")},
    ),
    "InsufficientTerms": (
        lambda: _raised(convergent, SemiRegularCF.from_pairs(0, [(1, 2)]), 5),
        "index 5 outside 0..1",
        {"available": 1},
    ),
}


@pytest.mark.parametrize("name", ERRORS)
def test_error_keeps_its_data_through_copy_and_pickle(name):
    make, message, data = ERRORS[name]
    error = make()
    assert type(error).__name__ == name
    for twin in (error, copy.copy(error), copy.deepcopy(error),
                 pickle.loads(pickle.dumps(error))):
        assert type(twin) is type(error) and str(twin) == message
        assert {attr: getattr(twin, attr) for attr in data} == data
        assert twin.args == error.args


def test_public_constructors_keep_their_signatures():
    assert str(ZeroDenominator(3)) == "zero denominator while folding at index 3"
    error = BudgetExhausted(10, Fraction(1, 11))
    assert (error.max_steps, error.best_bound) == (10, Fraction(1, 11))
    assert str(error) == "no certificate within 10 steps; see best_bound"


#: b_1 = 1/10**5000 has a denominator that str() refuses past the int-to-str
#: digit limit; each error about it must still be raised, with a message.
TINY_B = [(1, Fraction(1, 10**5000))]
ABOUT_A_LONG_NUMBER = {
    "TietzeViolation": lambda: _raised(evaluate, SemiRegularCF.from_pairs(0, TINY_B), 1),
    "DenominatorBelowOne": lambda: _raised(tail, SemiRegularCF.from_pairs(0, TINY_B), 0, 1),
    "IdentityViolation": lambda: _raised(
        uniform_step_bound, SemiRegularCF.from_pairs(0, TINY_B + [(1, 1)]), 1),
}


@pytest.mark.parametrize("name", ABOUT_A_LONG_NUMBER)
def test_an_error_about_a_number_too_long_to_print_is_still_raised(name):
    error = ABOUT_A_LONG_NUMBER[name]()
    assert type(error).__name__ == name
    assert "<a number past the int-to-str digit limit>" in str(error)
