"""Exact arithmetic for semi-regular continued fractions.

Convergents, tail values, and certified error bounds for continued
fractions with numerators in {-1, +1}, all computed over exact rationals.
"""

from .core import (
    B_TOO_SMALL,
    GAP_VIOLATION,
    ConvergentState,
    SemiRegularCF,
    Term,
    ValidationReport,
    Violation,
    convergent,
    determinant_check,
    init_state,
    iter_states,
    series_partial_sum,
    state_at,
    step,
    validate,
)
from .errors import (
    BudgetExhausted,
    CFError,
    DenominatorBelowOne,
    IdentityViolation,
    InsufficientTerms,
    ParseError,
    TietzeViolation,
    ZeroDenominator,
)
from .expand import (
    RandomSpec,
    nearest_int_expand,
    negative_expand,
    random_tietze,
    regular_expand,
)
from .oracle import fold_eval
from .tails import (
    ALL_MINUS_TAIL,
    DEFAULT_MAX_STEPS,
    PLUS_ANCHOR,
    ErrorCertificate,
    EvalResult,
    TailValue,
    anchor_index,
    certify,
    error_bound,
    evaluate,
    shift_check,
    tail,
    uniform_step_bound,
)

__version__ = "0.1.0"
