"""The public records: immutable, copyable, picklable, printed as before,
and built without importing dataclasses; and the public names themselves."""

import copy
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import semicf
from semicf import (
    RandomSpec,
    SemiRegularCF,
    Term,
    ValidationReport,
    Violation,
    certify,
    error_bound,
    evaluate,
    series_partial_sum,
    shift_check,
    state_at,
    tail,
    uniform_step_bound,
)

CF = SemiRegularCF.from_pairs(Fraction(1, 2), [(1, 2), (-1, Fraction(5, 3))])

#: One instance of each record, with its repr as recorded before the records
#: stopped being dataclasses.
RECORDS = {
    "Term": (Term(-1, Fraction(5, 3)), "Term(a=-1, b=Fraction(5, 3))"),
    "PeriodicTerms": (
        SemiRegularCF.periodic(1, [(1, 2)], 3).terms,
        "PeriodicTerms(period=(Term(a=1, b=Fraction(2, 1)),), length=3)",
    ),
    "SemiRegularCF": (
        CF,
        "SemiRegularCF(b0=Fraction(1, 2), terms=(Term(a=1, b=Fraction(2, 1)), "
        "Term(a=-1, b=Fraction(5, 3))))",
    ),
    "RandomSpec": (
        RandomSpec(seed=7, length=3),
        "RandomSpec(seed=7, length=3, minus_probability=Fraction(1, 3), integer_only=False)",
    ),
    "ConvergentState": (
        state_at(CF, 2),
        "ConvergentState(n=2, P_prev=12, P_cur=17, Q_prev=12, Q_cur=14, scale=6, det=1)",
    ),
    "Violation": (Violation(2, "GapViolation"), "Violation(index=2, reason='GapViolation')"),
    "ValidationReport": (
        ValidationReport(Violation(2, "GapViolation")),
        "ValidationReport(first_violation=Violation(index=2, reason='GapViolation'))",
    ),
    "TailValue": (tail(CF, 0, 2), "TailValue(n=0, k=2, value=Fraction(5, 7))"),
    "ErrorCertificate": (
        certify(SemiRegularCF.from_pairs(1, [(1, 2), (1, 2), (1, 1)]), 2),
        "ErrorCertificate(n=2, anchor=1, bound=Fraction(1, 35))",
    ),
    "EvalResult": (
        evaluate(CF, Fraction(1, 10)),
        "EvalResult(approximation=Fraction(17, 14), certified_error=Fraction(0, 1), "
        "steps_used=2)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record, recorded_repr = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == recorded_repr
    field = recorded_repr.split("(", 1)[1].split("=", 1)[0]  # the first field
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    cls = type(record)
    match record:
        case cls(first):  # a positional pattern binds the first field
            assert first is before
        case _:
            pytest.fail(f"{name} does not match its positional pattern")
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        assert hash(twin) == hash(record) and repr(twin) == recorded_repr


def test_queries_on_a_copied_sequence_answer_as_on_the_original():
    cf = SemiRegularCF.from_pairs(1, [(1, 1)] * 5)
    tail(cf, 0, 5)
    queries = [
        lambda c: state_at(c, 5), lambda c: tail(c, 1, 4), lambda c: series_partial_sum(c, 5),
        lambda c: shift_check(c, 1, 4), lambda c: error_bound(c, 1, 4),
        lambda c: uniform_step_bound(c, 2),
    ]
    answers = [query(cf) for query in queries]
    for twin in (copy.copy(cf), copy.deepcopy(cf), pickle.loads(pickle.dumps(cf))):
        assert [query(twin) for query in queries] == [query(cf) for query in queries] == answers


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(semicf.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import semicf.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_public_surface():
    """semicf's public names, its submodules aside, and what ConvergentState
    adds to tuple: an API change is an edit here."""
    names = {n for n, v in vars(semicf).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == {
        "ALL_MINUS_TAIL", "B_TOO_SMALL", "DEFAULT_MAX_STEPS", "GAP_VIOLATION", "PLUS_ANCHOR",
        "BudgetExhausted", "CFError", "DenominatorBelowOne", "IdentityViolation",
        "InsufficientTerms", "ParseError", "TietzeViolation", "ZeroDenominator",
        "ConvergentState", "ErrorCertificate", "EvalResult", "RandomSpec", "SemiRegularCF",
        "TailValue", "Term", "ValidationReport", "Violation",
        "anchor_index", "certify", "convergent", "determinant_check", "error_bound",
        "evaluate", "fold_eval", "init_state", "iter_states", "nearest_int_expand",
        "negative_expand", "random_tietze", "regular_expand", "series_partial_sum",
        "shift_check", "state_at", "step", "tail", "uniform_step_bound", "validate",
    }
    state = semicf.ConvergentState
    assert {n for n in set(dir(state)) - set(dir(tuple)) if not n.startswith("_")} == {
        "n", "P_prev", "P_cur", "Q_prev", "Q_cur", "scale", "det", "p_cur", "q_cur", "value",
    }
