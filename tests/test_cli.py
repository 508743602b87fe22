import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from semicf import IdentityViolation, ParseError, RandomSpec, SemiRegularCF, random_tietze
from semicf import cli, core, oracle, tails
from semicf.cli import CHECK_TAIL_HORIZON, main, parse_cf, serialize_cf

from conftest import corpus_cf, golden


def run_cli(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    return code, capsys.readouterr().out


GOLDEN_DOC = serialize_cf(golden(8))


class TestParse:
    def test_golden_prefix(self):
        cf = parse_cf('{"b0":"1","terms":[{"a":1,"b":"1"}]}')
        assert cf == SemiRegularCF.from_pairs(1, [(1, 1)])

    def test_constant(self):
        cf = parse_cf('{"b0":"7/3","terms":[]}')
        assert cf.b0 == Fraction(7, 3) and not cf.terms

    def test_zero_sign_rejected(self):
        with pytest.raises(ParseError):
            parse_cf('{"b0":"1","terms":[{"a":0,"b":"2"}]}')

    def test_noncanonical_normalized(self):
        cf = parse_cf('{"b0":"4/6","terms":[]}')
        assert cf.b0 == Fraction(2, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_cf('{"b0":"1/0","terms":[]}')

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse_cf('{"b0":"1.5","terms":[]}')

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_cf('{"b0":"1",')

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            parse_cf('{"b0":"1","terms":[],"x":1}')

    def test_round_trip(self):
        for seed in range(20):
            cf = corpus_cf(seed, max_len=15)
            assert parse_cf(serialize_cf(cf)) == cf

    def test_byte_stability(self):
        doc = serialize_cf(corpus_cf(5))
        assert serialize_cf(parse_cf(doc)) == doc

    def test_deep_nesting_is_a_parse_error(self, monkeypatch, capsys):
        text = "[" * 100000 + "]" * 100000
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_cf(text)
        code, out = run_cli(monkeypatch, capsys, ["check"], stdin=text)
        assert code == 1
        assert json.loads(out)["error"] == "parse error"


class TestExpandCommand:
    def test_negative(self, monkeypatch, capsys):
        code, out = run_cli(monkeypatch, capsys, ["expand", "--algo", "negative", "7/3"])
        assert code == 0
        assert out.strip() == '{"b0":"3","terms":[{"a":-1,"b":"2"},{"a":-1,"b":"2"}]}'

    def test_bad_rational_is_usage_error(self, monkeypatch, capsys):
        code, _ = run_cli(monkeypatch, capsys, ["expand", "--algo", "regular", "1.5"])
        assert code == 2

    def test_bad_algo_is_usage_error(self, monkeypatch, capsys):
        code, _ = run_cli(monkeypatch, capsys, ["expand", "--algo", "x", "1"])
        assert code == 2


class TestEvalCommand:
    def test_golden(self, monkeypatch, capsys):
        code, out = run_cli(
            monkeypatch, capsys, ["eval", "--eps", "1/100"], stdin=GOLDEN_DOC
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["approximation"] == "21/13"
        assert doc["certified_error"] == "1/169"
        assert doc["steps_used"] == 6
        assert doc["exact"] is False

    def test_finite_exact(self, monkeypatch, capsys):
        code, out = run_cli(
            monkeypatch,
            capsys,
            ["eval", "--eps", "1/1000000"],
            stdin='{"b0":"2","terms":[{"a":1,"b":"3"}]}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "approximation": "7/3",
            "certified_error": "0",
            "steps_used": 1,
            "exact": True,
        }

    def test_repeat_extends_period(self, monkeypatch, capsys):
        stdin = '{"b0":"1","terms":[{"a":1,"b":"1"}]}'
        code, out = run_cli(
            monkeypatch, capsys, ["eval", "--eps", "1/100", "--repeat"], stdin=stdin
        )
        assert code == 0
        assert json.loads(out)["approximation"] == "21/13"

    def test_budget_exhausted_exit_3(self, monkeypatch, capsys):
        stdin = '{"b0":"2","terms":[{"a":-1,"b":"2"}]}'
        code, out = run_cli(
            monkeypatch,
            capsys,
            ["eval", "--eps", "1/100", "--max-steps", "10", "--repeat"],
            stdin=stdin,
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == "budget exhausted"
        assert doc["best_bound"] == "1/11"

    def test_parse_error_exit_1(self, monkeypatch, capsys):
        code, out = run_cli(
            monkeypatch, capsys, ["eval", "--eps", "1/10"], stdin="not json"
        )
        assert code == 1
        assert json.loads(out)["error"] == "parse error"

    def test_invalid_input_exit_1(self, monkeypatch, capsys):
        stdin = '{"b0":"0","terms":[{"a":-1,"b":"1"},{"a":-1,"b":"2"}]}'
        code, out = run_cli(monkeypatch, capsys, ["eval", "--eps", "1/10"], stdin=stdin)
        assert code == 1
        doc = json.loads(out)
        assert doc["first_violation"] == {"index": 1, "reason": "GapViolation"}

    def test_cost_does_not_depend_on_max_steps(self, monkeypatch, capsys):
        stdin = '{"b0":"1","terms":[{"a":1,"b":"1"}]}'
        argv = ["eval", "--eps", "1/100", "--repeat", "--max-steps", str(10**12)]
        code, out = run_cli(monkeypatch, capsys, argv, stdin=stdin)
        assert code == 0
        doc = json.loads(out)
        assert doc["approximation"] == "21/13" and doc["steps_used"] == 6

    def test_repeat_reports_wrap_gap_violation(self, monkeypatch, capsys):
        # b_2 + a_3 = b_2 + a_1 = 1 - 1 < 1 once the period wraps
        stdin = '{"b0":"0","terms":[{"a":-1,"b":"2"},{"a":1,"b":"1"}]}'
        argv = ["eval", "--eps", "1/100", "--repeat", "--max-steps", str(10**12)]
        code, out = run_cli(monkeypatch, capsys, argv, stdin=stdin)
        assert code == 1
        assert json.loads(out)["first_violation"] == {"index": 2, "reason": "GapViolation"}

    def test_decimals_display(self, monkeypatch, capsys):
        code, out = run_cli(
            monkeypatch,
            capsys,
            ["eval", "--eps", "1/100", "--decimals", "4"],
            stdin=GOLDEN_DOC,
        )
        assert code == 0
        assert json.loads(out)["decimal"] == "1.6154"


class TestConvergentsCommand:
    def test_listing(self, monkeypatch, capsys):
        code, out = run_cli(monkeypatch, capsys, ["convergents", "-n", "3"], stdin=GOLDEN_DOC)
        assert code == 0
        rows = json.loads(out)["convergents"]
        assert [r["q"] for r in rows] == ["1", "1", "2", "3"]
        assert rows[2]["value"] == "3/2"

    def test_insufficient_terms(self, monkeypatch, capsys):
        code, out = run_cli(monkeypatch, capsys, ["convergents", "-n", "99"], stdin=GOLDEN_DOC)
        assert code == 1
        assert json.loads(out)["error"] == "insufficient terms"


class TestCertifyCommand:
    def test_plus_anchor(self, monkeypatch, capsys):
        code, out = run_cli(monkeypatch, capsys, ["certify", "-n", "4"], stdin=GOLDEN_DOC)
        assert code == 0
        doc = json.loads(out)
        assert doc["anchor"] == 3
        assert doc["regime"] == "PlusAnchor"
        assert Fraction(doc["bound"]) <= Fraction(2, 9)

    def test_all_minus(self, monkeypatch, capsys):
        stdin = serialize_cf(SemiRegularCF.from_pairs(2, [(-1, 2)] * 8))
        code, out = run_cli(monkeypatch, capsys, ["certify", "-n", "5"], stdin=stdin)
        assert code == 0
        doc = json.loads(out)
        assert doc["anchor"] is None
        assert doc["regime"] == "AllMinusTail"
        assert doc["bound"] == "1/6"


class TestCheckCommand:
    def test_valid_document_passes(self, monkeypatch, capsys):
        code, out = run_cli(monkeypatch, capsys, ["check"], stdin=GOLDEN_DOC)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert all(c["pass"] for c in doc["checks"])
        assert {c["name"] for c in doc["checks"]} == {
            "lemma1",
            "determinant",
            "series_equivalence",
            "tail_bounds",
            "shift_identity",
            "error_bounds",
        }

    def test_invalid_document_exit_1(self, monkeypatch, capsys):
        stdin = '{"b0":"0","terms":[{"a":1,"b":"1/2"}]}'
        code, out = run_cli(monkeypatch, capsys, ["check"], stdin=stdin)
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["first_violation"] == {"index": 1, "reason": "BTooSmall"}


CHECK_DOC = serialize_cf(
    random_tietze(RandomSpec(seed=7, length=40, minus_probability=Fraction(1, 2)))
)


def _fail_from(index, real, bad):
    """real, except that it answers bad(real, *args) from the check's index `index` on."""

    def call(*args):
        # args are (state, ...), (cf, n) or (cf, n, k): the index is n or n + k
        first = args[0]
        at = first.n if isinstance(first, core.ConvergentState) else sum(args[1:])
        return bad(real, *args) if at >= index else real(*args)

    return call


def _raise(real, *args):
    raise IdentityViolation("injected")


# For each check: the module and the function it calls, the first index at
# which the injected fault shows, and the fault.
INJECTED_FAULTS = [
    ("lemma1", "core", "gap", 3, lambda real, s, a: Fraction(0)),
    ("determinant", "core", "determinant_check", 4, _raise),
    ("series_equivalence", "oracle", "fold_eval", 5, lambda real, cf, n: real(cf, n) + 1),
    ("tail_bounds", "tails", "tail", 6,
     lambda real, cf, n, k: tails.TailValue(n, k, -real(cf, n, k).value)),
    ("shift_identity", "tails", "shift_check", 7, _raise),
    ("error_bounds", "tails", "error_bound", 8, lambda real, cf, n, k: Fraction(2)),
]


@pytest.mark.parametrize(
    "check, module, func, index, bad", INJECTED_FAULTS, ids=[f[0] for f in INJECTED_FAULTS]
)
def test_check_reports_each_failure_on_its_own(monkeypatch, capsys, check, module, func,
                                                index, bad):
    """A fault in the call one check makes fails that check alone, first at its index.

    The fault goes into the module as cli sees it, so library functions that
    call the same function internally still get the real one."""
    real_module = getattr(cli, module)
    view = SimpleNamespace(**vars(real_module))
    setattr(view, func, _fail_from(index, getattr(real_module, func), bad))
    monkeypatch.setattr(cli, module, view)
    code, out = run_cli(monkeypatch, capsys, ["check"], stdin=CHECK_DOC)
    assert code == 1
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == [f[0] for f in INJECTED_FAULTS]
    for c in doc["checks"]:
        expected = index if c["name"] == check else None
        assert (c["pass"], c["first_failure"]) == (expected is None, expected), c["name"]


def test_check_starts_one_tail_sweep_per_end(monkeypatch, capsys):
    real_tail = tails.tail
    sweeps = []

    def tail(cf, n, k):
        value = real_tail(cf, n, k)
        if not sweeps or sweeps[-1] is not cf._sweep:
            sweeps.append(cf._sweep)
        return value

    monkeypatch.setattr(tails, "tail", tail)
    code, _ = run_cli(monkeypatch, capsys, ["check"], stdin=CHECK_DOC)
    assert code == 0
    assert len(sweeps) == CHECK_TAIL_HORIZON == 30


RATIONAL_A = ('{"b0":"7/3","terms":[{"a":1,"b":"5/2"},{"a":-1,"b":"3"},{"a":1,"b":"7/3"},'
              '{"a":-1,"b":"7/2"},{"a":1,"b":"1"},{"a":1,"b":"9/4"}]}')
RATIONAL_B = '{"b0":"-1/2","terms":[{"a":-1,"b":"5/2"},{"a":1,"b":"7/3"}]}'
EPS = "1/100000000000000000000"

# Exit code and sha256 of stdout, recorded with the earlier recurrence over
# reduced Fractions; the integer-window kernel must print the same bytes.
GOLDEN = [
    (["convergents", "-n", "6", "--decimals", "12"], RATIONAL_A, 0,
     "8d69a504a49f5c5450795b0afe82884cc55be50db5fd65fd658b01d14a6117b7"),
    (["convergents", "-n", "8", "--repeat", "--decimals", "12"], RATIONAL_B, 0,
     "fa4128fb547447ff5beb20c925b6ce3d8f18f3985a1cf2fe6fe7c2c5383f26d4"),
    (["certify", "-n", "5"], RATIONAL_A, 0,
     "45e542f548fff774353b775f219278e66992ef648cfec71813189b39465c6171"),
    (["certify", "-n", "40", "--repeat"], RATIONAL_B, 0,
     "66cf252ed54f88ec758b0f624e35ae8eb9e2ff05267b0652325fc95ff796ffa9"),
    (["check"], RATIONAL_A, 0,
     "f9ac3ab3ff2cc40f630e43cbcce42b0e04c7ee9fa3f159eb1c1c3539d5e774f0"),
    (["check"], RATIONAL_B, 0,
     "f9ac3ab3ff2cc40f630e43cbcce42b0e04c7ee9fa3f159eb1c1c3539d5e774f0"),
    (["eval", "--eps", EPS, "--repeat"], RATIONAL_A, 0,
     "0da796308b314c9f521f3b3c609632039e472aab65d5147399af70e3cc69a7e4"),
    (["eval", "--eps", EPS, "--repeat"], RATIONAL_B, 0,
     "b761192b978e8775d8e3fc8dcecd368aaea92924766512b4e88ddb137854eb4d"),
]


@pytest.mark.parametrize(
    "argv, stdin, code, digest", GOLDEN,
    ids=[f"{g[0][0]}-{'AB'[g[1] == RATIONAL_B]}" for g in GOLDEN],
)
def test_golden_output_on_rational_documents(monkeypatch, capsys, argv, stdin, code, digest):
    got, out = run_cli(monkeypatch, capsys, argv, stdin=stdin)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_usage_error_exit_2(monkeypatch, capsys):
    code, _ = run_cli(monkeypatch, capsys, ["nope"])
    assert code == 2


class _UnreadableStdin:
    def read(self, *args):
        raise AssertionError("stdin read before the arguments were checked")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["convergents", "-n", "-1"], "-n"),
        (["certify", "-n", "-1"], "-n"),
        (["eval", "--eps", "1/10", "--decimals", "-3"], "--decimals"),
        (["convergents", "-n", "2", "--decimals", "-1"], "--decimals"),
    ],
)
def test_negative_counts_are_usage_errors(monkeypatch, capsys, argv, flag):
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be >= 0" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["eval", "--eps", "1/100", "--repeat", "--max-steps", str(sys.maxsize)], "--max-steps"),
        (["convergents", "-n", str(sys.maxsize + 1), "--repeat"], "-n"),
        (["certify", "-n", str(sys.maxsize), "--repeat"], "-n"),
    ],
    ids=["eval", "convergents", "certify"],
)
def test_horizons_beyond_maxsize_are_usage_errors(monkeypatch, capsys, argv, flag):
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be >= 0 and < {sys.maxsize}" in captured.err


def test_largest_accepted_horizon(monkeypatch, capsys):
    code, out = run_cli(
        monkeypatch, capsys, ["certify", "-n", str(sys.maxsize - 1)], stdin=GOLDEN_DOC
    )
    assert code == 1
    assert json.loads(out) == {"error": "insufficient terms", "available": 8}


HUGE = "1" * 5000  # over Python's default 4300-digit int/str conversion limit


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["check"], '{"b0":"%s","terms":[]}' % HUGE),
        (["check"], '{"b0":%s,"terms":[]}' % HUGE),
        (["check"], '{"b0":"1","terms":[{"a":1,"b":"1/%s"}]}' % HUGE),
        (["eval", "--eps", "1/" + HUGE], GOLDEN_DOC),
    ],
    ids=["b0", "b0-json-number", "b", "eps"],
)
def test_oversized_numbers_are_parse_errors(monkeypatch, capsys, argv, stdin):
    code, out = run_cli(monkeypatch, capsys, argv, stdin=stdin)
    assert code == 1
    assert json.loads(out)["error"] == "parse error"


def test_oversized_expand_argument_is_usage_error(monkeypatch, capsys):
    code, out = run_cli(monkeypatch, capsys, ["expand", "--algo", "regular", HUGE])
    assert code == 2
    assert out == ""


def _assert_output_too_large(code, out):
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out)["error"] == "output too large"


def test_convergents_over_the_digit_limit(monkeypatch, capsys):
    big = "9" * 4000  # p_2 = b_1 b_2 + 1 has about 8000 digits
    stdin = '{"b0":"0","terms":[{"a":1,"b":"%s"},{"a":1,"b":"%s"}]}' % (big, big)
    code, out = run_cli(monkeypatch, capsys, ["convergents", "-n", "2"], stdin=stdin)
    _assert_output_too_large(code, out)


@pytest.mark.parametrize("decimals", [5000, 10**7, sys.maxsize - 1])
def test_decimals_over_the_digit_limit(monkeypatch, capsys, decimals):
    stdin = '{"b0":"1","terms":[{"a":1,"b":"1"}]}'
    argv = ["eval", "--eps", "1/100", "--repeat", "--decimals", str(decimals)]
    start = time.perf_counter()
    code, out = run_cli(monkeypatch, capsys, argv, stdin=stdin)
    assert time.perf_counter() - start < 1  # the power of ten is never built
    _assert_output_too_large(code, out)


def test_decimals_beyond_the_digit_limit_that_fit(monkeypatch, capsys):
    # 10**-4000 to 5000 places: 10**1000 has 1001 digits, inside the limit.
    stdin = '{"b0":"0","terms":[{"a":1,"b":"1%s"}]}' % ("0" * 4000)
    argv = ["eval", "--eps", "1/100", "--decimals", "5000"]
    code, out = run_cli(monkeypatch, capsys, argv, stdin=stdin)
    assert code == 0
    assert json.loads(out)["decimal"] == "0." + "0" * 3999 + "1" + "0" * 1000


def test_zero_prints_up_to_the_decimals_cap(monkeypatch, capsys):
    # Zero is capped like any value: at the limit plus its denominator's one bit.
    places = sys.get_int_max_str_digits() + 1
    argv = ["eval", "--eps", "1/100", "--decimals", str(places)]
    code, out = run_cli(monkeypatch, capsys, argv, stdin='{"b0":"0","terms":[]}')
    assert code == 0
    assert json.loads(out)["decimal"] == "0." + "0" * places
    argv[-1] = str(places + 1)
    code, out = run_cli(monkeypatch, capsys, argv, stdin='{"b0":"0","terms":[]}')
    _assert_output_too_large(code, out)


def test_zero_over_the_decimals_cap_answers_at_once(monkeypatch, capsys):
    argv = ["eval", "--eps", "1/10", "--decimals", str(10**9)]
    start = time.perf_counter()
    code, out = run_cli(monkeypatch, capsys, argv, stdin='{"b0":"0","terms":[]}')
    assert time.perf_counter() - start < 1  # no billion-character string is built
    _assert_output_too_large(code, out)


def test_expand_stops_at_the_term_cap(monkeypatch, capsys):
    # The negative expansion of 1/N has N - 1 terms, all 2.
    argv = ["expand", "--algo", "negative", f"1/{10**12}"]
    start = time.perf_counter()
    code, out = run_cli(monkeypatch, capsys, argv)
    assert time.perf_counter() - start < 1  # the loop stops one term past the cap
    _assert_output_too_large(code, out)
    assert str(cli.EXPAND_MAX_TERMS) in json.loads(out)["detail"]


def test_expand_term_cap_boundary(monkeypatch, capsys):
    monkeypatch.setattr(cli, "EXPAND_MAX_TERMS", 5)
    code, out = run_cli(monkeypatch, capsys, ["expand", "--algo", "negative", "1/6"])
    assert code == 0 and len(json.loads(out)["terms"]) == 5
    code, out = run_cli(monkeypatch, capsys, ["expand", "--algo", "negative", "1/7"])
    _assert_output_too_large(code, out)
