import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicf import IdentityViolation, ParseError, RandomSpec, SemiRegularCF, random_tietze
from semicf import cli, core, oracle, tails
from semicf.cli import CHECK_TAIL_HORIZON, parse_cf, serialize_cf

from conftest import corpus_cf, golden
from runner import run


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

    @pytest.mark.parametrize("a", ["1.0", "-1.0", "1e0", "true"])
    def test_sign_that_is_not_an_int_rejected(self, a):
        stdin = '{"b0":"0","terms":[{"a":%s,"b":"1"}]}' % a
        with pytest.raises(ParseError, match=r"terms\[0\]\.a: must be 1 or -1"):
            parse_cf(stdin)
        code, out, _ = run(["check"], stdin=stdin)
        assert code == 1 and json.loads(out)["error"] == "parse error"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[]', "document must be a JSON object"),
            ('{"b0":"1"}', "document needs both 'b0' and 'terms'"),
            ('{"terms":[]}', "document needs both 'b0' and 'terms'"),
            ('{"b0":"1","terms":{}}', "terms: expected a list"),
            ('{"b0":"1","terms":[{"a":1}]}', r"terms\[0\]: expected an object with fields"),
            ('{"b0":"1","terms":[{"a":1,"b":"1","c":0}]}', r"terms\[0\]: expected an object"),
            ('{"b0":"1","terms":[[1,"1"]]}', r"terms\[0\]: expected an object"),
        ],
    )
    def test_document_shape_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_cf(text)
        code, out, _ = run(["check"], stdin=text)
        assert code == 1 and json.loads(out)["error"] == "parse error"

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

    def test_deep_nesting_is_a_parse_error(self):
        text = "[" * 100000 + "]" * 100000
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_cf(text)
        code, out, _ = run(["check"], stdin=text)
        assert code == 1
        assert json.loads(out)["error"] == "parse error"


class TestExpandCommand:
    def test_negative(self):
        code, out, _ = run(["expand", "--algo", "negative", "7/3"])
        assert code == 0
        assert out.strip() == '{"b0":"3","terms":[{"a":-1,"b":"2"},{"a":-1,"b":"2"}]}'

    def test_bad_rational_is_usage_error(self):
        code, _, _ = run(["expand", "--algo", "regular", "1.5"])
        assert code == 2

    def test_bad_algo_is_usage_error(self):
        code, out, err = run(["expand", "--algo", "x", "1"])
        assert (code, out) == (2, "")
        assert "choose from 'regular', 'negative', 'nearest'" in err


class TestEvalCommand:
    def test_golden(self):
        code, out, _ = run(["eval", "--eps", "1/100"], stdin=GOLDEN_DOC)
        assert code == 0
        doc = json.loads(out)
        assert doc["approximation"] == "21/13"
        assert doc["certified_error"] == "1/169"
        assert doc["steps_used"] == 6
        assert doc["exact"] is False

    def test_finite_exact(self):
        stdin = '{"b0":"2","terms":[{"a":1,"b":"3"}]}'
        code, out, _ = run(["eval", "--eps", "1/1000000"], stdin=stdin)
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "approximation": "7/3",
            "certified_error": "0",
            "steps_used": 1,
            "exact": True,
        }

    def test_repeat_extends_period(self):
        stdin = '{"b0":"1","terms":[{"a":1,"b":"1"}]}'
        code, out, _ = run(["eval", "--eps", "1/100", "--repeat"], stdin=stdin)
        assert code == 0
        assert json.loads(out)["approximation"] == "21/13"

    def test_budget_exhausted_exit_3(self):
        stdin = '{"b0":"2","terms":[{"a":-1,"b":"2"}]}'
        argv = ["eval", "--eps", "1/100", "--max-steps", "10", "--repeat"]
        code, out, _ = run(argv, stdin=stdin)
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == "budget exhausted"
        assert doc["best_bound"] == "1/11"

    def test_parse_error_exit_1(self):
        code, out, _ = run(["eval", "--eps", "1/10"], stdin="not json")
        assert code == 1
        assert json.loads(out)["error"] == "parse error"

    def test_invalid_input_exit_1(self):
        stdin = '{"b0":"0","terms":[{"a":-1,"b":"1"},{"a":-1,"b":"2"}]}'
        code, out, _ = run(["eval", "--eps", "1/10"], stdin=stdin)
        assert code == 1
        doc = json.loads(out)
        assert doc["first_violation"] == {"index": 1, "reason": "GapViolation"}

    def test_cost_does_not_depend_on_max_steps(self):
        stdin = '{"b0":"1","terms":[{"a":1,"b":"1"}]}'
        argv = ["eval", "--eps", "1/100", "--repeat", "--max-steps", str(10**12)]
        code, out, _ = run(argv, stdin=stdin)
        assert code == 0
        doc = json.loads(out)
        assert doc["approximation"] == "21/13" and doc["steps_used"] == 6

    @pytest.mark.parametrize("argv", [
        ["eval", "--eps", "1/100", "--max-steps", str(10**12)],
        ["eval", "--eps", "1/100", "--max-steps", "1"],
        ["certify", "-n", "0"],
        ["certify", "-n", "1"],
        ["convergents", "-n", "1"],
    ], ids=["eval-long", "eval-1", "certify-0", "certify-1", "convergents-1"])
    def test_repeat_reports_wrap_gap_violation(self, argv):
        # b_2 + a_3 = b_2 + a_1 = 1 - 1 < 1 once the period wraps, which it
        # does however few terms the request reads.
        stdin = '{"b0":"0","terms":[{"a":-1,"b":"2"},{"a":1,"b":"1"}]}'
        code, out, _ = run(argv + ["--repeat"], stdin=stdin)
        assert code == 1
        assert json.loads(out)["first_violation"] == {"index": 2, "reason": "GapViolation"}

    def test_decimals_display(self):
        code, out, _ = run(["eval", "--eps", "1/100", "--decimals", "4"], stdin=GOLDEN_DOC)
        assert code == 0
        assert json.loads(out)["decimal"] == "1.6154"

    @pytest.mark.parametrize("b0, decimal", [("-7/2", "-4"), ("-5/2", "-2"), ("5/2", "2")])
    def test_decimals_zero_rounds_half_to_even(self, b0, decimal):
        argv = ["eval", "--eps", "1/10", "--decimals", "0"]
        stdin = '{"b0":"%s","terms":[]}' % b0
        code, out, _ = run(argv, stdin=stdin)
        assert code == 0 and json.loads(out)["decimal"] == decimal

    def test_zero_max_steps_is_usage_error_before_stdin(self):
        code, out, err = run(["eval", "--eps", "1/10", "--max-steps", "0"], _UnreadableStdin())
        assert code == 2 and out == ""
        assert err == "error: --max-steps must be >= 1\n"


class TestConvergentsCommand:
    def test_listing(self):
        code, out, _ = run(["convergents", "-n", "3"], stdin=GOLDEN_DOC)
        assert code == 0
        rows = json.loads(out)["convergents"]
        assert [r["q"] for r in rows] == ["1", "1", "2", "3"]
        assert rows[2]["value"] == "3/2"

    def test_decimals_zero(self):
        stdin = '{"b0":"-4","terms":[{"a":1,"b":"2"},{"a":1,"b":"2"}]}'
        argv = ["convergents", "-n", "2", "--decimals", "0"]
        code, out, _ = run(argv, stdin=stdin)
        rows = json.loads(out)["convergents"]
        assert code == 0
        assert [(r["value"], r["decimal"]) for r in rows] == [("-4", "-4"), ("-7/2", "-4"),
                                                              ("-18/5", "-4")]

    def test_insufficient_terms(self):
        code, out, _ = run(["convergents", "-n", "99"], stdin=GOLDEN_DOC)
        assert code == 1
        assert json.loads(out)["error"] == "insufficient terms"


class TestCertifyCommand:
    def test_plus_anchor(self):
        code, out, _ = run(["certify", "-n", "4"], stdin=GOLDEN_DOC)
        assert code == 0
        doc = json.loads(out)
        assert doc["anchor"] == 3
        assert doc["regime"] == "PlusAnchor"
        assert Fraction(doc["bound"]) <= Fraction(2, 9)

    def test_all_minus(self):
        stdin = serialize_cf(SemiRegularCF.from_pairs(2, [(-1, 2)] * 8))
        code, out, _ = run(["certify", "-n", "5"], stdin=stdin)
        assert code == 0
        doc = json.loads(out)
        assert doc["anchor"] is None
        assert doc["regime"] == "AllMinusTail"
        assert doc["bound"] == "1/6"


@pytest.mark.parametrize("argv", [["convergents", "-n", "5"], ["certify", "-n", "5"]])
def test_an_invalid_document_is_refused_before_a_short_one(argv):
    stdin = '{"b0":"0","terms":[{"a":1,"b":"1/2"}]}'  # one term, and b_1 < 1
    code, out, _ = run(argv, stdin=stdin)
    assert (code, out) == (
        1, '{"error":"invalid input","first_violation":{"index":1,"reason":"BTooSmall"}}\n')


@pytest.mark.parametrize("argv", [["eval", "--eps", "1/100"], ["certify", "-n", "4"],
                                  ["convergents", "-n", "4"], ["check"]])
def test_each_command_validates_its_document_once(monkeypatch, argv):
    calls, validate = [], core.validate

    def counting(cf):
        calls.append(cf)
        return validate(cf)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "semicf" and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counting)
    assert tails.validate is cli.validate is counting
    code, out, _ = run(argv, stdin=GOLDEN_DOC)
    assert code == 0 and len(calls) == 1


class TestCheckCommand:
    def test_valid_document_passes(self):
        code, out, _ = run(["check"], stdin=GOLDEN_DOC)
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

    def test_invalid_document_exit_1(self):
        stdin = '{"b0":"0","terms":[{"a":1,"b":"1/2"}]}'
        code, out, _ = run(["check"], stdin=stdin)
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
    ("tail_bounds", "tails", "_tail_pair", 6,
     lambda real, cf, n, k: (-real(cf, n, k)[0], real(cf, n, k)[1])),
    ("shift_identity", "tails", "shift_check", 7, _raise),
    ("error_bounds", "tails", "error_bound", 8, lambda real, cf, n, k: Fraction(2)),
    ("series_equivalence", "core", "_series_step", 4,
     lambda real, s, prev, num: (real(s, prev, num)[0], 1)),
    ("determinant", "core", "determinant_check", 0, _raise),  # n = 0 is checked too
]


@pytest.mark.parametrize(
    "check, module, func, index, bad", INJECTED_FAULTS,
    ids=[*cli.CHECKS, "series_step", "determinant_from_0"],
)
def test_check_reports_each_failure_on_its_own(monkeypatch, check, module, func, index, bad):
    """A fault in the call one check makes fails that check alone, first at its index.

    The fault goes into the module as cli sees it, so library functions that
    call the same function internally still get the real one."""
    real_module = getattr(cli, module)
    view = SimpleNamespace(**vars(real_module))
    setattr(view, func, _fail_from(index, getattr(real_module, func), bad))
    monkeypatch.setattr(cli, module, view)
    code, out, _ = run(["check"], stdin=CHECK_DOC)
    assert code == 1
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == list(cli.CHECKS)
    for c in doc["checks"]:
        expected = index if c["name"] == check else None
        assert (c["pass"], c["first_failure"]) == (expected is None, expected), c["name"]


def test_check_starts_one_tail_sweep_per_end(monkeypatch):
    real_tail_pair = tails._tail_pair
    sweeps = []

    def tail_pair(cf, n, k):
        value = real_tail_pair(cf, n, k)
        if not sweeps or sweeps[-1] is not cf._sweep:
            sweeps.append(cf._sweep)
        return value

    monkeypatch.setattr(tails, "_tail_pair", tail_pair)
    code, _, _ = run(["check"], stdin=CHECK_DOC)
    assert code == 0
    assert len(sweeps) == CHECK_TAIL_HORIZON == 30


RATIONAL_A = ('{"b0":"7/3","terms":[{"a":1,"b":"5/2"},{"a":-1,"b":"3"},{"a":1,"b":"7/3"},'
              '{"a":-1,"b":"7/2"},{"a":1,"b":"1"},{"a":1,"b":"9/4"}]}')
RATIONAL_B = '{"b0":"-1/2","terms":[{"a":-1,"b":"5/2"},{"a":1,"b":"7/3"}]}'
EPS = "1/100000000000000000000"
# Each run exits 0 with an empty stderr; the third field is the sha256 of its
# stdout, recorded with the earlier recurrence over reduced Fractions.
RATIONALS = [
    (["convergents", "-n", "6", "--decimals", "12"], RATIONAL_A,
     "8d69a504a49f5c5450795b0afe82884cc55be50db5fd65fd658b01d14a6117b7"),
    (["convergents", "-n", "8", "--repeat", "--decimals", "12"], RATIONAL_B,
     "fa4128fb547447ff5beb20c925b6ce3d8f18f3985a1cf2fe6fe7c2c5383f26d4"),
    (["certify", "-n", "5"], RATIONAL_A,
     "45e542f548fff774353b775f219278e66992ef648cfec71813189b39465c6171"),
    (["certify", "-n", "40", "--repeat"], RATIONAL_B,
     "66cf252ed54f88ec758b0f624e35ae8eb9e2ff05267b0652325fc95ff796ffa9"),
    (["check"], RATIONAL_A,
     "f9ac3ab3ff2cc40f630e43cbcce42b0e04c7ee9fa3f159eb1c1c3539d5e774f0"),
    (["check"], RATIONAL_B,
     "f9ac3ab3ff2cc40f630e43cbcce42b0e04c7ee9fa3f159eb1c1c3539d5e774f0"),
    (["eval", "--eps", EPS, "--repeat"], RATIONAL_A,
     "0da796308b314c9f521f3b3c609632039e472aab65d5147399af70e3cc69a7e4"),
    (["eval", "--eps", EPS, "--repeat"], RATIONAL_B,
     "b761192b978e8775d8e3fc8dcecd368aaea92924766512b4e88ddb137854eb4d"),
]



@pytest.mark.parametrize(
    "argv, stdin, digest", RATIONALS,
    ids=[f"{r[0][0]}-{'AB'[r[1] == RATIONAL_B]}" for r in RATIONALS],
)
def test_golden_output_on_rational_documents(argv, stdin, digest):
    """The CLI's bytes on documents of rational b, pinned run by run, so that a
    changed byte names its command and document."""
    code, out, err = run(argv, stdin.encode())
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


BAD_UTF8 = b"\xff{"
BAD_UTF8_ANSWER = ('{"error":"parse error","detail":"invalid JSON: \'utf-8\' codec '
                   'can\'t decode byte 0xff in position 0: invalid start byte"}\n')


@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}],
                         ids=["strict-utf8", "C-locale"])
def test_process_reads_stdin_as_bytes_whatever_its_encoding(env):
    """A process's stdin decodes by its locale and PYTHONIOENCODING; semicf reads
    the bytes under it, so both settings give the same parse error."""
    keep = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")}
    keep["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "semicf.cli", "check"], input=BAD_UTF8,
                          capture_output=True, env={**keep, **env}, timeout=60)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (1, BAD_UTF8_ANSWER, b"")


class _FailingStdin(io.RawIOBase):
    """A stdin whose read fails in the operating system."""

    def readable(self):
        return True

    def readinto(self, buffer):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def test_failed_stdin_read_is_a_parse_error():
    code, out, _ = run(["check"], io.BufferedReader(_FailingStdin()))
    assert (code, json.loads(out)) == (
        1, {"error": "parse error", "detail": f"cannot read stdin: {os.strerror(errno.EIO)}"})


def _write_failed(code):
    return f"error: cannot write to stdout: {os.strerror(code)}\n".encode()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "redirect, argv, out, err",
    [
        ("<&-", ["check"], b'{"error":"parse error","detail":"stdin is closed"}\n', b""),
        (">&-", ["check"], b"", _write_failed(errno.EBADF)),
        (">/dev/full", ["eval", "--eps", "1/100", "--repeat"], b"", _write_failed(errno.ENOSPC)),
        ("", ["convergents", "-n", "200", "--repeat"], None, _write_failed(errno.EPIPE)),
    ],
    ids=["stdin-closed", "stdout-closed", "device-full", "reader-gone"],
)
def test_process_answers_failed_io_in_one_line(redirect, argv, out, err, unbuffered):
    """The semicf process, with its streams as a shell redirection leaves them,
    exits 1 with one line and no traceback.  out None: stdout is a pipe whose
    reader has gone, as `| head -c 5` leaves it once head has exited; the
    golden period's 200 convergents are more than stdout buffers."""
    stdout = subprocess.PIPE
    if out is None:
        read, stdout = os.pipe()
        os.close(read)
    try:
        proc = _semicf_process(redirect, argv, unbuffered, stdout)
    finally:
        if out is None:
            os.close(stdout)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, out, err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_process_answers_a_reader_that_leaves_mid_write(unbuffered):
    """As `| head -c 5` leaves it: the reader takes 5 bytes of the golden
    period's 1000 convergents, 456 KB, more than a pipe holds, and closes its
    end while semicf is still writing.  The write that the close cuts short is
    partial, and the one after it fails."""
    args, env = _semicf_args("", ["convergents", "-n", "1000", "--repeat"], unbuffered)
    with subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        proc.stdin.write(GOLDEN_PERIOD)
        proc.stdin.close()
        proc.stdout.read(5)
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (1, _write_failed(errno.EPIPE))


def test_process_writes_non_ascii_argv_back_in_its_bytes():
    """argv decodes with surrogateescape and stderr encodes with
    backslashreplace, so the usage error shows the byte 0xff as the text
    \\udcff and é as its own UTF-8 bytes."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "LC_ALL", "LC_CTYPE", "LANG")}
    env.update(PYTHONUTF8="1", PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "semicf.cli", "check", b"\xff", "é"],
                          input=b"", capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines(keepends=True)[-1] == (
        b"semicf: error: unrecognized arguments: \\udcff \xc3\xa9\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "redirect, argv, code",
    [
        ("2>/dev/full", ["eval", "--eps", "0"], 2),
        ("2>/dev/full", ["nope"], 2),
        ("2>/dev/full", ["check"], 0),
        (">/dev/full 2>/dev/full", ["eval", "--eps", "1/100", "--repeat"], 1),
    ],
    ids=["usage-error", "argparse-error", "success", "stdout-full-too"],
)
def test_failed_write_to_stderr_keeps_the_exit_code(redirect, argv, code, unbuffered):
    """With stderr on a full device, what semicf says there is lost, but the
    exit code is answer's, or 1 when stdout fails too, and stdout is unchanged."""
    proc = _semicf_process(redirect, argv, unbuffered)
    expected = run(argv, GOLDEN_PERIOD)[1].encode() if code == 0 else b""
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected, b"")


GOLDEN_PERIOD = b'{"b0":"1","terms":[{"a":1,"b":"1"}]}'


def _semicf_args(redirect, argv, unbuffered):
    """Popen's args and env for `python -m semicf.cli argv`, started by sh with
    the redirection applied, with or without PYTHONUNBUFFERED."""
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "semicf.cli",
            *argv], env


def _semicf_process(redirect, argv, unbuffered, stdout=subprocess.PIPE):
    """The semicf process of _semicf_args, run to its end on the golden period."""
    args, env = _semicf_args(redirect, argv, unbuffered)
    return subprocess.run(args, input=GOLDEN_PERIOD, stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=60)


def test_usage_error_exit_2():
    code, _, _ = run(["nope"])
    assert code == 2


class _UnreadableStdin(io.BytesIO):
    """A stdin whose read fails: where argv alone decides the answer, it is never read."""

    def read(self, *args):
        raise AssertionError("stdin read where argv alone decides the answer")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["convergents", "-n", "-1"], "-n"),
        (["certify", "-n", "-1"], "-n"),
        (["eval", "--eps", "1/10", "--decimals", "-3"], "--decimals"),
        (["convergents", "-n", "2", "--decimals", "-1"], "--decimals"),
    ],
)
def test_negative_counts_are_usage_errors(argv, flag):
    code, out, err = run(argv, _UnreadableStdin())
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be >= 0" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["eval", "--eps", "1/100", "--repeat", "--max-steps", str(sys.maxsize)], "--max-steps"),
        (["convergents", "-n", str(sys.maxsize + 1), "--repeat"], "-n"),
        (["certify", "-n", str(sys.maxsize), "--repeat"], "-n"),
    ],
    ids=["eval", "convergents", "certify"],
)
def test_horizons_beyond_maxsize_are_usage_errors(argv, flag):
    code, out, err = run(argv, _UnreadableStdin())
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be >= 0 and < {sys.maxsize}" in err


@pytest.mark.parametrize(
    "argv, start",
    [
        (["expand", "--algo", "regular", "7/3"], '{"b0":"2","terms":[{"a":1,"b":"3"}]}\n'),
        (["--help"], "usage: semicf "),
        (["eval", "-h"], "usage: semicf eval "),
    ],
    ids=["expand", "help", "eval-help"],
)
def test_answers_without_a_document_leave_stdin_unread(argv, start):
    code, out, err = run(argv, _UnreadableStdin())
    assert (code, out.startswith(start), err) == (0, True, "")


def test_largest_accepted_horizon():
    code, out, _ = run(["certify", "-n", str(sys.maxsize - 1)], stdin=GOLDEN_DOC)
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
def test_oversized_numbers_are_parse_errors(argv, stdin):
    code, out, _ = run(argv, stdin=stdin)
    assert code == 1
    assert json.loads(out)["error"] == "parse error"


def test_oversized_expand_argument_is_usage_error():
    code, out, _ = run(["expand", "--algo", "regular", HUGE])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv, stdin, where",
    [
        (["convergents", "-n", "1"], '{"b0":"1\\n","terms":[{"a":1,"b":"2"}]}', "b0"),
        (["convergents", "-n", "1"], '{"b0":"1","terms":[{"a":1,"b":"2\\n"}]}', r"terms\[0\]\.b"),
        (["eval", "--eps", "1/10\n"], GOLDEN_DOC, "--eps"),
    ],
    ids=["b0", "b", "eps"],
)
def test_rational_with_a_trailing_newline_is_a_parse_error(argv, stdin, where):
    code, out, _ = run(argv, stdin=stdin)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "parse error"
    assert re.fullmatch(where + r": expected a rational string like '7/3', got '.*\\n'",
                        doc["detail"])


def test_expand_argument_with_a_trailing_newline_is_usage_error():
    code, out, err = run(["expand", "--algo", "regular", "7/3\n"])
    assert code == 2 and out == ""
    assert err == "error: value: expected a rational string like '7/3', got '7/3\\n'\n"


def test_negative_expand_argument_without_double_dash_is_usage_error():
    """argparse reads -7/3 as an option, so README puts a negative argument after "--"."""
    code, out, err = run(["expand", "--algo", "regular", "-7/3"])
    assert (code, out) == (2, "")
    assert "the following arguments are required: value" in err


def _assert_output_too_large(code, out):
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out)["error"] == "output too large"


def test_convergents_over_the_digit_limit():
    big = "9" * 4000  # p_2 = b_1 b_2 + 1 has about 8000 digits
    stdin = '{"b0":"0","terms":[{"a":1,"b":"%s"},{"a":1,"b":"%s"}]}' % (big, big)
    code, out, _ = run(["convergents", "-n", "2"], stdin=stdin)
    _assert_output_too_large(code, out)


def test_convergents_stops_at_the_first_row_too_large_to_print():
    """On the golden period q_n passes 640 digits near n = 3060, which settles
    the answer; a walk on to row 10**9 would not end within the timeout."""
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "semicf.cli", "convergents", "-n", "1000000000", "--repeat"],
        input=b'{"b0":"1","terms":[{"a":1,"b":"1"}]}', capture_output=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout) == (1, b'{"error":"output too large","detail":'
                                                 b'"a number in the result has over 640 digits '
                                                 b'(PYTHONINTMAXSTRDIGITS)"}\n')


def test_budget_exhausted_over_the_digit_limit():
    # b_1 = X/Y has 4000-digit parts; best_bound 1/q_1^2 = Y^2/X^2 has about 8000.
    x, y = 2 * 10**3999 + 1, 10**3999
    stdin = '{"b0":"0","terms":[{"a":1,"b":"%d/%d"},{"a":1,"b":"1"}]}' % (x, y)
    argv = ["eval", "--eps", "1/100", "--max-steps", "1"]
    code, out, _ = run(argv, stdin=stdin)
    _assert_output_too_large(code, out)


@pytest.mark.parametrize("decimals", [5000, 10**7, sys.maxsize - 1])
def test_decimals_over_the_digit_limit(decimals):
    stdin = '{"b0":"1","terms":[{"a":1,"b":"1"}]}'
    argv = ["eval", "--eps", "1/100", "--repeat", "--decimals", str(decimals)]
    start = time.perf_counter()
    code, out, _ = run(argv, stdin=stdin)
    assert time.perf_counter() - start < 1  # the power of ten is never built
    _assert_output_too_large(code, out)


def test_decimals_beyond_the_digit_limit_that_fit():
    # 10**-4000 to 5000 places: 10**1000 has 1001 digits, inside the limit.
    stdin = '{"b0":"0","terms":[{"a":1,"b":"1%s"}]}' % ("0" * 4000)
    argv = ["eval", "--eps", "1/100", "--decimals", "5000"]
    code, out, _ = run(argv, stdin=stdin)
    assert code == 0
    assert json.loads(out)["decimal"] == "0." + "0" * 3999 + "1" + "0" * 1000


def test_zero_prints_up_to_the_decimals_cap():
    # Zero is capped like any value: at the limit plus its denominator's one bit.
    places = sys.get_int_max_str_digits() + 1
    argv = ["eval", "--eps", "1/100", "--decimals", str(places)]
    code, out, _ = run(argv, stdin='{"b0":"0","terms":[]}')
    assert code == 0
    assert json.loads(out)["decimal"] == "0." + "0" * places
    argv[-1] = str(places + 1)
    code, out, _ = run(argv, stdin='{"b0":"0","terms":[]}')
    _assert_output_too_large(code, out)


def test_zero_over_the_decimals_cap_answers_at_once():
    argv = ["eval", "--eps", "1/10", "--decimals", str(10**9)]
    start = time.perf_counter()
    code, out, _ = run(argv, stdin='{"b0":"0","terms":[]}')
    assert time.perf_counter() - start < 1  # no billion-character string is built
    _assert_output_too_large(code, out)


def test_decimals_whose_digits_str_cannot_convert():
    # 4401 digits: within the cap that bounds places, over what str() converts.
    stdin = '{"b0":"%s","terms":[]}' % ("9" * 4001)
    argv = ["eval", "--eps", "1/10", "--decimals", "400"]
    code, out, _ = run(argv, stdin=stdin)
    _assert_output_too_large(code, out)


def test_expand_stops_at_the_term_cap():
    # The negative expansion of 1/N has N - 1 terms, all 2.
    argv = ["expand", "--algo", "negative", f"1/{10**12}"]
    start = time.perf_counter()
    code, out, _ = run(argv)
    assert time.perf_counter() - start < 1  # the loop stops one term past the cap
    _assert_output_too_large(code, out)
    assert str(cli.EXPAND_MAX_TERMS) in json.loads(out)["detail"]


def test_expand_term_cap_boundary(monkeypatch):
    monkeypatch.setattr(cli, "EXPAND_MAX_TERMS", 5)
    code, out, _ = run(["expand", "--algo", "negative", "1/6"])
    assert code == 0 and len(json.loads(out)["terms"]) == 5
    code, out, _ = run(["expand", "--algo", "negative", "1/7"])
    _assert_output_too_large(code, out)


def test_check_refuses_a_document_over_the_term_budget():
    stdin = serialize_cf(golden(2001))
    start = time.perf_counter()
    code, out, _ = run(["check"], stdin=stdin)
    assert time.perf_counter() - start < 1  # refused before any check runs
    doc = json.loads(out)
    assert code == 1 and doc["error"] == "input too large"
    assert "2000" in doc["detail"]


def test_check_runs_a_document_at_the_term_budget():
    stdin = serialize_cf(golden(2000))
    code, out, _ = run(["check"], stdin=stdin)
    doc = json.loads(out)
    assert code == 0 and doc["valid"] is True
    assert [c["pass"] for c in doc["checks"]] == [True] * len(cli.CHECKS)


def test_check_reports_an_invalid_document_over_the_term_budget():
    stdin = serialize_cf(SemiRegularCF.from_pairs(0, [(1, Fraction(1, 2))] * 2001))
    code, out, _ = run(["check"], stdin=stdin)
    assert code == 1
    assert json.loads(out)["first_violation"] == {"index": 1, "reason": "BTooSmall"}


COUNT = st.integers(0, 300).map(str)
# Edge counts are drawn only without --repeat: a --repeat sequence has
# sys.maxsize terms, so a count near it asks for that many steps of real work.
EDGE_COUNT = st.sampled_from(["-1", str(sys.maxsize - 1), str(sys.maxsize), "2.5"])
# -h, --h, --he, ... ask argparse for its help text on stdout, by design.
TEXT = st.text(max_size=12).filter(lambda t: not t.startswith("-h") and
                                   not (len(t) > 2 and "--help".startswith(t)))
RATIONAL = st.one_of(st.fractions(max_denominator=400).map(str), TEXT)
FLAGS = {
    "expand": [],
    "eval": ["--max-steps", "--decimals", "--repeat"],
    "convergents": ["-n", "--decimals", "--repeat"],
    "certify": ["-n", "--repeat"],
    "check": [],
}
SMALL_B = st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=4)
DOCUMENT = st.builds(
    lambda b0, terms: serialize_cf(SemiRegularCF.from_pairs(b0, terms)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.lists(st.tuples(st.sampled_from([1, -1]), SMALL_B), max_size=6),
)
# A valid document with one more term, which is a JSON value parse_cf must
# refuse or a valid term spelled in an odd way.
ODD_TERM = st.fixed_dictionaries({
    "a": st.sampled_from([1, -1, 1.0, -1.0, 0, 2, True, "1", None]),
    "b": st.one_of(SMALL_B.map(str), st.sampled_from([2, 2.0, "0", "-1", "1.5", "02", ""])),
})


@st.composite
def odd_document(draw):
    doc = json.loads(draw(DOCUMENT))
    terms = doc["terms"]
    terms.insert(draw(st.integers(0, len(terms))), draw(ODD_TERM))
    return json.dumps(doc)


@st.composite
def cli_argv(draw):
    """argv over every subcommand and its flags, with values valid or not."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), unique=True)) if FLAGS[command] else []
    count = COUNT if "--repeat" in flags else st.one_of(COUNT, EDGE_COUNT)
    if command == "expand":
        argv += ["--algo", draw(st.sampled_from(["regular", "negative", "nearest", "x"]))]
        argv.append(draw(RATIONAL))
    if command == "eval":
        argv += ["--eps", draw(RATIONAL)]
    for flag in flags:
        argv += [flag] if flag == "--repeat" else [flag, draw(count)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-n", "7"])))
    return argv


@settings(deadline=2000, max_examples=500)
@given(argv=cli_argv(),
       stdin=st.one_of(DOCUMENT, odd_document(), st.text(max_size=60), st.binary(max_size=60)))
def test_cli_is_total(argv, stdin):
    """Whatever argv and stdin, answer exits 0..3, answers with one JSON line on
    stdout (usage errors: a message on stderr instead), and never a traceback."""
    code, out, err = run(argv, stdin.encode() if isinstance(stdin, str) else stdin)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.endswith("\n") and err.startswith(("usage: semicf", "error: "))
    else:
        assert err == "" and out.count("\n") == 1 and out.endswith("\n")
        json.loads(out)


@settings(deadline=None, max_examples=200)
@given(b0=st.fractions(min_value=-5, max_value=5, max_denominator=4),
       period=st.lists(st.tuples(st.sampled_from([1, -1]), SMALL_B), min_size=1, max_size=4))
@example(b0=Fraction(0), period=[(-1, Fraction(4)), (-1, Fraction(1))])  # b_2 + a_1 < 1
def test_repeat_verdict_does_not_depend_on_n(b0, period):
    """certify -n N --repeat, for every N in 0..2p, refuses exactly as -n 3p
    does, or prints a bound that the convergents N + 1 .. N + 2p + 1 of the
    periodic sequence keep."""
    p = len(period)
    stdin = serialize_cf(SemiRegularCF.from_pairs(b0, period)).encode()

    def certify(n):
        code, out, _ = run(["certify", "-n", str(n), "--repeat"], stdin)
        return code, json.loads(out)

    def convergent(d):
        return oracle.fold_eval(SemiRegularCF.periodic(b0, period, d))

    deep = certify(3 * p)
    for n in range(2 * p + 1):
        code, doc = certify(n)
        if "first_violation" in deep[1]:
            assert (code, doc) == deep
        else:
            assert code == 0
            bound = Fraction(doc["bound"])
            assert all(abs(convergent(d) - convergent(n)) <= bound
                       for d in range(n + 1, n + 2 * p + 2))


# A numeral of 3,990 to 4,310 digits, on both sides of the default 4300-digit
# int/str conversion limit.  Built as a string: str() refuses such an int.
LONG = st.builds(lambda lead, low, digits: str(lead) + str(low).rjust(digits - 1, "0"),
                 st.integers(1, 9), st.integers(0, 10**6), st.integers(3990, 4310))
LONG_B = st.one_of(LONG, st.builds("{}/{}".format, LONG, st.integers(1, 400)),
                   st.builds("{}/{}".format, st.integers(1, 400), LONG))
LONG_RATIONAL = st.builds(str.__add__, st.sampled_from(["", "-"]), LONG_B)
# Counts and --max-steps of at most 3 keep each example well inside the deadline.
SMALL_COUNT = st.integers(0, 3).map(str)
# b0 and b_1 of about 4000 digits: p_1 = b0 b_1 + 1 has about 8000.
LONG_DOC = '{"b0":"%s","terms":[{"a":1,"b":"%s"}]}' % ("7" * 4000, "9" * 4000)


@st.composite
def long_number_document(draw):
    """A document with one term of long b inserted, and b0 long or not."""
    doc = json.loads(draw(DOCUMENT))
    if draw(st.booleans()):
        doc["b0"] = draw(LONG_RATIONAL)
    term = {"a": draw(st.sampled_from([1, -1])), "b": draw(LONG_B)}
    doc["terms"].insert(draw(st.integers(0, len(doc["terms"]))), term)
    return json.dumps(doc)


@st.composite
def long_number_argv(draw):
    """argv for a command that reads a document, with small counts and --eps long or not."""
    command = draw(st.sampled_from(["eval", "convergents", "certify", "check"]))
    argv = [command]
    if command == "eval":
        argv += ["--eps", draw(st.one_of(LONG_RATIONAL, RATIONAL))]
        argv += ["--max-steps", draw(SMALL_COUNT)]
    if command in ("convergents", "certify"):
        argv += ["-n", draw(SMALL_COUNT)]
    if command != "check" and draw(st.booleans()):
        argv.append("--repeat")
    if command in ("eval", "convergents") and draw(st.booleans()):
        argv += ["--decimals", draw(SMALL_COUNT)]
    return argv


@settings(deadline=2000, max_examples=200)
@given(argv=long_number_argv(), stdin=long_number_document())
@example(argv=["convergents", "-n", "1"], stdin=LONG_DOC)  # see test_output_too_large_answer
def test_cli_is_total_at_the_digit_limit(argv, stdin):
    """test_cli_is_total's property on numbers of about as many digits as
    Python converts, where inputs fail to parse and results fail to print."""
    test_cli_is_total.hypothesis.inner_test(argv, stdin)


def test_output_too_large_answer():
    code, out, _ = run(["convergents", "-n", "1"], stdin=LONG_DOC)
    detail = f"a number in the result has over {sys.get_int_max_str_digits()} digits"
    assert code == 1
    assert json.loads(out) == {"error": "output too large",
                               "detail": detail + " (PYTHONINTMAXSTRDIGITS)"}
