"""Command-line front door: JSON documents on stdin/stdout, exact end to end.

Document format:

    {"b0": "<rational>", "terms": [{"a": 1, "b": "<rational>"}, ...]}

where <rational> matches `[-]digits[/digits]` with a nonzero denominator.
Rationals are serialized as strings, never floats, so certificates stay
exact.  Output is byte-stable for fixed inputs: canonical reduced rationals,
fixed field order, compact separators.

Exit codes: 0 success, 1 invariant failure or invalid input (details in the
stdout document), 2 usage error, 3 step budget exhausted.

`answer` is the pure entry, returning exit code, stdout and stderr; only
`console_entry`, the `semicf` script, touches the process's streams.  It does
not return: after its last checked write it ends the process with `os._exit`,
skipping interpreter finalization (atexit handlers, thread joins, freeing
every module and object).
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from typing import Any, BinaryIO, Callable, Dict, List, NoReturn, Optional, Tuple, Union

from . import core, oracle, tails
from .core import SemiRegularCF, Term, validate
from .errors import (
    BudgetExhausted,
    CFError,
    DenominatorBelowOne,
    IdentityViolation,
    InsufficientTerms,
    ParseError,
    TietzeViolation,
)
from .expand import _ROUND, _euclid

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

#: Tail-based checks are quadratic in the horizon; `check` caps them here.
CHECK_TAIL_HORIZON = 30

#: The fold cross-check refolds every prefix, so `check` refuses longer documents.
CHECK_MAX_TERMS = 2000

#: `expand` prints at most this many terms; the loop stops at one more.
EXPAND_MAX_TERMS = 100_000

#: The checks `check` reports, in order.
CHECKS = ("lemma1", "determinant", "series_equivalence",
          "tail_bounds", "shift_identity", "error_bounds")


def _parse_rational(value: Any, where: str) -> Fraction:
    match = _RATIONAL_RE.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ParseError(f"{where}: expected a rational string like '7/3', got {value!r}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ZeroDivisionError:
        raise ParseError(f"{where}: zero denominator in {value!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"{where}: {exc}") from None


def _object(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """A JSON object as a dict.  A repeated key is refused, since JSON parsers
    differ in which of its values they keep."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ParseError(f"repeated key {key!r} in a JSON object")
    return obj


def parse_cf(text: Union[str, bytes]) -> SemiRegularCF:
    """Strict parse of a CF document; rationals are canonicalized."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # bytes that do not decode, or an over-long JSON number
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    extra = set(doc) - {"b0", "terms"}
    if extra:
        raise ParseError(f"unknown fields: {sorted(extra)}")
    if "b0" not in doc or "terms" not in doc:
        raise ParseError("document needs both 'b0' and 'terms'")
    b0 = _parse_rational(doc["b0"], "b0")
    if not isinstance(doc["terms"], list):
        raise ParseError("terms: expected a list")
    terms = []
    for i, raw in enumerate(doc["terms"]):
        where = f"terms[{i}]"
        if not isinstance(raw, dict) or set(raw) != {"a", "b"}:
            raise ParseError(f"{where}: expected an object with fields 'a' and 'b'")
        a = raw["a"]
        if type(a) is not int or a not in (1, -1):  # not True, not 1.0
            raise ParseError(f"{where}.a: must be 1 or -1, got {a!r}")
        b = _parse_rational(raw["b"], f"{where}.b")
        if b <= 0:
            raise ParseError(f"{where}.b: must be positive, got {raw['b']!r}")
        terms.append(Term(a, b))
    return SemiRegularCF(b0, tuple(terms))


#: The CLI's one JSON writer: compact, each Fraction written as its str(), and no
#: check for reference cycles (a dict entry per Fraction) in the trees built here.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str, check_circular=False)


def serialize_cf(cf: SemiRegularCF) -> str:
    return _ENCODER.encode({"b0": cf.b0, "terms": [{"a": t.a, "b": t.b} for t in cf.terms]})


class _Answer(Exception):
    """The answer, decided where it is raised: args are its (exit code, stdout,
    stderr).  Help, a usage error, a refusal, a failed check, an exhausted budget."""


def _too_large(detail: Optional[str] = None) -> _Answer:
    """The refusal of a result too large to print; by default a number has too many digits."""
    limit = sys.get_int_max_str_digits()
    detail = detail or f"a number in the result has over {limit} digits (PYTHONINTMAXSTRDIGITS)"
    return _Answer(1, _line({"error": "output too large", "detail": detail}), "")


def _decimal_str(x: Fraction, places: int) -> str:
    """x with `places` decimals, rounded to nearest with ties to even, as round() does."""
    limit = sys.get_int_max_str_digits()
    # |x| >= 1/denominator > 2**-bits unless x is 0, so beyond this x * 10**places
    # has more than `limit` digits (a zero, as many padded places), and the
    # power of ten need not be built to say so.
    if limit and places > limit + x.denominator.bit_length():
        raise _too_large()
    scaled = round(x * 10**places)
    sign = "-" if scaled < 0 else ""
    try:
        digits = str(abs(scaled))
    except ValueError:  # more digits than str() converts
        raise _too_large() from None
    digits = digits.rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _encode(doc: Any) -> str:
    """doc as compact JSON; Fractions in it are written as strings."""
    try:
        return _ENCODER.encode(doc)
    except ValueError:  # a Fraction with more digits than str() converts
        raise _too_large() from None


def _line(doc: Any) -> str:
    """doc as one JSON line."""
    return _encode(doc) + "\n"


def _read_cf(args: argparse.Namespace) -> SemiRegularCF:
    """The document on args.stdin, a binary stream read only here, or None when
    closed; with --repeat, its terms repeated endlessly (sys.maxsize terms)."""
    if args.stdin is None:
        raise ParseError("stdin is closed")
    try:
        data = args.stdin.read()  # bytes: json.loads decodes them, whatever the locale
    except OSError as exc:
        raise ParseError(f"cannot read stdin: {exc.strerror}") from None
    cf = parse_cf(data)
    if getattr(args, "repeat", False):
        if not cf.terms:
            raise ParseError("--repeat needs at least one term to continue")
        cf = SemiRegularCF.periodic(cf.b0, [(t.a, t.b) for t in cf.terms], sys.maxsize)
    return cf


def _cmd_expand(args: argparse.Namespace) -> str:
    try:
        x = _parse_rational(args.value, "value")
    except ParseError as exc:
        raise _Answer(2, "", f"error: {exc}\n") from None
    b0, *pairs = itertools.islice(_euclid(x, args.algo), EXPAND_MAX_TERMS + 2)
    if len(pairs) > EXPAND_MAX_TERMS:
        raise _too_large(f"the expansion has over {EXPAND_MAX_TERMS} terms")
    return serialize_cf(SemiRegularCF.from_pairs(b0, pairs)) + "\n"


def _cmd_eval(args: argparse.Namespace) -> str:
    eps = _parse_rational(args.eps, "--eps")
    if eps <= 0:
        raise _Answer(2, "", "error: --eps must be > 0\n")
    if args.max_steps < 1:
        raise _Answer(2, "", "error: --max-steps must be >= 1\n")
    cf = _read_cf(args)
    try:
        result = tails.evaluate(cf, eps, args.max_steps)
    except BudgetExhausted as exc:  # past the digit limit, _line answers "output too large"
        raise _Answer(3, _line({"error": "budget exhausted", "max_steps": exc.max_steps,
                                "best_bound": exc.best_bound}), "") from None
    doc = {**result._asdict(), "exact": result.exact}
    if args.decimals is not None:
        doc["decimal"] = _decimal_str(result.approximation, args.decimals)
    return _line(doc)


def _cmd_convergents(args: argparse.Namespace) -> str:
    cf = _read_cf(args)
    tails._require_valid(cf)  # the library leaves iter_states unchecked
    rows: List[str] = []  # each row encoded as it is built: the first too large ends the walk
    for s in core.iter_states(cf, args.n):
        row = {"n": s.n, "p": s.p_cur, "q": s.q_cur, "value": s.value}
        if args.decimals is not None:
            row["decimal"] = _decimal_str(s.value, args.decimals)
        rows.append(_encode(row))
    return '{"convergents":[' + ",".join(rows) + "]}\n"


def _cmd_certify(args: argparse.Namespace) -> str:
    cf = _read_cf(args)
    cert = tails.certify(cf, args.n)
    return _line({"n": cert.n, "anchor": cert.anchor, "regime": cert.regime, "bound": cert.bound})


def _first_failures(cf: SemiRegularCF) -> Dict[str, Optional[int]]:
    """The first index at which each check fails, or None where it passes.

    One walk over the states: at state n it checks the recurrence identities
    and the fold oracle, and while n <= CHECK_TAIL_HORIZON the tails of every
    split n = m + k, which share one tail sweep and report n.  A check fails
    where its condition is False or the library raises an identity error,
    and is not run again once it has failed.
    """
    first: Dict[str, Optional[int]] = dict.fromkeys(CHECKS)

    def run(name: str, index: int, holds: Callable[[], object]) -> None:
        if first[name] is None:
            try:
                ok = holds() is not False
            except (IdentityViolation, DenominatorBelowOne):
                ok = False
            if not ok:
                first[name] = index

    prev = None
    for s in core.iter_states(cf):
        n = s.n
        run("lemma1", n, lambda: s.Q_cur >= s.scale
            and (n == len(cf) or core._gap(s, cf.a(n + 1)) >= s.scale))
        run("determinant", n, lambda: core.determinant_check(s))
        run("series_equivalence", n, lambda: (prev is None or core._series_term(s, prev))
            and s.value == oracle.fold_eval(cf, n))
        prev = s
        if n <= CHECK_TAIL_HORIZON:
            for m in range(n):
                k = n - m
                # 0 < a_{m+1} x_{m,k} <= 1 on the unreduced pair (r, s) of x, s > 0
                run("tail_bounds", n,
                    lambda: 0 < cf.a(m + 1) * (rs := tails._tail_pair(cf, m, k))[0] <= rs[1])
                run("shift_identity", n, lambda: tails.shift_check(cf, m, k))
                run("error_bounds", n,
                    lambda: tails.error_bound(cf, m, k) <= tails.uniform_step_bound(cf, m))
    return first


def _cmd_check(args: argparse.Namespace) -> str:
    cf = _read_cf(args)
    violation = validate(cf).first_violation
    if violation is not None:
        raise _Answer(1, _line({"valid": False, "first_violation": violation._asdict(),
                                "checks": []}), "")
    if len(cf) > CHECK_MAX_TERMS:
        detail = f"check takes at most {CHECK_MAX_TERMS} terms, got {len(cf)}"
        raise _Answer(1, _line({"error": "input too large", "detail": detail}), "")
    checks = [
        {"name": name, "pass": first is None, "first_failure": first}
        for name, first in _first_failures(cf).items()
    ]
    text = _line({"valid": True, "checks": checks})
    if not all(c["pass"] for c in checks):
        raise _Answer(1, text, "")
    return text


def _count(text: str) -> int:
    """0 <= value < sys.maxsize, so that index value + 1 is a term of a --repeat sequence.
    text is `-?[0-9]+` in full, a rational's integer part, else it is invalid."""
    match = _RATIONAL_RE.fullmatch(text)
    if match is None or match[2] is not None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    out_of_range = f"must be >= 0 and < {sys.maxsize}"
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts: out of range, and not echoed
        raise argparse.ArgumentTypeError(out_of_range) from None
    if not 0 <= value < sys.maxsize:
        raise argparse.ArgumentTypeError(f"{out_of_range}, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers' class, that raises help and errors as _Answers."""

    def error(self, message: str) -> None:
        raise _Answer(2, "", f"{self.format_usage()}{self.prog}: error: {message}\n")

    def print_help(self, file: Any = None) -> None:
        raise _Answer(0, self.format_help(), "")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semicf",
        description="Exact semi-regular continued fraction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a rational into a continued fraction")
    p.add_argument("--algo", choices=list(_ROUND), required=True)
    p.add_argument("value", help="rational to expand, e.g. 7/3")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate stdin document to certified accuracy")
    p.add_argument("--eps", required=True, help="target accuracy as a rational")
    p.add_argument("--max-steps", type=_count, default=tails.DEFAULT_MAX_STEPS)
    p.add_argument("--repeat", action="store_true",
                   help="treat the term list as a repeating period")
    p.add_argument("--decimals", type=_count, default=None,
                   help="also print a decimal rendering (display only)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("convergents", help="list convergents 0..N")
    p.add_argument("-n", type=_count, required=True)
    p.add_argument("--repeat", action="store_true")
    p.add_argument("--decimals", type=_count, default=None)
    p.set_defaults(func=_cmd_convergents)

    p = sub.add_parser("certify", help="error certificate at index N")
    p.add_argument("-n", type=_count, required=True)
    p.add_argument("--repeat", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check", help="run all exact identity checks on stdin")
    p.set_defaults(func=_cmd_check)
    return parser


def answer(argv: List[str], stdin: Optional[BinaryIO]) -> Tuple[int, str, str]:
    """(exit code, stdout, stderr) of `semicf argv`, touching no sys stream.  stdin
    (a binary stream, or None when closed) is read only once argv has been checked."""
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(stdin=stdin))
        return 0, args.func(args), ""
    except _Answer as exc:
        return exc.args
    except ParseError as exc:
        doc = {"error": "parse error", "detail": str(exc)}
    except TietzeViolation as exc:
        doc = {"error": "invalid input", "first_violation": exc.violation._asdict()}
    except InsufficientTerms as exc:
        doc = {"error": "insufficient terms", "available": exc.available}
    except CFError as exc:
        doc = {"error": type(exc).__name__, "detail": str(exc)}
    return 1, _line(doc), ""


def _write(fd: int, data: bytes) -> None:
    """Write all of data to descriptor fd, retrying partial writes; an OSError goes on out."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def console_entry() -> NoReturn:
    """answer as the semicf script.  A failed write to stdout (its reader gone, its
    device full, it closed) is answered by one line on stderr and exit 1.  stderr
    is written as far as it goes; a failed write to it keeps the exit code.  Text
    left in sys.stdout or sys.stderr is flushed after semicf's own.  It does not
    return: os._exit ends the process without finalization, so no atexit handler
    runs, no thread is joined and no module or object is freed."""
    code, out, err = answer(sys.argv[1:], None if sys.stdin is None else sys.stdin.buffer)
    try:
        if sys.stdout is None:  # the process started with descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        _write(1, out.encode(sys.stdout.encoding, sys.stdout.errors))
        sys.stdout.flush()
    except OSError as exc:
        code, err = 1, f"error: cannot write to stdout: {exc.strerror}\n"
    if sys.stderr is not None:  # None: the process started with descriptor 2 closed
        try:
            _write(2, err.encode(sys.stderr.encoding, sys.stderr.errors))
            sys.stderr.flush()
        except OSError:
            pass  # what semicf says there is lost; the exit code stands
    os._exit(code)

if __name__ == "__main__":
    console_entry()
