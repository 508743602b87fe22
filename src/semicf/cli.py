"""Command-line front door: JSON documents on stdin/stdout, exact end to end.

Document format:

    {"b0": "<rational>", "terms": [{"a": 1, "b": "<rational>"}, ...]}

where <rational> matches `[-]digits[/digits]` with a nonzero denominator.
Rationals are serialized as strings, never floats, so certificates stay
exact.  Output is byte-stable for fixed inputs: canonical reduced rationals,
fixed field order, compact separators.

Exit codes: 0 success, 1 invariant failure or invalid input (details in the
stdout document), 2 usage error, 3 step budget exhausted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Union

from . import core, oracle, tails
from .core import SemiRegularCF, Term, validate
from .errors import (
    BudgetExhausted,
    CFError,
    DenominatorBelowOne,
    IdentityViolation,
    ParseError,
)
from .expand import ExpansionAlgo, _euclid

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")

#: Tail-based checks are quadratic in the horizon; `check` caps them here.
CHECK_TAIL_HORIZON = 30

#: `expand` prints at most this many terms; the loop stops at one more.
EXPAND_MAX_TERMS = 100_000

#: The checks `check` reports, in order.
CHECKS = ("lemma1", "determinant", "series_equivalence",
          "tail_bounds", "shift_identity", "error_bounds")


def _parse_rational(value: Any, where: str) -> Fraction:
    if not isinstance(value, str) or not _RATIONAL_RE.match(value):
        raise ParseError(f"{where}: expected a rational string like '7/3', got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ParseError(f"{where}: zero denominator in {value!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"{where}: {exc}") from None


def parse_cf(text: Union[str, bytes]) -> SemiRegularCF:
    """Strict parse of a CF document; rationals are canonicalized."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # a JSON number with more digits than int() converts
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
        if isinstance(a, bool) or a not in (1, -1):
            raise ParseError(f"{where}.a: must be 1 or -1, got {a!r}")
        b = _parse_rational(raw["b"], f"{where}.b")
        if b <= 0:
            raise ParseError(f"{where}.b: must be positive, got {raw['b']!r}")
        terms.append(Term(a, b))
    return SemiRegularCF(b0, tuple(terms))


def serialize_cf(cf: SemiRegularCF) -> str:
    doc = {
        "b0": str(cf.b0),
        "terms": [{"a": t.a, "b": str(t.b)} for t in cf.terms],
    }
    return json.dumps(doc, separators=(",", ":"))


class _OutputTooLarge(Exception):
    """Too large to print; the message says why (none: a number has too many digits)."""


def _decimal_str(x: Fraction, places: int) -> str:
    limit = sys.get_int_max_str_digits()
    # |x| >= 1/denominator > 2**-bits unless x is 0, so beyond this x * 10**places
    # has more than `limit` digits (a zero, as many padded places), and the
    # power of ten need not be built to say so.
    if limit and places > limit + x.denominator.bit_length():
        raise _OutputTooLarge
    scaled = round(x * 10**places)
    sign = "-" if scaled < 0 else ""
    try:
        digits = str(abs(scaled))
    except ValueError:  # more digits than str() converts
        raise _OutputTooLarge from None
    digits = digits.rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _emit(doc: Any) -> None:
    """Write doc as one JSON line; Fractions in it are written as strings."""
    try:
        text = json.dumps(doc, separators=(",", ":"), default=str)
    except ValueError:  # a Fraction with more digits than str() converts
        raise _OutputTooLarge from None
    sys.stdout.write(text + "\n")


def _read_cf(args: argparse.Namespace, horizon: int) -> SemiRegularCF:
    cf = parse_cf(sys.stdin.read())
    if getattr(args, "repeat", False):
        if not cf.terms:
            raise ParseError("--repeat needs at least one term to continue")
        cf = SemiRegularCF.periodic(
            cf.b0, [(t.a, t.b) for t in cf.terms], max(horizon, len(cf))
        )
    return cf


def _first_violation(cf: SemiRegularCF) -> Optional[dict]:
    """The first Tietze violation of cf as a JSON object, or None if cf is valid."""
    v = validate(cf).first_violation
    return None if v is None else {"index": v.index, "reason": v.reason}


def _require(cf: SemiRegularCF, terms: int) -> Optional[int]:
    """Emit an error and return 1 if cf is invalid or has fewer than `terms` terms."""
    violation = _first_violation(cf)
    if violation is not None:
        _emit({"error": "invalid input", "first_violation": violation})
        return 1
    if terms > len(cf):
        _emit({"error": "insufficient terms", "available": len(cf)})
        return 1
    return None


def _cmd_expand(args: argparse.Namespace) -> int:
    try:
        x = _parse_rational(args.value, "value")
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    b0, *pairs = itertools.islice(_euclid(x, ExpansionAlgo(args.algo)), EXPAND_MAX_TERMS + 2)
    if len(pairs) > EXPAND_MAX_TERMS:
        raise _OutputTooLarge(f"the expansion has over {EXPAND_MAX_TERMS} terms")
    sys.stdout.write(serialize_cf(SemiRegularCF.from_pairs(b0, pairs)) + "\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    eps = _parse_rational(args.eps, "--eps")
    if eps <= 0:
        sys.stderr.write("error: --eps must be > 0\n")
        return 2
    if args.max_steps < 1:
        sys.stderr.write("error: --max-steps must be >= 1\n")
        return 2
    cf = _read_cf(args, args.max_steps + 1)
    bad = _require(cf, 0)
    if bad:
        return bad
    try:
        result = tails.evaluate(cf, eps, args.max_steps)
    except BudgetExhausted as exc:
        _emit(
            {
                "error": "budget exhausted",
                "max_steps": exc.max_steps,
                "best_bound": exc.best_bound,
            }
        )
        return 3
    doc = {
        "approximation": result.approximation,
        "certified_error": result.certified_error,
        "steps_used": result.steps_used,
        "exact": result.exact,
    }
    if args.decimals is not None:
        doc["decimal"] = _decimal_str(result.approximation, args.decimals)
    _emit(doc)
    return 0


def _cmd_convergents(args: argparse.Namespace) -> int:
    cf = _read_cf(args, args.n)
    bad = _require(cf, args.n)
    if bad:
        return bad
    rows: List[dict] = []
    for s in core.iter_states(cf, args.n):
        row = {
            "n": s.n,
            "p": s.p_cur,
            "q": s.q_cur,
            "value": s.value,
        }
        if args.decimals is not None:
            row["decimal"] = _decimal_str(s.value, args.decimals)
        rows.append(row)
    _emit({"convergents": rows})
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    cf = _read_cf(args, args.n + 1)
    bad = _require(cf, args.n + 1)
    if bad:
        return bad
    cert = tails.certify(cf, args.n)
    _emit(
        {
            "n": cert.n,
            "anchor": cert.anchor,
            "regime": cert.regime,
            "bound": cert.bound,
        }
    )
    return 0


def _first_failures(cf: SemiRegularCF) -> Dict[str, Optional[int]]:
    """The first index at which each check fails, or None where it passes.

    One pass over the states checks the recurrence identities and the fold
    oracle.  One end-major pass over ends 1..CHECK_TAIL_HORIZON checks the
    tails, so the queries of one end share one tail sweep.  A check fails
    where its condition is false or the library raises an identity error,
    and is not run again once it has failed.
    """
    first: Dict[str, Optional[int]] = dict.fromkeys(CHECKS)

    def run(name: str, index: int, holds: Callable[[], bool]) -> None:
        if first[name] is None:
            try:
                ok = holds()
            except (IdentityViolation, DenominatorBelowOne):
                ok = False
            if not ok:
                first[name] = index

    total = cf.b0
    for s in core.iter_states(cf):
        n, c = s.n, s.value
        if n:
            total += core.series_term(s)
        run("lemma1", n,
            lambda: s.q_cur >= 1 and (n == len(cf) or core.gap(s, cf.a(n + 1)) >= 1))
        run("determinant", n, lambda: n == 0 or core.determinant_check(s) in (1, -1))
        run("series_equivalence", n, lambda: total == c == oracle.fold_eval(cf, n))
    for end in range(1, min(len(cf), CHECK_TAIL_HORIZON) + 1):
        deep = core.convergent(cf, end)
        for n in range(end):
            k = end - n
            run("tail_bounds", end, lambda: 0 < tails.tail(cf, n, k).value * cf.a(n + 1) <= 1)
            run("shift_identity", end, lambda: tails.shift_check(cf, n, k) == deep)
            run("error_bounds", end,
                lambda: tails.error_bound(cf, n, k) <= tails.uniform_step_bound(cf, n))
    return first


def _cmd_check(args: argparse.Namespace) -> int:
    cf = _read_cf(args, 0)
    violation = _first_violation(cf)
    if violation is not None:
        _emit({"valid": False, "first_violation": violation, "checks": []})
        return 1
    checks = [
        {"name": name, "pass": first is None, "first_failure": first}
        for name, first in _first_failures(cf).items()
    ]
    _emit({"valid": True, "checks": checks})
    return 0 if all(c["pass"] for c in checks) else 1


def _count(text: str) -> int:
    """A nonnegative int below sys.maxsize, so a horizon of value + 1 terms has a len()."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be >= 0 and < {sys.maxsize}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicf",
        description="Exact semi-regular continued fraction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a rational into a continued fraction")
    p.add_argument("--algo", choices=[a.value for a in ExpansionAlgo], required=True)
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit({"error": "parse error", "detail": str(exc)})
        return 1
    except _OutputTooLarge as exc:
        limit = sys.get_int_max_str_digits()
        detail = str(exc) or (
            f"a number in the result has over {limit} digits (PYTHONINTMAXSTRDIGITS)")
        _emit({"error": "output too large", "detail": detail})
        return 1
    except CFError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
