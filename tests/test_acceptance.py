"""Acceptance suite: one test per release criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with `pytest -s` or on failure);
all comparisons are exact rational comparisons, no tolerances.
"""

import json
import random
from fractions import Fraction

import pytest

from semicf import (
    RandomSpec,
    SemiRegularCF,
    anchor_index,
    certify,
    convergent,
    determinant_check,
    error_bound,
    evaluate,
    fold_eval,
    iter_states,
    nearest_int_expand,
    negative_expand,
    random_tietze,
    regular_expand,
    series_partial_sum,
    shift_check,
    state_at,
    tail,
    uniform_step_bound,
    validate,
)
from semicf.cli import parse_cf, serialize_cf

from conftest import all_minus_two, corpus_cf, gap, golden
from runner import run

TAIL_HORIZON = 30


def test_criterion_1_determinant_identity(corpus):
    checked = 0
    for cf in corpus:
        prod = 1
        for s in iter_states(cf):
            if s.n == 0:
                continue
            prod *= cf.a(s.n)
            expected = prod if s.n % 2 == 1 else -prod
            assert Fraction(s.P_cur * s.Q_prev - s.P_prev * s.Q_cur, s.scale**2) == expected
            assert determinant_check(s) == expected
            checked += 1
    print(f"PASS  1. determinant identity exact at {checked} indices "
          f"across {len(corpus)} sequences")


def test_criterion_2_q_lower_bounds_and_chain(corpus):
    for cf in corpus:
        states = list(iter_states(cf))
        length = len(cf)
        gaps = []
        for s in states:
            assert s.q_cur >= 1
            if s.n < length:
                g = gap(s, cf.a(s.n + 1))
                assert g >= 1
                gaps.append(g)
        # monotone chain: the gap never decreases along the sequence
        for g_prev, g_next in zip(gaps, gaps[1:]):
            assert g_next >= g_prev
        # chain inequality for all pairs n > m >= 1
        for m in range(1, length):
            floor = gap(states[m], cf.a(m + 1))
            for n in range(m + 1, length + 1):
                assert states[n].q_cur >= floor >= 1
    print(f"PASS  2. q_n >= 1, gap >= 1, monotone chain and pairwise chain "
          f"inequality on {len(corpus)} sequences")


def test_criterion_3_all_minus_growth():
    family = all_minus_two(1000)
    for s in iter_states(family):
        assert s.q_cur == s.n + 1
    rng_seeds = range(5000, 5200)
    for seed in rng_seeds:
        length = seed % 40 + 10
        # prefix of a longer sequence so every denominator stays >= 2
        cf = random_tietze(
            RandomSpec(seed=seed, length=length + 1, minus_probability=1,
                       integer_only=seed % 2 == 0)
        ).prefix(length)
        assert all(t.a == -1 and t.b >= 2 for t in cf.terms)
        for s in iter_states(cf):
            assert s.q_cur >= s.n + 1
    print("PASS  3. q_n = n+1 exactly for the all-(-1,2) family (n <= 1000); "
          f"q_n >= n+1 on {len(rng_seeds)} random all-minus sequences")


def test_criterion_4_tail_sign_and_magnitude(corpus):
    checked = 0
    for cf in corpus:
        horizon = min(len(cf), TAIL_HORIZON)
        for end in range(1, horizon + 1):
            for n in range(end):
                x = tail(cf, n, end - n).value  # intermediate denominators asserted
                if cf.a(n + 1) == 1:
                    assert 0 < x <= 1
                else:
                    assert -1 <= x < 0
                checked += 1
    print(f"PASS  4. tail sign/magnitude bounds and backward-recursion safety "
          f"at {checked} (n, k) pairs")


def test_criterion_5_shift_and_oracle_equivalence(corpus):
    checked = 0
    for cf in corpus:
        horizon = min(len(cf), TAIL_HORIZON)
        for end in range(1, horizon + 1):
            reference = convergent(cf, end)
            assert fold_eval(cf, end) == reference
            assert series_partial_sum(cf, end) == reference
            for n in range(end):
                assert shift_check(cf, n, end - n) == reference
                checked += 1
    print(f"PASS  5. shift identity = recurrence = nested fold = series "
          f"at {checked} (n, k) pairs")


def test_criterion_6_error_bound_ordering(corpus):
    checked = 0
    for cf in corpus:
        horizon = min(len(cf), TAIL_HORIZON)
        for n in range(horizon):
            u = uniform_step_bound(cf, n)
            base = convergent(cf, n)
            for k in range(1, horizon - n + 1):
                b = error_bound(cf, n, k)  # |deep - base| <= b asserted inside
                assert abs(convergent(cf, n + k) - base) <= b
                assert b <= u
                checked += 1
    print(f"PASS  6. |p_(n+k)/q_(n+k) - p_n/q_n| <= per-depth bound <= uniform "
          f"bound at {checked} pairs")


def test_criterion_7_expansion_round_trips():
    rng = random.Random(20260826)
    count = 1000
    for _ in range(count):
        x = Fraction(rng.randint(-(10**6) + 1, 10**6 - 1),
                     rng.randint(1, 10**6 - 1))
        for expansion in (regular_expand, negative_expand, nearest_int_expand):
            cf = expansion(x)
            assert validate(cf).valid
            assert fold_eval(cf) == x
    print(f"PASS  7. all three expansions Tietze-valid and exact on {count} "
          f"random rationals")


def test_criterion_8_certified_evaluation():
    eps = Fraction(1, 10**12)
    g = golden(250)
    res = evaluate(g, eps)
    assert not res.exact
    assert res.certified_error <= eps
    deeper = convergent(g, res.steps_used + 200)
    assert abs(res.approximation - deeper) <= eps

    am = all_minus_two(1100)
    res_am = evaluate(am, Fraction(1, 1000))
    assert res_am.certified_error == Fraction(1, res_am.steps_used + 1)
    assert res_am.certified_error <= Fraction(1, 1000)
    print(f"PASS  8. golden certified to 1e-12 at n={res.steps_used} and "
          f"checked against n+200; all-minus certified with bound "
          f"1/{res_am.steps_used + 1}")


def test_criterion_9_anchor_certificates(corpus):
    checked = 0
    for cf in corpus:
        if not any(t.a == 1 for t in cf.terms):
            continue
        for n in range(1, len(cf)):
            m = anchor_index(cf, n)
            if m is None:
                continue
            q_m = state_at(cf, m).q_cur
            leg = abs(convergent(cf, n) - convergent(cf, m))
            cert = certify(cf, n)
            assert cert.anchor == m
            if leg <= Fraction(1, q_m * q_m):
                assert cert.bound <= Fraction(2, q_m * q_m)
                checked += 1
    assert checked > 0
    print(f"PASS  9. anchored certificate <= 2/q_m^2 at {checked} tested indices")


def _run_check(document: str):
    code, out, _ = run(["check"], document.encode())
    return code, json.loads(out)


def _invalid_documents():
    docs = []
    filler = {"a": 1, "b": "2"}
    for i in range(10):
        # b = 1/2 at index i+1
        terms = [dict(filler) for _ in range(i)] + [{"a": 1, "b": "1/2"}, dict(filler)]
        docs.append((json.dumps({"b0": "1", "terms": terms}), i + 1, "BTooSmall"))
    for i in range(10):
        # b = 1 immediately followed by a = -1 at index i+1
        terms = [dict(filler) for _ in range(i)] + [{"a": 1, "b": "1"}, {"a": -1, "b": "2"}]
        docs.append((json.dumps({"b0": "1", "terms": terms}), i + 1, "GapViolation"))
    return docs


def test_criterion_10_cli_round_trip_and_violations(corpus):
    for cf in corpus[:100]:
        blob = serialize_cf(cf)
        assert serialize_cf(parse_cf(blob)) == blob
    invalid = _invalid_documents()
    for document, index, reason in invalid:
        code, doc = _run_check(document)
        assert code == 1
        assert doc["valid"] is False
        assert doc["first_violation"] == {"index": index, "reason": reason}
    print(f"PASS 10. byte-stable round trip on 100 documents; check rejected "
          f"{len(invalid)} invalid documents with correct first violations")
