"""Expansion algorithms producing Tietze-valid sequences from exact rationals.

Three classical finite expansions (regular/Euclidean, negative, and
nearest-integer) plus a seeded random generator for property tests.  Every
output validates and folds back to its input exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, Iterator, Tuple, Union

from .core import RationalLike, SemiRegularCF, Term, _Frozen, _set

#: Denominator bound for random non-integer partial denominators.
_DENOM_BOUND = 12

#: Upper bound of b0 and of every partial denominator that random_tietze draws.
_B_MAX = 8

#: How each algorithm, by its CLI name, picks the integer part c of u/v, for
#: v > 0: the floor, the ceiling, or the nearest integer with ties away from zero.
_ROUND: Dict[str, Callable[[int, int], int]] = {
    "regular": lambda u, v: u // v,
    "negative": lambda u, v: -(-u // v),
    "nearest": lambda u, v: (
        (2 * u + v) // (2 * v) if u >= 0 else -((v - 2 * u) // (2 * v))
    ),
}


def _euclid(x: RationalLike, algo: str) -> Iterator[Union[int, Tuple[int, int]]]:
    """Yield b0 and then each term (a, b) of the expansion of x under _ROUND[algo].

    One integer Euclid loop serves all three algorithms.  The complete
    quotient u/v (v > 0) is split as c + r with c chosen by the algorithm's
    rounding rule; while r != 0 the next term has numerator sign(r) and the
    loop continues with 1/|r|.
    """
    rule = _ROUND[algo]
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    c = rule(u, v)
    yield c
    u -= c * v
    while u:
        a = 1 if u > 0 else -1
        u, v = v, abs(u)
        c = rule(u, v)
        yield a, c
        u -= c * v


def _expand(x: RationalLike, algo: str) -> SemiRegularCF:
    """The finite expansion of x under algo; it validates and folds back to x."""
    b0, *pairs = _euclid(x, algo)
    return SemiRegularCF.from_pairs(b0, pairs)


def regular_expand(x: RationalLike) -> SemiRegularCF:
    """Euclidean expansion: all numerators +1, integer denominators >= 1."""
    return _expand(x, "regular")


def negative_expand(x: RationalLike) -> SemiRegularCF:
    """Ceiling expansion: all numerators -1, integer denominators >= 2.

    Integers expand to no terms (the minimal form) rather than a trailing
    chain of 2s.
    """
    return _expand(x, "negative")


def nearest_int_expand(x: RationalLike) -> SemiRegularCF:
    """Nearest-integer expansion: signed numerators, integer denominators >= 2.

    Ties at half-integers round away from zero, so the remainder becomes -1/2
    and the next denominator stays >= 2; outputs are reproducible.
    """
    return _expand(x, "nearest")


class RandomSpec(_Frozen):
    """Parameters for the seeded random sequence generator."""

    __slots__ = _fields = __match_args__ = ("seed", "length", "minus_probability", "integer_only")

    def __init__(self, seed: int, length: int,
                 minus_probability: RationalLike = Fraction(1, 3),
                 integer_only: bool = False) -> None:
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if length < 1:
            raise ValueError("length must be >= 1")
        minus_probability = Fraction(minus_probability)
        if not 0 <= minus_probability <= 1:
            raise ValueError("minus_probability must lie in [0, 1]")
        for f, value in zip(self._fields, (seed, length, minus_probability, integer_only)):
            _set(self, f, value)


def _draw_rational(rng: random.Random, lo: int, integer_only: bool) -> Fraction:
    d = 1 if integer_only else rng.randint(1, _DENOM_BOUND)
    return Fraction(rng.randint(lo * d, _B_MAX * d), d)


def random_tietze(spec: RandomSpec) -> SemiRegularCF:
    """A seeded random Tietze-valid sequence; deterministic in the seed.

    Numerator signs are drawn first; b0 is drawn from [0, 8], and each b_n
    from [2, 8] when the next numerator is -1 and from [1, 8] otherwise, so
    validity holds by construction.  A sign is -1 when random() < u/v for
    minus_probability = u/v.  random() is k / 2**53 for an integer k, and
    T / 2**53 with T = ceil(u 2**53 / v) <= 2**53 is an exact float, so the
    float test random() < T / 2**53 is k < T, which is k / 2**53 < u/v exactly.
    """
    rng = random.Random(spec.seed)
    u, v = spec.minus_probability.as_integer_ratio()
    threshold = -(-u * 2**53 // v) / 2**53
    signs = [-1 if rng.random() < threshold else 1 for _ in range(spec.length)]
    b0 = _draw_rational(rng, 0, spec.integer_only)
    terms = []
    for i in range(spec.length):
        needs_two = i + 1 < spec.length and signs[i + 1] == -1
        lo = 2 if needs_two else 1
        terms.append(Term(signs[i], _draw_rational(rng, lo, spec.integer_only)))
    return SemiRegularCF(b0, tuple(terms))
