from fractions import Fraction

import pytest

from semicf import RandomSpec, SemiRegularCF, random_tietze

MINUS_PROBS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


def golden(length: int = 20) -> SemiRegularCF:
    """b0=1, all terms (+1, 1); convergents are ratios of Fibonacci numbers."""
    return SemiRegularCF.from_pairs(1, [(1, 1)] * length)


def all_minus_two(length: int = 20, b0: int = 2) -> SemiRegularCF:
    """b0; all terms (-1, 2): p_n = n + b0, q_n = n + 1 when b0 = 2."""
    return SemiRegularCF.from_pairs(b0, [(-1, 2)] * length)


def gap(s, a_next: int) -> Fraction:
    """q_n + a_{n+1} q_{n-1} of the state s, from its scaled integers."""
    return Fraction(s.Q_cur + a_next * s.Q_prev, s.scale)


def corpus_cf(seed: int, max_len: int = 50) -> SemiRegularCF:
    """One member of the seeded mixed corpus (deterministic in seed)."""
    return random_tietze(
        RandomSpec(
            seed=seed,
            length=(seed * 7) % max_len + 1,
            minus_probability=MINUS_PROBS[seed % 4],
            integer_only=seed % 2 == 0,
        )
    )


@pytest.fixture(scope="session")
def corpus():
    """1,000 seeded random Tietze-valid sequences, mixed rational/integer b."""
    return [corpus_cf(seed) for seed in range(1000)]


@pytest.fixture(scope="session")
def small_corpus():
    return [corpus_cf(seed) for seed in range(50)]
