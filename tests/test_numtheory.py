import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kax.numtheory import (
    divisors,
    factor_prime_power,
    is_prime,
    mobius,
    vp,
)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0


def test_mobius_rejects_zero():
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_divisor_sum():
    # sum of mu over divisors is the indicator of n = 1
    for n in range(1, 10_001):
        total = sum(mobius(u) for u in divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_vp_examples():
    assert vp(3, 18) == 2
    assert vp(3, 2) == 0
    assert vp(2, 8) == 3


def test_vp_rejects_bad_input():
    with pytest.raises(ValueError):
        vp(4, 10)
    with pytest.raises(ValueError):
        vp(3, 0)


def test_vp_additive():
    rng = random.Random(1)
    for _ in range(300):
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        for p in (2, 3, 5, 7):
            assert vp(p, a * b) == vp(p, a) + vp(p, b)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]


@given(st.integers(min_value=1, max_value=10_000))
def test_divisors_involution(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert [n // d for d in reversed(ds)] == ds


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(32) == (2, 5)
    with pytest.raises(ValueError):
        factor_prime_power(12)
    with pytest.raises(ValueError):
        factor_prime_power(1)
