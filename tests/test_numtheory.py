import random
import time
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kax import numtheory
from kax.errors import BudgetExceededError
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


def _sieve_factorizations(limit: int) -> list[dict[int, int]]:
    # the prime factorization of every n <= limit, from a least-factor sieve
    least = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if least[i] == i:
            for j in range(i * i, limit + 1, i):
                least[j] = min(least[j], i)
    out = [{}, {}]
    for n in range(2, limit + 1):
        rest = dict(out[n // least[n]])
        rest[least[n]] = rest.get(least[n], 0) + 1
        out.append(rest)
    return out


def test_scan_matches_a_sieve():
    for n, fac in enumerate(_sieve_factorizations(20_000)):
        assert is_prime(n) == (list(fac.values()) == [1]), n
        if len(fac) == 1:
            assert factor_prime_power(n) == next(iter(fac.items())), n
        else:
            message = f"{n} is not a prime power" if n < 2 else "not a prime power"
            with pytest.raises(ValueError, match=f"^{message}$"):
                factor_prime_power(n)
        if n >= 1:
            squarefree = all(e == 1 for e in fac.values())
            assert mobius(n) == ((-1) ** len(fac) if squarefree else 0), n
    for n in (-2, -1):
        assert not is_prime(n)
        with pytest.raises(ValueError, match=f"^{n} is not a prime power$"):
            factor_prime_power(n)


def test_scan_settles_a_small_least_factor_at_once():
    assert factor_prime_power(2**200) == (2, 200)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^not a prime power$"):
        factor_prime_power(3 * (10**18 + 3))
    assert time.perf_counter() - t0 < 0.1


def test_scan_past_its_ceiling_is_a_budget_error():
    # 10**18 + 3 is prime and its square root is past MAX_TRIAL_DIVISOR
    with pytest.raises(BudgetExceededError, match="no prime factor up to"):
        is_prime(10**18 + 3)
    with pytest.raises(BudgetExceededError, match="no prime factor up to"):
        factor_prime_power(10**18 + 3)


def test_scan_ceiling_edge(monkeypatch):
    monkeypatch.setattr(numtheory, "MAX_TRIAL_DIVISOR", 10)
    # a least factor cached under the real ceiling would answer before the scan
    numtheory._cached_least_factor.cache_clear()
    # isqrt(n) <= 10 settles n < 121; past it a factor up to 10 still does
    assert is_prime(113) and not is_prime(119) and mobius(120) == 0
    assert factor_prime_power(2**10) == (2, 10) and not is_prime(3 * 127)
    for n in (121, 127, 11 * 13):
        with pytest.raises(BudgetExceededError):
            is_prime(n)
        with pytest.raises(BudgetExceededError):
            mobius(n)


def test_is_prime_scans_each_n_once(monkeypatch):
    # a least factor is cached, so each layer that proves p prime or factors
    # q = p after the first makes no scan; a budget error is not, so it is
    # raised at every call
    scanned = []
    real = numtheory._least_factor

    def counting(n):
        scanned.append(n)
        return real(n)

    monkeypatch.setattr(numtheory, "_least_factor", counting)
    numtheory._cached_least_factor.cache_clear()
    assert [is_prime(1000000000039) for _ in range(3)] == [True] * 3
    assert [is_prime(1000000000038) for _ in range(2)] == [False] * 2
    assert factor_prime_power(1000000000039) == (1000000000039, 1)
    assert factor_prime_power(1000000000061) == (1000000000061, 1) and is_prime(1000000000061)
    assert scanned == [1000000000039, 1000000000038, 1000000000061]
    monkeypatch.setattr(numtheory, "MAX_TRIAL_DIVISOR", 10)
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="^121 has no prime factor up to 10, "):
            is_prime(121)
    assert scanned[3:] == [121, 121]
    numtheory._cached_least_factor.cache_clear()
