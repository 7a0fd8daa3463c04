"""Exact integer number theory used by the counting and indexing layers.

Primality, prime-power factoring and the Mobius function read least prime
factors from one trial-division scan, bounded by MAX_TRIAL_DIVISOR;
primality and factoring share one cache of it.  All of it is
arbitrary-precision; no floating point is used anywhere in this package.
"""

from functools import lru_cache

from .errors import BudgetExceededError

# the scan makes at most MAX_TRIAL_DIVISOR // 2 divisions (0.5-1 s on a
# 2-core x86-64 VM), so it settles every n below (MAX_TRIAL_DIVISOR + 1)**2
MAX_TRIAL_DIVISOR = 10**7


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division by 2, then by odd
    f with f * f <= n; an f past MAX_TRIAL_DIVISOR raises BudgetExceededError."""
    if n % 2 == 0:
        return 2
    # no isqrt and no range: the small p that every layer checks stay cheap
    f = 3
    while f * f <= n:
        if f > MAX_TRIAL_DIVISOR:
            raise BudgetExceededError(
                f"{n} has no prime factor up to {MAX_TRIAL_DIVISOR}, where trial division stops")
        if n % f == 0:
            return f
        f += 2
    return n


@lru_cache(maxsize=256)
def _cached_least_factor(n: int) -> int:
    """_least_factor(n), cached: primality checks and factor_prime_power share
    it, so a process scans each n once however many layers check or factor
    it (an Fq: ring's q proves its p).  An error is not cached, so an n past
    the scan raises at every call."""
    return _least_factor(n)


def is_prime(n: int) -> bool:
    """Deterministic primality test: n >= 2 is its own least factor, so an
    n that the scan leaves open raises BudgetExceededError."""
    return n >= 2 and _cached_least_factor(n) == n


def require_prime(p: int) -> None:
    # is_prime's test without its call: every layer checks its p at every call
    if p < 2 or _cached_least_factor(p) != p:
        raise ValueError(f"{p} is not prime")


def mobius(n: int) -> int:
    """Mobius function: 0 if n has a squared prime factor, else (-1)^#primes."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    result = 1
    while n > 1:
        f = _least_factor(n)
        n //= f
        if n % f == 0:
            return 0
        result = -result
    return result


def vp(p: int, n: int) -> int:
    """p-adic valuation: the largest e with p^e dividing n."""
    require_prime(p)
    if n < 1:
        raise ValueError("vp requires n >= 1")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small = []
    large = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^f with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _cached_least_factor(q)
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, f

