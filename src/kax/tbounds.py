"""The window functions t_ev and t_od and the finite-support bound.

t_ev(p, r, m') is the unique positive t with m'*p^(t-1) <= 2r < m'*p^t,
or 0 if no such t exists; t_od is the same with 2r+1 in place of 2r.
Both are solved by exact integer scan, no logarithms.
"""

from __future__ import annotations

from .numtheory import require_prime


def window(p: int, target: int, m_prime: int) -> int:
    """Unique t >= 1 with m'*p^(t-1) <= target < m'*p^t, else 0.

    Unchecked: the caller guarantees p prime and m' >= 1 (otherwise the
    scan need not end).  t_ev and t_od are the checked forms.
    """
    if target < m_prime:
        return 0
    t = 1
    lower = m_prime
    while lower * p <= target:
        lower *= p
        t += 1
    # here lower = m'*p^(t-1) <= target < lower*p by loop exit
    return t


def _check(p: int, m_prime: int) -> None:
    require_prime(p)
    if m_prime < 1:
        raise ValueError("m_prime must be positive")


def t_ev(p: int, r: int, m_prime: int) -> int:
    """Window index for 2r; 0 when 2r < m' (in particular for r <= 0)."""
    _check(p, m_prime)
    return window(p, 2 * r, m_prime)


def t_od(p: int, r: int, m_prime: int) -> int:
    """Window index for 2r+1; 0 when 2r+1 < m'."""
    _check(p, m_prime)
    return window(p, 2 * r + 1, m_prime)


def m_prime_bound(p: int, degree: int) -> int:
    """Largest m' that can have a nonzero window at this degree.

    Every m' > degree has t_ev = t_od = 0 (the target is 2r or 2r+1,
    i.e. the degree itself), so all product loops stop there.  Negative
    degrees give an empty range.
    """
    require_prime(p)
    return max(degree, 0)
