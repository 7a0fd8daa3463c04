"""Truncated p-typical Witt vectors over F_{p^f}.

WittRing computes in W_n(F_q) through its isomorphism with the Galois
ring Z_q/p^n, in Teichmueller digits.  The universal structure
polynomials are kept as oracle code: witt_polys solves them exactly over
the integers from the ghost-component identities

    w_i(x) = sum_{j<=i} p^j * x_j^(p^(i-j)),
    w_i(S) = w_i(X) + w_i(Y),    w_i(P) = w_i(X) * w_i(Y),

with integrality asserted coefficient by coefficient, and kax.oracles
checks WittRing against them.  Vectors are plain tuples of field-element
codes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import add, getitem, mul

from .errors import BudgetExceededError, InternalError
from .fields import galois_field
from .numtheory import require_prime

# ---------------------------------------------------------------------------
# sparse integer polynomials: dict mapping exponent tuple -> coefficient

Poly = dict[tuple[int, ...], int]


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        elif m in out:
            del out[m]
    return out


def _pscale(a: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {m: c * k for m, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
    return out


def _ppow(a: Poly, e: int) -> Poly:
    nvars = len(next(iter(a))) if a else 0
    out: Poly = {(0,) * nvars: 1}
    base = a
    while e:
        if e & 1:
            out = _pmul(out, base)
        e >>= 1
        if e:
            base = _pmul(base, base)
    return out


def _pdiv_exact(a: Poly, k: int) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        if c % k != 0:
            raise InternalError(
                f"non-integral Witt structure coefficient {c}/{k} at {m}"
            )
        out[m] = c // k
    return out


def _var(nvars: int, i: int) -> Poly:
    m = [0] * nvars
    m[i] = 1
    return {tuple(m): 1}


def _ghost_poly(p: int, nvars: int, offset: int, i: int) -> Poly:
    # w_i over the variable block starting at `offset`
    out: Poly = {}
    for j in range(i + 1):
        out = _padd(out, _pscale(_ppow(_var(nvars, offset + j), p ** (i - j)), p**j))
    return out


class WittPolySet(namedtuple("WittPolySet", "p n sum_polys prod_polys")):
    """Sum and product structure polynomials for W_n, 2n variables each.

    Variables 0..n-1 are the X block, n..2n-1 the Y block.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def witt_polys(p: int, n: int) -> WittPolySet:
    """Solve the ghost identities for S_0..S_{n-1} and P_0..P_{n-1}."""
    require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    nvars = 2 * n
    sums: list[Poly] = []
    prods: list[Poly] = []
    for which, acc in (("sum", sums), ("prod", prods)):
        for i in range(n):
            gx = _ghost_poly(p, nvars, 0, i)
            gy = _ghost_poly(p, nvars, n, i)
            goal = _padd(gx, gy) if which == "sum" else _pmul(gx, gy)
            for j in range(i):
                goal = _padd(goal, _pscale(_ppow(acc[j], p ** (i - j)), -(p**j)))
            acc.append(_pdiv_exact(goal, p**i))
    return WittPolySet(p, n, tuple(sums), tuple(prods))


def ghost(p: int, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Ghost components of an integer coordinate vector, exact."""
    require_prime(p)
    return tuple(
        sum(p**j * coords[j] ** (p ** (i - j)) for j in range(i + 1))
        for i in range(len(coords))
    )


def eval_poly_int(poly: Poly, vals: tuple[int, ...]) -> int:
    """Exact integer evaluation; used by the ghost-identity tests."""
    total = 0
    for m, c in poly.items():
        t = c
        for v, e in zip(vals, m):
            if e:
                t *= v**e
        total += t
    return total


# ---------------------------------------------------------------------------
# runtime arithmetic in the Galois ring Z_q/p^n

# The ceiling on n * ceil(log2 p), the bits of p^n, for which a WittRing is
# built.  An element of Z_q/p^n is f integers of that many bits, and the
# Teichmueller lift takes one power to the exponent q^(n-1); at the ceiling
# a ring over F_512 builds and multiplies in about half a second.
MAX_WITT_BITS = 256


class WittRing:
    """Arithmetic in W_n(F_q), q = p^f, inside the Galois ring Z_q/p^n.

    A vector maps to sum_i p^i tau(a_i^(p^-i)) in (Z/p^n)[x]/(m), m the
    field modulus read over the integers and tau the Teichmueller lift.
    The lift of a vector is one pass over shared tables: level i looks a_i
    up in one of f lift tables (the one for the Frobenius twist i mod f,
    shared by every level with that twist), and each of the f coordinates
    of the image is the dot product of the looked-up column with
    (1, p, ..., p^(n-1)).  Results are read back one digit at a time: what
    is left at level i is tau(c) mod p with c = a_i^(p^-i); subtract tau(c)
    and divide by p.
    """

    def __init__(self, p: int, n: int, f: int = 1):
        require_prime(p)
        if n < 1:
            raise ValueError("n must be >= 1")
        if n * (p - 1).bit_length() > MAX_WITT_BITS:
            raise BudgetExceededError(
                f"W_{n} at p = {p} is past the ceiling n * ceil(log2 p) <= {MAX_WITT_BITS}")
        self.p = p
        self.n = n
        self.field = F = galois_field(p, f)
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)
        self._modulus = F.modulus[:f]
        # tau(g^k) = tau(g)^k for a primitive g, and tau(g) = g^(q^(n-1))
        pn = p**n
        mul_mod = lambda u, v: [c % pn for c in self._mul(u, v)]
        base, tau_g = F.to_coords(F.primitive), [1] + [0] * (f - 1)
        e = F.q ** (n - 1)
        while e:
            if e & 1:
                tau_g = mul_mod(tau_g, base)
            base, e = mul_mod(base, base), e >> 1
        self._tau = tau = [[0] * f] * F.q
        a, t = 1, [1] + [0] * (f - 1)
        for _ in range(F.q - 1):
            tau[a], a, t = t, F.mul(a, F.primitive), mul_mod(t, tau_g)
        # level i lifts a as tau(a^(p^-i)) and reads its digit back as c^(p^i)
        frob = [[F.pow(a, p**k) for a in F.elements()] for k in range(f)]
        lifts = [[tau[b] for b in frob[-k % f]] for k in range(f)]
        self._by_level = [lifts[i % f] for i in range(n)]
        self._pows = [p**i for i in range(n)]
        self._digit_tables = [frob[i % f] for i in range(n)]

    def _mul(self, a: list[int], b: list[int]) -> list[int]:
        # schoolbook product, then x^k for k >= f reduced from the top down
        f = len(a)
        out = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        for k in range(2 * f - 2, f - 1, -1):
            for j, m in enumerate(self._modulus):
                out[k - f + j] -= out[k] * m
        return out[:f]

    def _image(self, a: tuple[int, ...]) -> list[int]:
        # one dot product with (1, p, ..., p^(n-1)) per coordinate, left
        # unreduced mod p^n: the digits read back never see a multiple of p^n
        if len(a) != self.n:
            raise ValueError(f"expected length-{self.n} vector, got {a}")
        if min(a) < 0 or max(a) >= self.field.q:
            raise ValueError(f"coordinate out of field range in {a}")
        pows = self._pows
        return [sum(map(mul, pows, col)) for col in zip(*map(getitem, self._by_level, a))]

    def _read_digits(self, x: list[int]) -> tuple[int, ...]:
        p, tau = self.p, self._tau
        out = []
        for digit in self._digit_tables:
            # the residue of x mod p, as a field-element code
            c = 0
            for u in reversed(x):
                c = c * p + u % p
            out.append(digit[c])
            x = [(u - v) // p for u, v in zip(x, tau[c])]
        return tuple(out)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self._read_digits(list(map(add, self._image(a), self._image(b))))

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self._read_digits(self._mul(self._image(a), self._image(b)))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return self._read_digits([-u for u in self._image(a)])


@lru_cache(maxsize=None)
def witt_ring(p: int, n: int, f: int = 1) -> WittRing:
    return WittRing(p, n, f)


def verschiebung(a: tuple[int, ...]) -> tuple[int, ...]:
    """V(a_0, ..., a_{n-1}) = (0, a_0, ..., a_{n-1}), additive shift."""
    return (0,) + tuple(a)


def restrict(a: tuple[int, ...]) -> tuple[int, ...]:
    """Drop the last coordinate; the truncation ring homomorphism."""
    if len(a) < 2:
        raise ValueError("restriction needs length >= 2")
    return tuple(a[:-1])


def iso_with_zpn(p: int, n: int, budget: int = 3**5) -> dict[int, tuple[int, ...]]:
    """Oracle: k -> k*(1,0,...,0) is a ring isomorphism Z/p^n -> W_n(F_p).

    Returns the bijection table; raises InternalError if the map fails to
    be bijective or multiplicative, which would mean the structure
    polynomials are wrong.
    """
    require_prime(p)
    pn = p**n
    if pn > budget:
        raise BudgetExceededError(f"p^n = {pn} exceeds budget {budget}")
    ring = witt_ring(p, n, 1)
    table: dict[int, tuple[int, ...]] = {0: ring.zero}
    for k in range(1, pn):
        table[k] = ring.add(table[k - 1], ring.one)
    if len(set(table.values())) != pn:
        raise InternalError(f"Z/{pn} -> W_{n}(F_{p}) is not injective")
    if ring.add(table[pn - 1], ring.one) != ring.zero:
        raise InternalError(f"additive order of 1 in W_{n}(F_{p}) is not {pn}")
    for a in range(pn):
        for b in range(a, pn):
            if ring.mul(table[a], table[b]) != table[a * b % pn]:
                raise InternalError(
                    f"multiplicativity fails at ({a}, {b}) for W_{n}(F_{p})"
                )
    return table
