"""Truncated p-typical Witt vectors over F_{p^f}.

The structure polynomials are not taken from any closed form: they are
solved exactly over the integers from the ghost-component identities

    w_i(x) = sum_{j<=i} p^j * x_j^(p^(i-j)),
    w_i(S) = w_i(X) + w_i(Y),    w_i(P) = w_i(X) * w_i(Y),

with integrality asserted coefficient by coefficient.  Vectors are plain
tuples of field-element codes; WittRing carries the compiled polynomials
and the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, InternalError
from .fields import GaloisField, galois_field
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


@dataclass(frozen=True)
class WittPolySet:
    """Sum and product structure polynomials for W_n, 2n variables each.

    Variables 0..n-1 are the X block, n..2n-1 the Y block.
    """

    p: int
    n: int
    sum_polys: tuple[Poly, ...]
    prod_polys: tuple[Poly, ...]


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
# compiled evaluation over a finite field

Compiled = list[tuple[int, tuple[tuple[int, int], ...]]]


def _compile(poly: Poly, field: GaloisField) -> Compiled:
    p, q = field.p, field.q
    out: Compiled = []
    for m, c in poly.items():
        cr = c % p
        if cr == 0:
            continue
        monom = []
        for vi, e in enumerate(m):
            if e:
                # x^q = x in F_q, so fold the exponent into 1..q-1
                if e >= q:
                    e = (e - 1) % (q - 1) + 1
                monom.append((vi, e))
        out.append((cr, tuple(monom)))
    return out


class WittRing:
    """Arithmetic in W_n(F_{p^f}) via the compiled structure polynomials."""

    def __init__(self, p: int, n: int, f: int = 1):
        require_prime(p)
        if n < 1:
            raise ValueError("n must be >= 1")
        self.p = p
        self.n = n
        self.field = galois_field(p, f)
        polys = witt_polys(p, n)
        self._sum = [_compile(s, self.field) for s in polys.sum_polys]
        self._prod = [_compile(s, self.field) for s in polys.prod_polys]
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)
        self._max_exp = max(
            (e for c in self._sum + self._prod for _, mon in c for _, e in mon),
            default=1,
        )

    def _check(self, a: tuple[int, ...]) -> None:
        if len(a) != self.n:
            raise ValueError(f"expected length-{self.n} vector, got {a}")
        if any(x < 0 or x >= self.field.q for x in a):
            raise ValueError(f"coordinate out of field range in {a}")

    def _eval_all(
        self, compiled: list[Compiled], a: tuple[int, ...], b: tuple[int, ...]
    ) -> tuple[int, ...]:
        F = self.field
        mul = F.mul
        add = F.add
        vals = a + b
        # power tables per variable, built once per operation
        pows = []
        for v in vals:
            row = [1, v]
            for _ in range(self._max_exp - 1):
                row.append(mul(row[-1], v))
            pows.append(row)
        out = []
        for comp in compiled:
            acc = 0
            for c, monom in comp:
                t = c
                for vi, e in monom:
                    t = mul(t, pows[vi][e])
                acc = add(acc, t)
            out.append(acc)
        return tuple(out)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        self._check(a)
        self._check(b)
        return self._eval_all(self._sum, a, b)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        self._check(a)
        self._check(b)
        return self._eval_all(self._prod, a, b)

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        # -a is the additive inverse; for p odd it is coordinatewise negation.
        # For p = 2, S_i = X_i + Y_i + g(X_<i, Y_<i), so with b_<i solved and
        # b_i = 0 the i-th sum coordinate is a_i + g, and b_i is its negative.
        self._check(a)
        if self.p != 2:
            return tuple(self.field.neg(x) for x in a)
        b = list(self.zero)
        for i in range(self.n):
            b[i] = self.field.neg(self.add(a, tuple(b))[i])
        return tuple(b)

    def scalar(self, k: int) -> tuple[int, ...]:
        """k-fold sum of 1, i.e. the image of the integer k."""
        out = self.zero
        a = self.one
        neg = k < 0
        k = abs(k)
        while k:
            if k & 1:
                out = self.add(out, a)
            k >>= 1
            if k:
                a = self.add(a, a)
        return self.neg(out) if neg else out


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
