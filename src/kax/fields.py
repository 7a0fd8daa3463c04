"""Small finite fields F_{p^f} with table-backed arithmetic.

Elements are encoded as integers 0..q-1: the element with coordinate
vector (c_0, ..., c_{f-1}) in the power basis of the fixed modulus is
encoded as sum c_i * p^i.  The modulus is the lexicographically least
monic irreducible of degree f (ordered by that same integer encoding of
the non-leading coefficients), so encodings are reproducible.

Fields in this package are tiny (q <= _TABLE_LIMIT = 512), so addition,
negation and multiplication are precomputed as tables; the product table
is filled from log/antilog tables over a primitive element.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .numtheory import require_prime

_TABLE_LIMIT = 512


def _poly_mod(a: list[int], modulus: list[int], p: int) -> list[int]:
    # reduce a modulo the monic polynomial `modulus` (ascending coeffs)
    a = a[:]
    f = len(modulus) - 1
    for i in range(len(a) - 1, f - 1, -1):
        c = a[i] % p
        if c:
            for j in range(f + 1):
                a[i - f + j] = (a[i - f + j] - c * modulus[j]) % p
    return [c % p for c in a[:f]]


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _is_irreducible(poly: list[int], p: int) -> bool:
    # poly monic of degree f, ascending coeffs; trial division by all monic
    # polynomials of degree 1..f//2
    f = len(poly) - 1
    for deg in range(1, f // 2 + 1):
        for tail in product(range(p), repeat=deg):
            div = list(tail) + [1]
            if _poly_divides(div, poly, p):
                return False
    return True


def _poly_divides(div: list[int], poly: list[int], p: int) -> bool:
    rem = _poly_mod(poly, div, p) if len(poly) > len(div) - 1 else poly[:]
    return all(c % p == 0 for c in rem)


def find_modulus(p: int, f: int) -> list[int]:
    """Least monic irreducible of degree f over F_p, ascending coefficients."""
    for code in range(p**f):
        tail = [(code // p**i) % p for i in range(f)]
        poly = tail + [1]
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")


class GaloisField:
    """F_{p^f} with integer-encoded elements and lookup-table products.

    add_table[a][b] and mul_table[a][b] are a + b and a * b, for callers
    that evaluate many terms without a method call each; they are shared,
    so read them only.
    """

    def __init__(self, p: int, f: int):
        require_prime(p)
        if f < 1:
            raise ValueError("f must be >= 1")
        self.p = p
        self.f = f
        self.q = p**f
        if self.q > _TABLE_LIMIT:
            raise ValueError(f"field order {self.q} exceeds supported size")
        self.modulus = find_modulus(p, f)
        self.add_table = self._build_add_table()
        self._neg = [row.index(0) for row in self.add_table]
        self.primitive, self.mul_table = self._build_mul_table()

    def _build_add_table(self) -> list[list[int]]:
        # digit by digit: a + b = (a + b) % p + p * T[a // p][b // p], where
        # T is the table of the sums of the higher digits
        p = self.p
        table = [[0]]
        for k in range(1, self.f + 1):
            size = p**k
            table = [[(a + b) % p + p * table[a // p][b // p] for b in range(size)]
                     for a in range(size)]
        return table

    def _build_mul_table(self) -> tuple[int, list[list[int]]]:
        # log/antilog tables over a primitive element g, whose q - 1 powers
        # are the nonzero elements: a * b = g^(log a + log b); returns g too
        p, q = self.p, self.q
        for g in range(1, q):
            exp, coords = [1], self.to_coords(g)
            while (power := self.from_coords(coords)) != 1:
                exp.append(power)
                coords = _poly_mod(_poly_mul(coords, self.to_coords(g), p), self.modulus, p)
            if len(exp) == q - 1:
                break
        log = {a: i for i, a in enumerate(exp)}
        logs = [log[a] for a in range(1, q)]
        exp += exp  # g^(i + j) for i, j < q - 1 without a modulus
        return g, [[0] * q] + [[0] + [exp[i + j] for j in logs] for i in logs]

    def to_coords(self, a: int) -> list[int]:
        p = self.p
        return [(a // p**i) % p for i in range(self.f)]

    def from_coords(self, coords: list[int]) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(coords))

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        out = 1
        while e:
            if e & 1:
                out = self.mul_table[out][a]
            a = self.mul_table[a][a]
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"GaloisField({self.p}, {self.f})"


@lru_cache(maxsize=None)
def galois_field(p: int, f: int) -> GaloisField:
    return GaloisField(p, f)
