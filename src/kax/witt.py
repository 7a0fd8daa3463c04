"""Truncated p-typical Witt vectors over F_{p^f}.

WittRing computes in W_n(F_q) through its isomorphism with the Galois
ring Z_q/p^n, in Teichmueller digits; an element of the Galois ring is
one packed integer (see WittRing for the layout).  The universal structure
polynomials are kept as oracle code: witt_polys solves them exactly over
the integers from the ghost-component identities

    w_i(x) = sum_{j<=i} p^j * x_j^(p^(i-j)),
    w_i(S) = w_i(X) + w_i(Y),    w_i(P) = w_i(X) * w_i(Y),

each w_i built as its i + 1 monomials, with integrality asserted
coefficient by coefficient.  They come in one form, dicts from exponent
tuple to coefficient, which kax.oracles evaluates over Z and folds into
F_q to check WittRing against.  Vectors are plain tuples of field-element
codes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import lshift

from .errors import BudgetExceededError, InternalError
from .fields import galois_field
from .numtheory import require_prime

# ---------------------------------------------------------------------------
# sparse integer polynomials: dict mapping exponent tuple -> coefficient

Poly = dict[tuple[int, ...], int]


def _padd(a: Poly, b: Poly, k: int = 1) -> Poly:
    # a + k b
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, 0) + k * c
        if nc:
            out[m] = nc
        elif m in out:
            del out[m]
    return out


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


def _ghost_poly(p: int, nvars: int, offset: int, i: int) -> Poly:
    # w_i over the variable block starting at `offset`: its i + 1 monomials
    # p^j x_j^(p^(i-j))
    out: Poly = {}
    for j in range(i + 1):
        m = [0] * nvars
        m[offset + j] = p ** (i - j)
        out[tuple(m)] = p**j
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
                goal = _padd(goal, _ppow(acc[j], p ** (i - j)), -(p**j))
            acc.append(_pdiv_exact(goal, p**i))
    return WittPolySet(p, n, tuple(sums), tuple(prods))


def ghost(p: int, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Ghost components of an integer coordinate vector, exact."""
    require_prime(p)
    return tuple(
        sum(p**j * coords[j] ** (p ** (i - j)) for j in range(i + 1))
        for i in range(len(coords))
    )


# ---------------------------------------------------------------------------
# runtime arithmetic in the Galois ring Z_q/p^n

# The ceiling on n * ceil(log2 p), for which a WittRing is built: p^n - 1,
# the largest coefficient mod p^n, has at most that many bits.  A packed
# element then has f slots of at most 5 * 256 + bitlen(2 f^2) bits, and the
# Teichmueller lift takes one power to the exponent p^(n-1); at the ceiling
# a ring over F_512 builds in about 0.1 s and multiplies in about 1 ms, the
# rings over F_243 and F_125 multiply in about 0.6 and 0.2 ms, and those
# over F_2, F_3, F_5, F_4 and F_8, which read several levels per readback
# step, in under 0.1 ms (2-core x86-64, Python 3.11).
MAX_WITT_BITS = 256

# the most rows a readback table may have: q^k rows read k levels per step
READ_ROWS = 64


class WittRing:
    """Arithmetic in W_n(F_q), q = p^f, inside the Galois ring Z_q/p^n.

    A vector maps to sum_i p^i tau(a_i^(p^-i)) in (Z/p^n)[x]/(m), m the
    field modulus read over the integers and tau the Teichmueller lift.
    Results are read back k digits at a time: what is left at level i is
    sum_{t<k} p^t tau(c_t) mod p^k with c_t = a_(i+t)^(p^-(i+t)); subtract
    that sum and divide by p^k.

    Packed layout (Kronecker substitution).  An element sum_k c_k x^k with
    every c_k >= 0 is the one integer sum_k c_k 2^(B k): f slots of B bits,
    slot k holding the coefficient of x^k.  While each slot stays below
    2^B, adding or multiplying packed integers adds or multiplies the
    polynomials with no carry between slots, so an add is one integer sum
    and a product one integer product.  Nothing is reduced mod p^n until
    the result is read back.

    Slot bound.  The lift tables hold tau(c) with each coefficient reduced
    mod p^n, so below p^n.  So an image sum_{i<n} p^i tau_i has slots
    below p^n (1 + p + ... + p^(n-1)) < p^(2n); a sum of two images below
    2 p^(2n); and the negation C - image, with C = p^(2n) in every slot,
    a multiple of p^n above any image slot, at most p^(2n).  The product
    of two images has 2f - 1 slots, each a sum of at most f products,
    below f p^(4n).  Its f - 1 high slots are folded back, slot f + j
    times the packed x^(f+j) mod m (slots below p^n), which leaves slots
    below f p^(4n) + (f - 1) f p^(4n) p^n <= f^2 p^(5n).  Every bound is
    at most S = f^2 p^(5n), and readback adds below p^(n+k) <= p^(2n) <= S
    to a slot, so B = bitlen(2 S).

    Readback.  A step reads k levels, k <= n the most with q^k <= READ_ROWS
    rows, and k = 1 if there is none.  The Teichmueller expansion in
    Z_q/p^k is unique, so the codes c_0..c_(k-1) read at the next k levels
    depend only on the slots mod p^k, and one table row per residue holds
    their digits and the packed step p^(n+k) - sum_{t<k} p^t tau(c_t).
    Every ring reads through such tables, with one key per parity of p.
    At p = 2 it is the low k bits of the slots.  At odd p it is the slots
    mod p^k read as one base-p^k integer, slot j of weight p^(kj): the one
    slot mod p^k at f = 1, and at f > 1, where q >= 9 and k = 1, the
    residue's field code.  The row read
    has a v with the slots of the element mod p^k, so each slot s below S
    plus its slot of the step is divisible by p^k, at least 0 and below
    2 S < 2^B.
    So dividing the whole integer exactly by p^k (a shift at p = 2)
    divides every slot, and the new slots are below 2 S / p^k <= S.  The
    added p^(n+k) is p^n after the division, a multiple of the modulus
    p^(n-i-k) the rest is read under, so no slot is ever reduced mod p^n;
    the last step drops its digits past n.  At f = 1 there is one slot and
    no high slot to fold: it is reduced mod p^n once.

    Set-up computes in the same layout, and holds one packed lift per
    field element, shared by f tables, one per Frobenius twist: level i
    looks a_i up in the table for the twist i mod f.  A readback table is
    likewise one per twist, that of its step's first level, and the
    tables share their steps.
    """

    # the readback key sets _mask at p = 2 and _weights at odd p; with slots
    # every ring has one layout, and attribute reads stay on the
    # interpreter's fast path when ops alternate between rings of either key
    __slots__ = ("p", "n", "field", "zero", "one", "_pn", "_B", "_slot", "_high", "_low",
                 "_folds", "_lifts_down", "_neg_base", "_k", "_pk", "_mask", "_weights",
                 "_reads")

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
        q = F.q
        self._pn = pn = p**n
        # slots hold any image, sum, negation or folded product, and the
        # readback step added to one
        B = (2 * f * f * p ** (5 * n)).bit_length()
        self._B, self._slot, self._high = B, (1 << B) - 1, B * f
        self._low = (1 << (B * f)) - 1
        shifts = range(0, B * f, B)
        wide = lambda cs: sum(map(lshift, cs, shifts))
        # each slot reduced mod p^n
        mod_pn = lambda x: wide([(x >> s & self._slot) % pn for s in shifts])
        # x^(f+j) mod m for j < f - 1, folded into the low slots of a
        # product: x^f = -(m_0 + ... + m_(f-1) x^(f-1)), and each next one is
        # x times the last, whose one high slot folds by x^f
        self._folds = []
        fold = wide([-c % pn for c in F.modulus[:f]])
        for _ in range(f - 1):
            self._folds.append(fold)
            fold = mod_pn(self._fold(fold << B))
        # tau(g^k) = tau(g)^k for a primitive g, and tau(g) = h^(p^(n-1))
        # for h = g^(p^-(n-1)) read over the integers: h = tau(h) (1 + p u),
        # (1 + p u)^(p^(n-1)) = 1 mod p^n and tau(h)^(p^(n-1)) = tau(g).
        # Products of elements with slots below p^n fold to slots below
        # f^2 p^(3n) < 2^B, which mulmod then reduces mod p^n.
        mulmod = lambda x, y: mod_pn(self._fold(x * y))
        h = F.pow(F.primitive, p ** (-(n - 1) % f))
        base, tau_g, e = wide(F.to_coords(h)), 1, p ** (n - 1)
        while e:
            if e & 1:
                tau_g = mulmod(tau_g, base)
            base, e = mulmod(base, base), e >> 1
        lift = [0] * q
        a, t = 1, 1
        for _ in range(q - 1):
            lift[a], a, t = t, F.mul(a, F.primitive), mulmod(t, tau_g)
        # level i lifts a as tau(a^(p^-i)) and reads its digit back as
        # c^(p^i); the Frobenius x -> x^p has order f
        frob, power_p = [list(F.elements())], [F.pow(a, p) for a in F.elements()]
        for _ in range(f - 1):
            frob.append([power_p[b] for b in frob[-1]])
        # dicts, so that a coordinate outside 0..q-1 fails its lookup
        twists = [dict(enumerate(map(lift.__getitem__, frob[-k % f]))) for k in range(f)]
        # (level, its lift table), top level first, for Horner's rule
        self._lifts_down = [(i, twists[i % f]) for i in reversed(range(n))]
        self._neg_base = wide([p ** (2 * n)] * f)
        # k levels per step, k <= n the most whose table has at most
        # READ_ROWS rows
        self._k = k = next(k for k in range(n, 0, -1) if k == 1 or q**k <= READ_ROWS)
        self._pk = pk = p**k
        # the sums v = sum_{t<k} p^t tau(c_t) over the q^k runs of k codes,
        # built one digit at a time, take the q^k residues of the slots mod
        # p^k once each: a run is keyed by its residue, and its step, the
        # packed p^(n+k) - v, clears its k levels
        runs = [((), 0)]
        for t in range(k):
            runs = [(cs + (c,), v + p**t * lift[c]) for cs, v in runs for c in range(q)]
        if p == 2:
            # the low k bits of the slots
            self._mask = mask = wide([(1 << k) - 1] * f)
            key = mask.__and__
        else:
            # the slots mod p^k as one base-p^k integer, slot j of weight p^(kj)
            self._weights = [(s, pk**j) for j, s in enumerate(shifts)][1:]
            key = lambda v: sum((v >> s & self._slot) % pk * pk**j for j, s in enumerate(shifts))
        top = wide([p ** (n + k)] * f)
        runs = sorted((key(v), cs, top - v) for cs, v in runs)
        keys = [r for r, _, _ in runs]

        # a run's row at levels of twist j, j + 1, ...: its digits, cut to
        # the levels below n, and its step; a list indexed by key, but a dict
        # at p = 2 and f > 1, whose keys are spread over the slots
        def table(j, cut):
            levels = [frob[(j + t) % f] for t in range(cut)]
            rows = [(tuple(map(list.__getitem__, levels, cs)), step) for _, cs, step in runs]
            return dict(zip(keys, rows)) if p == 2 and f > 1 else rows

        tables = [table(j, k) for j in range(f)]
        # the table of each step, by the twist of its first level; the last
        # drops the digits past n
        self._reads = [tables[s % f] for s in range(0, n, k)]
        if n % k:
            self._reads[-1] = table((n - n % k) % f, n % k)

    def _fold(self, x: int) -> int:
        # a product of two packed elements, its f - 1 high slots folded back
        if self._folds:
            B, mask = self._B, self._slot
            hi, x = x >> self._high, x & self._low
            for fold in self._folds:
                x += (hi & mask) * fold
                hi >>= B
        return x

    def lift(self, a: tuple[int, ...]) -> int:
        """The packed image of a vector, for the *_lifted ops."""
        if len(a) != self.n:
            raise ValueError(f"expected length-{self.n} vector, got {a}")
        # Horner's rule from the top level down: n multiply-adds by p
        p, x = self.p, 0
        try:
            for i, lift in self._lifts_down:
                x = x * p + lift[a[i]]
        except (KeyError, TypeError):
            raise ValueError(f"coordinate out of field range in {a}") from None
        return x

    def _read(self, x: int) -> tuple[int, ...]:
        # the Teichmueller digits of a packed element with slots in
        # [0, f^2 p^(5n)), k levels per step
        out = []
        if not self._folds:
            # f = 1: one slot, reduced mod p^n once
            x %= self._pn
            pk = self._pk
            for rows in self._reads:
                digits, step = rows[x % pk]
                out += digits
                x = (x + step) // pk
        elif self.p == 2:
            mask, k = self._mask, self._k
            for rows in self._reads:
                digits, step = rows[x & mask]
                out += digits
                x = (x + step) >> k
        else:
            # odd p, f > 1: k = 1, and the key is the residue's field code
            p, slot, weights = self.p, self._slot, self._weights
            for rows in self._reads:
                key = (x & slot) % p
                for s, w in weights:
                    key += (x >> s & slot) % p * w
                digits, step = rows[key]
                out += digits
                x = (x + step) // p
        return tuple(out)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self._read(self.lift(a) + self.lift(b))

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self._read(self._fold(self.lift(a) * self.lift(b)))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return self._read(self._neg_base - self.lift(a))

    # the same ops on operands lift has made, for a caller that uses one
    # vector in many ops; each still reads its result back to a tuple

    def add_lifted(self, x: int, y: int) -> tuple[int, ...]:
        return self._read(x + y)

    def mul_lifted(self, x: int, y: int) -> tuple[int, ...]:
        return self._read(self._fold(x * y))

    def neg_lifted(self, x: int) -> tuple[int, ...]:
        return self._read(self._neg_base - x)


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


# the largest p^n iso_with_zpn checks: it multiplies every pair of Z/p^n
ISO_BUDGET = 3**5


def iso_with_zpn(p: int, n: int) -> dict[int, tuple[int, ...]]:
    """Oracle: k -> k*(1,0,...,0) is a ring isomorphism Z/p^n -> W_n(F_p).

    Returns the bijection table; raises InternalError if the map fails to
    be bijective or multiplicative, which would mean WittRing's arithmetic
    is wrong.  It runs on the lifted ops: each table entry is lifted once,
    as the table is built, and each product multiplies two of those lifts.
    """
    require_prime(p)
    pn = p**n
    if pn > ISO_BUDGET:
        raise BudgetExceededError(f"p^n = {pn} exceeds budget {ISO_BUDGET}")
    ring = witt_ring(p, n, 1)
    lift_one = ring.lift(ring.one)
    table: dict[int, tuple[int, ...]] = {0: ring.zero}
    lifts = [ring.lift(ring.zero)]
    for k in range(1, pn):
        table[k] = ring.add_lifted(lifts[-1], lift_one)
        lifts.append(ring.lift(table[k]))
    if len(set(table.values())) != pn:
        raise InternalError(f"Z/{pn} -> W_{n}(F_{p}) is not injective")
    if ring.add_lifted(lifts[-1], lift_one) != ring.zero:
        raise InternalError(f"additive order of 1 in W_{n}(F_{p}) is not {pn}")
    for a in range(pn):
        for b in range(a, pn):
            if ring.mul_lifted(lifts[a], lifts[b]) != table[a * b % pn]:
                raise InternalError(
                    f"multiplicativity fails at ({a}, {b}) for W_{n}(F_{p})"
                )
    return table
