"""Identities that hold in every W_n(F_q), checked at n up to the ceiling.

The structure polynomials check WittRing only up to n = 5; these use the
public add/mul/neg with verschiebung and restrict alone, so they reach
every n the ring admits (Hesselholt, "Lecture notes on Witt vectors",
2005; Serre, Local Fields, II 6):

* restriction W_n -> W_{n-1} is a ring map, which chains every n down to
  the polynomial-checked ones;
* V: W_{n-1} -> W_n is additive, and V(x) y = V(x F(y)), where F is the
  coordinatewise p-th power over the perfect field F_q;
* F V = V F = p, that is p x = (0, x_0^p, ..., x_{n-2}^p);
* Teichmueller lifts multiply: [a][b] = [ab];
* for f = 1, k -> k 1 is a ring map Z/p^n -> W_n(F_p), here by
  double-and-add on random k and l.
"""

import random

import pytest

from kax.witt import restrict, verschiebung, witt_ring

# (p, n, f): p = 2 up to the ceiling n = 256, and the largest n at p = 3 and
# p = 5, each beside a small n just past the polynomial-checked range
CELLS = [(2, 6, 1), (2, 6, 3), (2, 7, 2), (2, 17, 4), (2, 64, 2), (2, 256, 1),
         (2, 256, 9), (3, 6, 2), (3, 128, 1), (3, 128, 3), (5, 6, 2), (5, 85, 1),
         (5, 85, 2)]


def _draws(ring, cell, count):
    rng = random.Random(f"identities {cell}")
    q, n = ring.field.q, ring.n
    samples = 40 if n < 20 else count
    vec = lambda: tuple(rng.randrange(q) for _ in range(n))
    return [(vec(), vec()) for _ in range(samples)]


def _frobenius(ring, a):
    F = ring.field
    return tuple(F.pow(c, F.p) for c in a)


def _times(ring, k, a):
    # k * a by double-and-add, with ring.add alone
    out = ring.zero
    while k:
        if k & 1:
            out = ring.add(out, a)
        a = ring.add(a, a)
        k >>= 1
    return out


@pytest.mark.parametrize("cell", CELLS)
def test_restriction_is_a_ring_map(cell):
    p, n, f = cell
    big, small = witt_ring(p, n, f), witt_ring(p, n - 1, f)
    for a, b in _draws(big, cell, 6):
        ra, rb = restrict(a), restrict(b)
        assert restrict(big.add(a, b)) == small.add(ra, rb)
        assert restrict(big.mul(a, b)) == small.mul(ra, rb)
        assert restrict(big.neg(a)) == small.neg(ra)


@pytest.mark.parametrize("cell", CELLS)
def test_verschiebung_is_additive_and_a_module_map(cell):
    p, n, f = cell
    big, small = witt_ring(p, n, f), witt_ring(p, n - 1, f)
    for a, y in _draws(big, cell, 6):
        x, b = restrict(a), restrict(y)
        assert big.add(verschiebung(x), verschiebung(b)) == verschiebung(small.add(x, b))
        # V(x) y = V(x F(y)), F(y) truncated to W_{n-1}
        assert big.mul(verschiebung(x), y) == verschiebung(
            small.mul(x, restrict(_frobenius(big, y))))


@pytest.mark.parametrize("cell", CELLS)
def test_frobenius_verschiebung_is_p(cell):
    p, n, f = cell
    ring = witt_ring(p, n, f)
    for a, _ in _draws(ring, cell, 6):
        fv = _frobenius(ring, restrict(verschiebung(a)))
        assert fv == restrict(verschiebung(_frobenius(ring, a)))
        assert _times(ring, p, a) == fv


@pytest.mark.parametrize("cell", CELLS)
def test_teichmueller_lifts_multiply(cell):
    p, n, f = cell
    ring = witt_ring(p, n, f)
    F = ring.field
    lift = lambda c: (c,) + ring.zero[1:]
    for a, b in _draws(ring, cell, 6):
        assert ring.mul(lift(a[0]), lift(b[0])) == lift(F.mul(a[0], b[0]))
        assert ring.mul(lift(a[-1]), lift(F.q - 1)) == lift(F.mul(a[-1], F.q - 1))


@pytest.mark.parametrize("cell", [c for c in CELLS if c[2] == 1])
def test_integers_map_into_the_prime_field_ring(cell):
    p, n, _ = cell
    ring = witt_ring(p, n, 1)
    pn = p**n
    rng = random.Random(f"multiples {cell}")
    assert _times(ring, pn, ring.one) == ring.zero
    assert _times(ring, pn - 1, ring.one) == ring.neg(ring.one)
    for _ in range(3):
        k, l = rng.randrange(1, pn), rng.randrange(1, pn)
        mk, ml = _times(ring, k, ring.one), _times(ring, l, ring.one)
        assert mk != ring.zero
        assert ring.add(mk, ml) == _times(ring, (k + l) % pn, ring.one)
        assert ring.mul(mk, ml) == _times(ring, k * l % pn, ring.one)
