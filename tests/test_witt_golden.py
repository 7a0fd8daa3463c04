"""WittRing add/mul/neg pinned by sha256 to results recorded before the
packed Galois-ring arithmetic replaced the per-coordinate lists, and the
ghost-solved structure polynomials pinned to those recorded before each
ghost polynomial was built directly from its monomials.

Each WittRing hash covers one grid of cells: for every pair (a, b) a line
holding a, b, a + b, a * b and -a.  The ceiling cells include the
all-(q - 1) vectors, whose images have the widest slots.
"""

import hashlib
import random
from itertools import product

import pytest

from kax.witt import WittRing, witt_polys


def _digest(cells, pairs_of) -> str:
    h = hashlib.sha256()
    for p, n, f in cells:
        ring = WittRing(p, n, f)
        for a, b in pairs_of(p, n, f, ring.field.q):
            h.update(f"{a}|{b}|{ring.add(a, b)}|{ring.mul(a, b)}|{ring.neg(a)}\n".encode())
    return h.hexdigest()


def _random_vec(rng, q, n):
    return tuple(rng.randrange(q) for _ in range(n))


# every perfbench witt-arith cell: p = 2, 3, 5 up to n = 6, 4, 3, f = 1, 2, 3
GRID = [(p, n, f) for p, n_max in ((2, 6), (3, 4), (5, 3))
        for n in range(1, n_max + 1) for f in (1, 2, 3)]


def _grid_pairs(p, n, f, q):
    # every pair where q^(2n) <= 4096, then 300 seeded pairs: 28,592 in all
    if q ** (2 * n) <= 4096:
        vecs = list(product(range(q), repeat=n))
        yield from product(vecs, repeat=2)
    rng = random.Random(f"grid {p},{n},{f}")
    for _ in range(300):
        yield _random_vec(rng, q, n), _random_vec(rng, q, n)


# the ceiling n * ceil(log2 p) = 256 at p = 2 (F_2 and F_512), 3 (F_243)
# and 5 (F_125)
CEILING = [(2, 256, 1), (2, 256, 9), (3, 128, 5), (5, 85, 3)]


def _ceiling_pairs(p, n, f, q):
    rng = random.Random(f"ceiling {p},{n},{f}")
    top = (q - 1,) * n
    yield top, top
    for _ in range(4):
        yield top, _random_vec(rng, q, n)
        yield _random_vec(rng, q, n), top
    for _ in range(12):
        yield _random_vec(rng, q, n), _random_vec(rng, q, n)


def test_grid_hash():
    assert _digest(GRID, _grid_pairs) == (
        "b6cbac233e1b0679c8ebef2ce54a97562bb5e575b8e740be827aa0b2890d8437")


@pytest.mark.parametrize("cell", CEILING)
def test_ceiling_hash(cell):
    assert _digest([cell], _ceiling_pairs) == CEILING_HASHES[cell]


CEILING_HASHES = {
    (2, 256, 1): "49d3af2b1619671fa1073bfd8c31ad6ca0874e33c8dd1d5da695f5fd724bab36",
    (2, 256, 9): "cdb895a9f8cf258c1035b4a470c52d62269ef0756b2d7f1556e733af7c889376",
    (3, 128, 5): "34c33430eea946bbb5086eb6015476b2243ec5227240c8813955dfa60fc937a4",
    (5, 85, 3): "b50c5286f4be432311b5734d26363854ffe65ae180dd58663df5e6e94425922a",
}


# witt_polys(p, n) for p = 2, 3, 5 up to n = 3, then (2, 4), (2, 5), (3, 4)
POLY_CELLS = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)] + [(2, 4), (2, 5), (3, 4)]


def test_structure_polynomials_hash():
    # one line per S_i, then per P_i: its (monomial, coefficient) items, sorted
    h = hashlib.sha256()
    for p, n in POLY_CELLS:
        polys = witt_polys(p, n)
        for poly in polys.sum_polys + polys.prod_polys:
            h.update(f"{p},{n}|{sorted(poly.items())}\n".encode())
    assert h.hexdigest() == (
        "d8868d08173fbf3bb9de874edd720263a15a1ecbc260789b00e5de3868bbac4e")
