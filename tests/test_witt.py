import random
from itertools import product

import pytest

from kax.errors import BudgetExceededError
from kax.fields import _poly_mod, _poly_mul, galois_field
from kax.numtheory import big_witt_order, order_Wn
from kax.witt import (
    eval_poly_int,
    ghost,
    iso_with_zpn,
    restrict,
    verschiebung,
    witt_polys,
    witt_ring,
)


def test_ghost_examples():
    assert ghost(2, (1, 0)) == (1, 1)
    assert ghost(2, (1, 1)) == (1, 3)
    assert ghost(3, (2, 1)) == (2, 11)


def test_witt_polys_degree_zero():
    polys = witt_polys(5, 1)
    # S_0 = X_0 + Y_0, P_0 = X_0 * Y_0
    assert polys.sum_polys[0] == {(1, 0): 1, (0, 1): 1}
    assert polys.prod_polys[0] == {(1, 1): 1}


def test_witt_polys_p3_sum():
    # S_1 = X_1 + Y_1 - X_0^2 Y_0 - X_0 Y_0^2
    s1 = witt_polys(3, 2).sum_polys[1]
    assert s1 == {
        (0, 1, 0, 0): 1,
        (0, 0, 0, 1): 1,
        (2, 0, 1, 0): -1,
        (1, 0, 2, 0): -1,
    }


def test_ghost_compatibility_exact():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            polys = witt_polys(p, n)
            for _ in range(20):
                x = tuple(rng.randrange(-6, 7) for _ in range(n))
                y = tuple(rng.randrange(-6, 7) for _ in range(n))
                s = tuple(eval_poly_int(sp, x + y) for sp in polys.sum_polys)
                m = tuple(eval_poly_int(pp, x + y) for pp in polys.prod_polys)
                gx, gy = ghost(p, x), ghost(p, y)
                assert ghost(p, s) == tuple(a + b for a, b in zip(gx, gy))
                assert ghost(p, m) == tuple(a * b for a, b in zip(gx, gy))


def test_add_mul_examples():
    r22 = witt_ring(2, 2)
    assert r22.add((1, 0), (1, 0)) == (0, 1)
    r32 = witt_ring(3, 2)
    assert r32.mul((1, 0), (1, 0)) == (1, 0)
    assert r32.add((2, 1), r32.zero) == (2, 1)


def test_mismatched_vectors_rejected():
    r = witt_ring(3, 2)
    with pytest.raises(ValueError):
        r.add((1,), (1, 0))
    with pytest.raises(ValueError):
        r.add((1, 5), (1, 0))


def test_verschiebung():
    assert verschiebung((1,)) == (0, 1)
    assert verschiebung((0, 0)) == (0, 0, 0)
    # V is additive and 3*V(1) = 0 in W_2(F_3)
    r2 = witt_ring(3, 2)
    v1 = verschiebung((1,))
    total = r2.add(r2.add(v1, v1), v1)
    assert total == r2.zero


def test_verschiebung_additive_random():
    rng = random.Random(3)
    r1 = witt_ring(5, 2)
    r2 = witt_ring(5, 3)
    for _ in range(50):
        a = tuple(rng.randrange(5) for _ in range(2))
        b = tuple(rng.randrange(5) for _ in range(2))
        assert verschiebung(r1.add(a, b)) == r2.add(verschiebung(a), verschiebung(b))


def test_restrict():
    assert restrict((1, 0)) == (1,)
    assert restrict((4, 2, 3)) == (4, 2)
    with pytest.raises(ValueError):
        restrict((1,))


def test_restrict_is_ring_hom():
    rng = random.Random(5)
    r3 = witt_ring(3, 3)
    r2 = witt_ring(3, 2)
    for _ in range(60):
        a = tuple(rng.randrange(3) for _ in range(3))
        b = tuple(rng.randrange(3) for _ in range(3))
        assert restrict(r3.add(a, b)) == r2.add(restrict(a), restrict(b))
        assert restrict(r3.mul(a, b)) == r2.mul(restrict(a), restrict(b))
        # restrict commutes with V
        ra = restrict(a)
        assert restrict(verschiebung(ra)) == verschiebung(restrict(ra))


def test_order_Wn():
    assert order_Wn(3, 1, 2) == 9
    assert order_Wn(2, 3, 1) == 8
    assert order_Wn(7, 2, 0) == 1


def test_big_witt_order():
    assert big_witt_order(2, 3, 1) == 9
    assert big_witt_order(4, 2, 1) == 16
    assert big_witt_order(0, 5, 2) == 1
    for m in range(0, 15):
        for p, f in ((2, 1), (3, 1), (3, 2), (5, 1)):
            assert big_witt_order(m, p, f) == (p**f) ** m


def test_iso_with_zpn_examples():
    table = iso_with_zpn(2, 2)
    assert table == {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    assert iso_with_zpn(3, 1) == {0: (0,), 1: (1,), 2: (2,)}
    assert iso_with_zpn(3, 2)[3] == (0, 1)  # 3 = V(1) in W_2(F_3)


def test_iso_budget():
    with pytest.raises(BudgetExceededError):
        iso_with_zpn(3, 6)


def _neg_by_search(ring, a):
    # reference p = 2 negation by search: try every field element for b_i
    # until the first i + 1 coordinates of a + b vanish
    b = list(ring.zero)
    for i in range(ring.n):
        for cand in ring.field.elements():
            b[i] = cand
            if ring.add(a, tuple(b))[: i + 1] == ring.zero[: i + 1]:
                break
        else:
            raise AssertionError(f"no additive inverse of {a}")
    return tuple(b)


def test_neg_p2_matches_search():
    for n in (1, 2, 3):
        for f in (1, 2):
            ring = witt_ring(2, n, f)
            for a in product(range(ring.field.q), repeat=n):
                neg = ring.neg(a)
                assert neg == _neg_by_search(ring, a)
                assert ring.add(a, neg) == ring.zero


def test_scalar_multiplication_by_p_is_V_of_frobenius_fixed():
    # over the prime field, p*1 = V(1)
    for p in (2, 3, 5):
        ring = witt_ring(p, 2)
        assert ring.scalar(p) == (0, 1)


def test_field_f2_arithmetic():
    F4 = galois_field(2, 2)
    # x^2 = x + 1 for the least irreducible x^2 + x + 1
    x = 2
    assert F4.mul(x, x) == F4.add(x, 1)
    for a in F4.elements():
        if a:
            assert F4.mul(a, F4.inv(a)) == 1


def _digit_add(F, a, b):
    # the per-digit sum, independent of the field's tables
    p, out, scale = F.p, 0, 1
    for _ in range(F.f):
        out += ((a + b) % p) * scale
        a //= p
        b //= p
        scale *= p
    return out


def _digit_neg(F, a):
    p, out, scale = F.p, 0, 1
    for _ in range(F.f):
        out += (-a % p) * scale
        a //= p
        scale *= p
    return out


@pytest.mark.parametrize("p, f", [(p, f) for p in (2, 3, 5) for f in (1, 2, 3)] + [(2, 9)])
def test_field_add_neg_match_digit_loops(p, f):
    F = galois_field(p, f)
    for a in F.elements():
        assert F.neg(a) == _digit_neg(F, a)
        for b in F.elements():
            assert F.add(a, b) == _digit_add(F, a, b)


def _poly_product(F, a, b):
    # the product by polynomial multiplication and reduction, independent
    # of the field's log tables
    prod = _poly_mul(F.to_coords(a), F.to_coords(b), F.p)
    return F.from_coords(_poly_mod(prod, F.modulus, F.p))


@pytest.mark.parametrize("p, f", [(p, f) for p in (2, 3, 5, 7, 11) for f in range(1, 8)
                                  if p**f <= 128])
def test_field_mul_matches_polynomial_products(p, f):
    F = galois_field(p, f)
    for a in F.elements():
        for b in F.elements():
            assert F.mul(a, b) == _poly_product(F, a, b), (a, b)


def test_field_mul_matches_polynomial_products_at_q_512():
    F = galois_field(2, 9)
    rng = random.Random(512)
    pairs = [(rng.randrange(512), rng.randrange(512)) for _ in range(20000)]
    pairs += [(0, b) for b in range(512)] + [(a, 1) for a in range(512)]
    for a, b in pairs:
        assert F.mul(a, b) == _poly_product(F, a, b), (a, b)
