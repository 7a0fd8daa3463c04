import random
from itertools import product

import pytest
from test_witt_golden import CEILING, GRID

from kax import witt
from kax.errors import BudgetExceededError, InternalError
from kax.fields import _poly_mod, _poly_mul, galois_field
from kax.oracles import _poly_witt_ops
from kax.witt import (
    MAX_WITT_BITS,
    WittRing,
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


def eval_poly_int(poly, vals):
    """Exact integer value of a witt_polys polynomial, a dict from exponent
    vectors to coefficients, at vals."""
    total = 0
    for m, c in poly.items():
        for v, e in zip(vals, m):
            c *= v**e
        total += c
    return total


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


@pytest.mark.parametrize("op", ["add", "mul", "neg", "lift"])
def test_coordinates_outside_the_field_rejected(op):
    # the lift is a table lookup, so without the range check -1 would
    # silently read the last element and q would raise IndexError
    r = witt_ring(3, 2)
    for bad in (-1, r.field.q):
        vec = (0, bad)
        with pytest.raises(ValueError, match="out of field range"):
            getattr(r, op)(*((r.one, vec) if op in ("add", "mul") else (vec,)))


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


def test_p_fold_sum_of_one_is_V_of_one():
    # over the prime field, p*1 = 1 + ... + 1 = V(1)
    for p in (2, 3, 5):
        ring = witt_ring(p, 2)
        total = ring.zero
        for _ in range(p):
            total = ring.add(total, ring.one)
        assert total == verschiebung((1,))


def _new_cells(cells, seen):
    # a cell already in seen runs there: listing it twice would rename both ids
    return [cell for cell in cells if cell not in seen]


PAST_GATE_03 = [(2, 4, 1), (2, 4, 2), (2, 5, 1), (2, 5, 2), (3, 4, 1), (3, 4, 2)]


@pytest.mark.parametrize("p, n, f", PAST_GATE_03 + _new_cells(
    [(7, 2, 1), (7, 2, 2), (7, 3, 2), (11, 2, 2), (13, 2, 2)], PAST_GATE_03))
def test_ring_matches_the_witt_polynomials_past_gate_03(p, n, f):
    # the cells past gate 03's n <= 3 grid whose polynomials still solve
    # in a fraction of a second, and odd p past 5, at f = 1 and f > 1
    ring = witt_ring(p, n, f)
    rng = random.Random(p * 100 + n * 10 + f)
    for _ in range(150):
        a = tuple(rng.randrange(ring.field.q) for _ in range(n))
        b = tuple(rng.randrange(ring.field.q) for _ in range(n))
        assert (ring.add(a, b), ring.mul(a, b)) == _poly_witt_ops(ring.field, n, a, b)
        assert ring.add(a, ring.neg(a)) == ring.zero


@pytest.mark.parametrize("p, n, f", [(2, 3, 1), (2, 2, 2), (3, 3, 1), (3, 2, 2), (5, 1, 2)])
def test_ring_matches_the_witt_polynomials_on_every_pair(p, n, f):
    # every digit at every level, so every slot value the lift and the
    # readback meet in these rings, not only the seeded triples
    ring = witt_ring(p, n, f)
    vecs = list(product(ring.field.elements(), repeat=n))
    for a in vecs:
        assert ring.add(a, ring.neg(a)) == ring.zero, a
        for b in vecs:
            assert (ring.add(a, b), ring.mul(a, b)) == _poly_witt_ops(ring.field, n, a, b), (a, b)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_w6_builds_and_computes_without_the_polynomials(monkeypatch, f):
    def no_solve(*args):
        raise AssertionError("WittRing solved the Witt polynomials")

    monkeypatch.setattr(witt, "witt_polys", no_solve)
    ring = WittRing(2, 6, f)
    lower = WittRing(2, 5, f)
    rng = random.Random(f)
    for _ in range(100):
        a = tuple(rng.randrange(ring.field.q) for _ in range(6))
        b = tuple(rng.randrange(ring.field.q) for _ in range(6))
        # restriction is a ring map onto W_5, checked above against the
        # polynomials
        assert restrict(ring.add(a, b)) == lower.add(restrict(a), restrict(b))
        assert restrict(ring.mul(a, b)) == lower.mul(restrict(a), restrict(b))
        assert ring.add(a, ring.neg(a)) == ring.zero
    # k -> k * 1 is Z/64 -> W_6(F_2^f): 64 distinct multiples, then 0
    multiples = [ring.zero]
    for _ in range(64):
        multiples.append(ring.add(multiples[-1], ring.one))
    assert len(set(multiples[:64])) == 64 and multiples[64] == ring.zero


# readback reads k levels per step, k <= n the most with q^k <= 64 (k = 1 if
# none): cells whose n is not a multiple of k (k = 6, 3, 2, 3, 2), whose n is
# below f (k = 2, 1), and one with p > 64 at f = 1, where k = 1
READ_EDGES = [(2, 7, 1), (3, 4, 1), (5, 3, 1), (2, 4, 2), (2, 5, 3), (2, 2, 3), (2, 3, 4),
              (67, 2, 1)]


@pytest.mark.parametrize("p, n, f", GRID + CEILING
                         + _new_cells(READ_EDGES + [(3, 128, 1), (5, 85, 1), (7, 3, 2),
                                                    (7, 85, 2)], GRID))
def test_readback_needs_no_slot_reduced_mod_pn(p, n, f):
    # every slot a product, sum or negation can leave lies in [0, f^2 p^(5n));
    # reading such an integer must give the digits of the same element with
    # each slot reduced mod p^n, as nothing reduces the slots before reading
    ring = witt_ring(p, n, f)
    pn, top = p**n, f * f * p ** (5 * n)
    rng = random.Random(f"readback {p},{n},{f}")
    pack = lambda slots: sum(s << (ring._B * k) for k, s in enumerate(slots))
    cases = [[top - 1] * f, [0] * f] + [[rng.randrange(top) for _ in range(f)]
                                        for _ in range(30 if n < 100 else 10)]
    for slots in cases:
        assert ring._read(pack(slots)) == ring._read(pack([s % pn for s in slots])), slots


# the cells check_witt runs the ring axioms on, which it checks on the lifted
# ops: these tests check lift and readback apart from them
CHECK_WITT_CELLS = [(p, n, f) for p in (2, 3, 5) for n in (1, 2, 3) for f in (1, 2)]


@pytest.mark.parametrize("p, n, f",
                         CHECK_WITT_CELLS + _new_cells(
                             READ_EDGES + [(3, 2, 3), (5, 1, 3), (7, 2, 2), (11, 1, 2)],
                             CHECK_WITT_CELLS))
def test_lift_reads_back_every_vector(p, n, f):
    ring = witt_ring(p, n, f)
    for a in product(range(ring.field.q), repeat=n):
        assert ring._read(ring.lift(a)) == a


@pytest.mark.parametrize("p, n, f", CHECK_WITT_CELLS)
def test_lifted_ops_equal_the_tuple_ops(p, n, f):
    ring = witt_ring(p, n, f)
    rng = random.Random(f"lifted {p},{n},{f}")
    for _ in range(40):
        a, b = (tuple(rng.randrange(ring.field.q) for _ in range(n)) for _ in range(2))
        x, y = ring.lift(a), ring.lift(b)
        assert ring.add_lifted(x, y) == ring.add(a, b)
        assert ring.mul_lifted(x, y) == ring.mul(a, b)
        assert ring.neg_lifted(x) == ring.neg(a)


def test_iso_with_zpn_reports_a_wrong_lifted_product(monkeypatch):
    # a product wrong on the lifts of 2 and 4 in W_2(F_3) fails the oracle at
    # that pair, with the same text as a wrong tuple mul would
    ring = witt_ring(3, 2, 1)
    table = iso_with_zpn(3, 2)
    target = (ring.lift(table[2]), ring.lift(table[4]))
    real = WittRing.mul_lifted

    def planted(self, x, y):
        out = real(self, x, y)
        return self.add(out, self.one) if self is ring and (x, y) == target else out

    monkeypatch.setattr(WittRing, "mul_lifted", planted)
    with pytest.raises(InternalError, match=r"^multiplicativity fails at \(2, 4\) for W_2\(F_3\)$"):
        iso_with_zpn(3, 2)


def test_ring_past_the_ceiling_is_a_budget_error():
    assert MAX_WITT_BITS == 256
    WittRing(5, 85)  # ceil(log2 5) = 3 bits a level
    with pytest.raises(BudgetExceededError,
                       match=r"W_86 at p = 5 is past the ceiling n \* ceil\(log2 p\) <= 256"):
        WittRing(5, 86)


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
