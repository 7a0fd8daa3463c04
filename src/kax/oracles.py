"""Brute-force verifiers, independent of the formulas they check.

Every check returns a list of ReportEntry.  `kax verify` fails on any
failed entry; ACCEPT gates 01/03/04/05 run the same suites and pass only
when every entry passed, none skipped.  The oracles never consult the
formula under test for their own answer.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate, product, repeat

from .errors import BudgetExceededError, InternalError
from .fields import GaloisField, galois_field
from .kcalc import RingSpec, order, relative_k
from .numtheory import factor_prime_power, require_prime
from .witt import ghost, iso_with_zpn, witt_polys, witt_ring
from .words import count_aperiodic, count_axes, count_by_enumeration


class ReportEntry:
    """One verdict of a check on its params: status "pass", "fail" or
    "skipped", and on a failure the witness."""

    def __init__(self, check: str, params: dict, status: str, witness: str | None = None):
        self.check = check
        self.params = params
        self.status = status
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def to_dict(self) -> dict:
        out = {"check": self.check, "params": self.params, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def all_passed(report: list[ReportEntry]) -> bool:
    return all(e.status != "fail" for e in report)


def _verdict(check: str, params: dict, witness: str | None) -> ReportEntry:
    """A failed entry with the witness, or a passed one when it is None."""
    # ReportEntry is looked up here at each call, so a subclass put into
    # this module in its place builds every entry
    return ReportEntry(check, params, "pass" if witness is None else "fail", witness)


# ---------------------------------------------------------------------------
# degree-1 oracle: units of the square-zero extension


class SquareZeroRing:
    """A_d(F_q) = F_q + m with m^2 = 0, elements (constant, d x-coefficients)."""

    def __init__(self, p: int, f: int, d: int):
        self.field = galois_field(p, f)
        self.d = d

    def mul(self, a, b):
        # (a0 + av)(b0 + bv) = a0 b0 + (a0 bv + b0 av), read off the field's
        # product rows of a0 and b0 and its sum table
        a0, av = a
        b0, bv = b
        F = self.field
        add, by_a0, by_b0 = F.add_table, F.mul_table[a0], F.mul_table[b0]
        return by_a0[b0], tuple([add[by_a0[y]][by_b0[x]] for x, y in zip(av, bv)])

    def one(self):
        return (1, (0,) * self.d)


def k1_units(p: int, f: int, d: int, budget: int = 10**6) -> int:
    """|1 + m| by exhaustive enumeration, with invertibility verified.

    Relative K_1 along a square-zero ideal is the unit group 1 + m; this
    counts it without using the group formula.  Every element of 1 + m is
    checked to have an inverse in 1 + m, witnessed rather than searched
    for: the walk elem, elem^2, ... stops at the first power equal to 1,
    which a unit of a finite monoid reaches within |1 + m| = q^d steps, and
    the power w before it must lie in 1 + m and satisfy elem * w = 1.
    """
    require_prime(p)
    q = p**f
    if q ** (d + 1) > budget:
        raise BudgetExceededError(f"|A_d| = {q}^{d + 1} exceeds budget {budget}")
    ring = SquareZeroRing(p, f, d)
    one = ring.one()
    count = 0
    for av in product(range(q), repeat=d):
        elem = (1, av)
        count += 1
        w, power = one, elem
        for _ in range(q**d - 1):
            if power == one:
                break
            w, power = power, ring.mul(power, elem)
        if w[0] != 1 or ring.mul(elem, w) != one:
            raise InternalError(f"element {elem} of 1 + m has no inverse")
    return count


# ---------------------------------------------------------------------------
# check suites


def check_counts(
    s_max: int = 12, d_max: int = 4, budget: int = 10**8
) -> list[ReportEntry]:
    """Mobius counts vs direct enumeration over the (s, d) grid."""
    report = []
    for d in range(1, d_max + 1):
        for s in range(1, s_max + 1):
            for name, formula in (("aperiodic", count_aperiodic), ("axes", count_axes)):
                params = {"s": s, "d": d, "family": name}
                try:
                    expected = count_by_enumeration(
                        s, d, axes=(name == "axes"), budget=budget
                    )
                except BudgetExceededError:
                    report.append(ReportEntry("counts", params, "skipped"))
                    continue
                got = formula(s, d)
                report.append(_verdict("counts", params, None if got == expected
                                       else f"formula {got} != enumeration {expected}"))
    return report


# the reference Witt arithmetic: the ghost-solved structure polynomials
# evaluated over F_q, against which WittRing.add and WittRing.mul are checked


@lru_cache(maxsize=None)
def _reference_polys(field: GaloisField, n: int):
    """S_0..S_{n-1}, P_0..P_{n-1} of witt_polys(p, n) over F_q, each a list of
    (coefficient, ((variable, exponent), ...)) monomials, and the power table
    pows[v][e] = v^e in F_q up to the largest exponent in them.

    Coefficients are taken mod p, the monomials they kill dropped, zero
    exponents left out and each other folded into 1..q-1 by x^q = x.
    """
    p, q = field.p, field.q
    polys = witt_polys(p, n)
    folded = [[(c % p, tuple((v, (e - 1) % (q - 1) + 1) for v, e in enumerate(m) if e))
               for m, c in poly.items() if c % p]
              for poly in polys.sum_polys + polys.prod_polys]
    max_exp = max((e for poly in folded for _, monom in poly for _, e in monom), default=1)
    pows = [list(accumulate(repeat(v, max_exp), field.mul, initial=1)) for v in field.elements()]
    return folded, pows


def _poly_witt_ops(field: GaloisField, n: int, a, b) -> tuple[tuple[int, ...], ...]:
    """(a + b, a * b) in W_n(F_q) by the structure polynomials."""
    folded, table = _reference_polys(field, n)
    mul, add = field.mul_table, field.add_table
    pows = [table[v] for v in a + b]
    out = []
    for poly in folded:
        acc = 0
        for c, monom in poly:
            t = c
            for v, e in monom:
                t = mul[t][pows[v][e]]
            acc = add[acc][t]
        out.append(acc)
    return tuple(out[:n]), tuple(out[n:])


def _ring_axiom_failures(p: int, n: int, f: int, triples: int, rng) -> str | None:
    """Ring axioms on random triples, and add and mul against the reference:
    the axioms alone cannot tell W_n from another ring of the same order.

    The public add and mul are checked against the reference.  The axioms
    run on the lifted twins add_lifted, mul_lifted and neg_lifted, with a,
    b, c and each intermediate result lifted once; the tests check lift
    and readback, and each twin against its tuple op, apart from this."""
    ring = witt_ring(p, n, f)
    field, q = ring.field, ring.field.q
    lift, add, mul, neg = ring.lift, ring.add_lifted, ring.mul_lifted, ring.neg_lifted
    zero = ring.zero
    lift_zero, lift_one = lift(zero), lift(ring.one)
    rand_vec = lambda: tuple(map(rng.randrange, repeat(q, n)))
    for _ in range(triples):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        ab_sum, ab_prod = ring.add(a, b), ring.mul(a, b)
        if (ab_sum, ab_prod) != _poly_witt_ops(field, n, a, b):
            return f"a+b or a*b differs from the Witt polynomials at {a}, {b}"
        x, y, z = lift(a), lift(b), lift(c)
        if ab_sum != add(y, x):
            return f"a+b != b+a at {a}, {b}"
        yz_sum = lift(add(y, z))
        if add(x, yz_sum) != add(lift(ab_sum), z):
            return f"add not associative at {a}, {b}, {c}"
        if ab_prod != mul(y, x):
            return f"a*b != b*a at {a}, {b}"
        xy_prod = lift(ab_prod)
        if mul(x, lift(mul(y, z))) != mul(xy_prod, z):
            return f"mul not associative at {a}, {b}, {c}"
        if mul(x, yz_sum) != add(xy_prod, lift(mul(x, z))):
            return f"distributivity fails at {a}, {b}, {c}"
        if add(x, lift_zero) != a or mul(x, lift_one) != a:
            return f"identity fails at {a}"
        if add(x, lift(neg(x))) != zero:
            return f"additive inverse fails at {a}"
    return None


def _ghost_failure(p: int, n: int, samples: int, rng) -> str | None:
    polys = witt_polys(p, n)
    # each monomial as its coefficient and its nonzero (variable, exponent)s
    sparse = [[(c, [(v, e) for v, e in enumerate(m) if e]) for m, c in poly.items()]
              for poly in polys.sum_polys + polys.prod_polys]
    for _ in range(samples):
        x = tuple(rng.randrange(-9, 10) for _ in range(n))
        y = tuple(rng.randrange(-9, 10) for _ in range(n))
        xy, values = x + y, []
        for poly in sparse:
            total = 0
            for c, monom in poly:
                for v, e in monom:
                    c *= xy[v] ** e
                total += c
            values.append(total)
        s, m = tuple(values[:n]), tuple(values[n:])
        gx, gy = ghost(p, x), ghost(p, y)
        if ghost(p, s) != tuple(u + v for u, v in zip(gx, gy)):
            return f"ghost additivity fails at {x}, {y}"
        if ghost(p, m) != tuple(u * v for u, v in zip(gx, gy)):
            return f"ghost multiplicativity fails at {x}, {y}"
    return None


def check_witt(
    p_set=(2, 3, 5),
    n_max: int = 3,
    f_set=(1, 2),
    triples: int = 100,
    seed: int = 0,
) -> list[ReportEntry]:
    """Ring axioms with add and mul against the structure polynomials,
    ghost identities, and the Z/p^n isomorphism oracle."""
    rng = random.Random(seed)
    report = []
    for p in p_set:
        for n in range(1, n_max + 1):
            for f in f_set:
                params = {"p": p, "n": n, "f": f}
                witness = _ring_axiom_failures(p, n, f, triples, rng)
                report.append(_verdict("witt-ring-axioms", params, witness))
            params = {"p": p, "n": n}
            report.append(_verdict("witt-ghost", params, _ghost_failure(p, n, 30, rng)))
            try:
                iso_with_zpn(p, n)
                witness = None
            except InternalError as exc:
                witness = str(exc)
            report.append(_verdict("witt-iso-zpn", params, witness))
    return report


def check_k1(
    q_set=(2, 3, 4, 5, 9), d_set=(1, 2, 3), budget: int = 10**6
) -> list[ReportEntry]:
    """order(relative_k(F_q, d, 1)) against the enumerated unit group."""
    report = []
    for q in q_set:
        p, f = factor_prime_power(q)
        for d in d_set:
            params = {"q": q, "d": d}
            try:
                expected = k1_units(p, f, d, budget=budget)
            except BudgetExceededError:
                report.append(ReportEntry("k1-units", params, "skipped"))
                continue
            got = order(relative_k(RingSpec.finite_field(p, f), d, 1))
            report.append(_verdict("k1-units", params, None if got == expected
                                   else f"formula order {got} != unit count {expected}"))
    return report


def _big_witt_lengths(m: int, p: int) -> dict[int, int]:
    """The p-typical split of big W_m(k): j <= m prime to p -> h(j, m) = #{e : j p^e <= m}."""
    lengths = {}
    for j in range(1, m + 1):
        if j % p:
            h, jp = 0, j
            while jp <= m:
                h, jp = h + 1, jp * p
            lengths[j] = h
    return lengths


def check_dual_numbers(p_set=(2, 3, 5), i_max: int = 5) -> list[ReportEntry]:
    """Hesselholt-Madsen at odd degrees 2i - 1 of the dual numbers: the Witt
    factor lengths, with multiplicity, are those of W_2i(F_p) / V_2 W_i(F_p),
    where V_2 takes the even j at odd p and h(j, i) of each j at p = 2."""
    report = []
    for p in p_set:
        ring = RingSpec.finite_field(p, 1)
        for i in range(1, i_max + 1):
            params = {"p": p, "i": i, "degree": 2 * i - 1}
            half = _big_witt_lengths(i, p) if p == 2 else {}
            expected = sorted(h - half.get(j, 0)
                              for j, h in _big_witt_lengths(2 * i, p).items() if j % 2)
            got = sorted(gf.length for gf in relative_k(ring, 1, 2 * i - 1).factors
                         for _ in range(gf.multiplicity))
            report.append(_verdict("dual-numbers-order", params, None if got == expected else
                                   f"K lengths {got}, W_{2 * i}/V_2 W_{i} lengths {expected}"))
    return report


SUITES = {
    "counts": check_counts,
    "witt": check_witt,
    "k1": check_k1,
    "dual": check_dual_numbers,
}


def run_suites(names: list[str] | None = None) -> list[ReportEntry]:
    # "all" stands for every suite wherever it appears; an unknown name
    # raises KeyError before any suite runs
    suites = [SUITES[name] for arg in names or ["all"]
              for name in (SUITES if arg == "all" else [arg])]
    return [entry for suite in suites for entry in suite()]
