from itertools import product

import pytest

from kax import kcalc, oracles
from kax.errors import BudgetExceededError, InternalError
from kax.numtheory import factor_prime_power
from kax.oracles import (
    SquareZeroRing,
    all_passed,
    check_counts,
    check_dual_numbers,
    check_k1,
    check_witt,
    k1_units,
    run_suites,
)
from kax.witt import WittRing, witt_polys


def test_k1_units_examples():
    assert k1_units(3, 1, 2) == 9
    assert k1_units(2, 1, 1) == 2
    assert k1_units(2, 2, 1) == 4
    assert k1_units(5, 1, 1) == 5


def test_k1_units_budget():
    with pytest.raises(BudgetExceededError):
        k1_units(3, 2, 4, budget=10**3)


def _k1_units_by_scan(p, f, d):
    # reference: look for each unit's inverse by scanning all of 1 + m
    ring = SquareZeroRing(p, f, d)
    one = ring.one()
    one_plus_m = [(1, av) for av in product(range(p**f), repeat=d)]
    for elem in one_plus_m:
        if not any(ring.mul(elem, w) == one for w in one_plus_m):
            raise InternalError(f"element {elem} of 1 + m has no inverse")
    return len(one_plus_m)


K1_CELLS = [(q, d) for q in (2, 3, 4, 5) for d in (1, 2)]


def test_k1_units_matches_scan():
    for q, d in K1_CELLS:
        p, f = factor_prime_power(q)
        assert k1_units(p, f, d) == _k1_units_by_scan(p, f, d), (q, d)


def test_k1_units_rejects_broken_product(monkeypatch):
    # a product that keeps the left vector leaves no element of 1 + m
    # outside 1 invertible, so both oracles must refuse it
    def broken_mul(self, a, b):
        return (self.field.mul(a[0], b[0]), a[1])

    monkeypatch.setattr(SquareZeroRing, "mul", broken_mul)
    for q, d in K1_CELLS:
        p, f = factor_prime_power(q)
        with pytest.raises(InternalError):
            k1_units(p, f, d)
        with pytest.raises(InternalError):
            _k1_units_by_scan(p, f, d)


def test_check_counts_small_grid():
    report = check_counts(s_max=7, d_max=3)
    assert report
    assert all_passed(report)
    assert all(e.status == "pass" for e in report)


def test_check_witt():
    report = check_witt(p_set=(2, 3), n_max=2, f_set=(1, 2), triples=40)
    assert all_passed(report)
    checks = {e.check for e in report}
    assert checks == {"witt-ring-axioms", "witt-ghost", "witt-iso-zpn"}


def test_check_k1():
    report = check_k1(q_set=(2, 3, 4), d_set=(1, 2))
    assert all_passed(report)
    assert all(e.status == "pass" for e in report)


def test_check_k1_skips_over_budget():
    report = check_k1(q_set=(9,), d_set=(3,), budget=10**2)
    assert [e.status for e in report] == ["skipped"]
    assert all_passed(report)


def test_check_dual_numbers():
    report = check_dual_numbers(p_set=(2, 3, 5), i_max=4)
    assert all_passed(report)


def test_check_dual_numbers_sees_a_split_witt_factor(monkeypatch):
    # W_2(F_3) and F_3 x F_3 have the same order, so an order law passes a
    # run shape that splits each length-2 run into two length-1 factors;
    # the quotient W_2i / V_2 W_i does not (degree 9 has no length-2 factor)
    real = kcalc._run_shape

    def split(p, m_prime, t):
        return tuple(piece for s, length in real(p, m_prime, t)
                     for piece in ([(s, 1), (s, 1)] if length == 2 else [(s, length)]))

    monkeypatch.setattr(kcalc, "_run_shape", split)
    F3 = kcalc.RingSpec.finite_field(3)
    assert [kcalc.order(kcalc.relative_k(F3, 1, 2 * i - 1)) for i in range(1, 6)] == [
        3**i for i in range(1, 6)]
    report = check_dual_numbers(p_set=(3,), i_max=5)
    assert [e.params["i"] for e in report if e.status == "fail"] == [2, 3, 4]
    assert report[1].witness == "K lengths [1, 1], W_4/V_2 W_2 lengths [2]"


def test_run_suites_selection():
    report = run_suites(["dual"])
    assert {e.check for e in report} == {"dual-numbers-order"}
    with pytest.raises(KeyError):
        run_suites(["bogus"])


def test_report_entry_to_dict():
    report = check_dual_numbers(p_set=(3,), i_max=1)
    d = report[0].to_dict()
    assert d["check"] == "dual-numbers-order"
    assert d["status"] == "pass"
    assert "witness" not in d


def _small_suites():
    return (check_counts(s_max=4, d_max=2)
            + check_witt(p_set=(2,), n_max=2, f_set=(1,), triples=5)
            + check_k1(q_set=(2, 9), d_set=(1, 3), budget=10**3)
            + check_dual_numbers(p_set=(3,), i_max=2))


def test_every_entry_is_built_from_the_module_report_entry(monkeypatch):
    # a subclass put into kax.oracles in place of ReportEntry, as a timing
    # harness does, builds every entry of every suite: pass, skipped and fail
    import kax.oracles as oracles

    class Marked(oracles.ReportEntry):
        pass

    monkeypatch.setattr(oracles, "ReportEntry", Marked)
    report = _small_suites()
    assert {e.status for e in report} == {"pass", "skipped"}

    def broken_iso(p, n):
        raise InternalError("no isomorphism")

    real_relative_k = oracles.relative_k
    monkeypatch.setattr(oracles, "count_axes", lambda s, d: -1)
    monkeypatch.setattr(oracles, "_ring_axiom_failures", lambda *args: "axioms fail")
    monkeypatch.setattr(oracles, "_ghost_failure", lambda *args: "ghost fails")
    monkeypatch.setattr(oracles, "iso_with_zpn", broken_iso)
    monkeypatch.setattr(oracles, "relative_k", lambda ring, d, n: real_relative_k(ring, d, 0))
    failing = _small_suites()
    assert {e.check for e in failing if e.status == "fail"} == {
        "counts", "witt-ring-axioms", "witt-ghost", "witt-iso-zpn", "k1-units",
        "dual-numbers-order"}
    assert all(e.witness for e in failing if e.status == "fail")
    assert all(isinstance(e, Marked) for e in report + failing)


def _witt_entries(report):
    return {(e.check, tuple(e.params.values())): e for e in report}


def test_check_witt_fails_a_mul_wrong_on_one_seeded_pair(monkeypatch):
    # record the pairs the seeded triples multiply at W_2(F_9), then make mul
    # wrong on the first one only: that cell alone fails, against the reference;
    # the class is patched, so the cached rings see it
    real_mul = WittRing.mul
    seen = []

    def recording_mul(self, a, b):
        if (self.p, self.n, self.field.f) == (3, 2, 2):
            seen.append((a, b))
        return real_mul(self, a, b)

    monkeypatch.setattr(WittRing, "mul", recording_mul)
    assert all_passed(check_witt(p_set=(3,), n_max=2, triples=10))
    target = seen[0]

    def planted_mul(self, a, b):
        out = real_mul(self, a, b)
        if (self.p, self.n, self.field.f) == (3, 2, 2) and (a, b) == target:
            return self.add(out, self.one)
        return out

    monkeypatch.setattr(WittRing, "mul", planted_mul)
    entries = _witt_entries(check_witt(p_set=(3,), n_max=2, triples=10))
    failed = entries.pop(("witt-ring-axioms", (3, 2, 2)))
    assert failed.status == "fail"
    assert failed.witness == (
        f"a+b or a*b differs from the Witt polynomials at {target[0]}, {target[1]}")
    assert all(e.status == "pass" for e in entries.values())


def test_check_witt_fails_a_lifted_mul_wrong_on_one_seeded_pair(monkeypatch):
    # the axioms run on the lifted twins: make mul_lifted wrong on the first
    # pair it sees at W_2(F_9), which is (b, a) of the first seeded triple,
    # so the commutativity check of that cell alone fails
    real_mul, real_mul_lifted = WittRing.mul, WittRing.mul_lifted
    public, lifted = [], []

    def recording_mul(self, a, b):
        if (self.p, self.n, self.field.f) == (3, 2, 2):
            public.append((a, b))
        return real_mul(self, a, b)

    def recording_mul_lifted(self, x, y):
        if (self.p, self.n, self.field.f) == (3, 2, 2):
            lifted.append((x, y))
        return real_mul_lifted(self, x, y)

    monkeypatch.setattr(WittRing, "mul", recording_mul)
    monkeypatch.setattr(WittRing, "mul_lifted", recording_mul_lifted)
    assert all_passed(check_witt(p_set=(3,), n_max=2, triples=10))
    a, b = public[0]
    target = lifted[0]

    def planted_mul_lifted(self, x, y):
        out = real_mul_lifted(self, x, y)
        if (self.p, self.n, self.field.f) == (3, 2, 2) and (x, y) == target:
            return self.add(out, self.one)
        return out

    monkeypatch.setattr(WittRing, "mul", real_mul)
    monkeypatch.setattr(WittRing, "mul_lifted", planted_mul_lifted)
    entries = _witt_entries(check_witt(p_set=(3,), n_max=2, triples=10))
    failed = entries.pop(("witt-ring-axioms", (3, 2, 2)))
    assert failed.status == "fail"
    assert failed.witness == f"a*b != b*a at {a}, {b}"
    assert all(e.status == "pass" for e in entries.values())


@pytest.fixture
def fresh_oracle_caches():
    # the oracles memoise what they derive from witt_polys; clear it on both
    # sides, so a planted polynomial is seen and does not outlive its test
    def clear():
        for value in vars(oracles).values():
            if getattr(value, "__module__", None) == oracles.__name__ and hasattr(value, "cache_clear"):
                value.cache_clear()

    clear()
    yield
    clear()


def test_check_witt_fails_one_changed_structure_coefficient(monkeypatch, fresh_oracle_caches):
    # S_1 = X_1 + Y_1 - X_0 Y_0 at p = 2, the X_0 Y_0 coefficient moved by p:
    # the same polynomials mod 2, so only the ghost identity over Z sees it
    real = witt_polys(2, 2)
    s1 = dict(real.sum_polys[1])
    assert s1[(1, 0, 1, 0)] == -1
    s1[(1, 0, 1, 0)] = 1
    planted = real._replace(sum_polys=(real.sum_polys[0], s1))
    monkeypatch.setattr(oracles, "witt_polys",
                        lambda p, n: planted if (p, n) == (2, 2) else witt_polys(p, n))
    entries = _witt_entries(check_witt(p_set=(2,), n_max=2, f_set=(1, 2), triples=10))
    failed = entries.pop(("witt-ghost", (2, 2)))
    assert failed.status == "fail"
    assert failed.witness.startswith("ghost additivity fails at ")
    assert all(e.status == "pass" for e in entries.values())
