import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kax import kcalc, tbounds
from kax.errors import BudgetExceededError
from kax.kcalc import (
    GroupExpr,
    GroupFactor,
    RingSpec,
    _rows,
    _run_shape,
    _steps,
    axes_relative_k,
    dual_numbers_k,
    group_expr_from_dict,
    group_expr_to_dict,
    integral_k_finite_field,
    normalize_for_roundtrip,
    order,
    order_exponent,
    parse_ring_spec,
    relative_k,
    table,
)
from kax.numtheory import divisors, vp
from kax.oracles import _big_witt_lengths
from kax.tbounds import t_ev, t_od, window
from kax.words import CyclicWord, canonicalize, count_aperiodic, count_axes

F2 = RingSpec.finite_field(2)
F3 = RingSpec.finite_field(3)
F4 = RingSpec.finite_field(2, 2)
F9 = RingSpec.finite_field(3, 2)


def test_ring_spec_parsing():
    assert parse_ring_spec("Fq:9") == F9
    assert parse_ring_spec("perfect:k:3") == RingSpec("perfect_fp", 3, name="k")
    assert parse_ring_spec("perfectoid:R:5") == RingSpec("perfectoid", 5, name="R")
    assert parse_ring_spec("zpcycl:3") == RingSpec("zp_cyclotomic", 3)
    from kax.errors import KaxError

    with pytest.raises(KaxError):
        parse_ring_spec("Fq:12")
    with pytest.raises(KaxError):
        parse_ring_spec("nonsense")


def test_relative_k_examples():
    e = relative_k(F3, 2, 1)
    assert order(e) == 9
    assert [(f.length, f.multiplicity) for f in e.factors] == [(1, 2)]

    assert relative_k(F3, 2, 0).is_trivial
    assert relative_k(F9, 3, -4).is_trivial

    e = relative_k(F3, 2, 2)
    assert order(e) == 3
    assert [(f.m_prime, f.s, f.length) for f in e.factors] == [(2, 2, 1)]

    e = relative_k(F3, 1, 3)
    assert order(e) == 9
    assert [(f.m_prime, f.s, f.length) for f in e.factors] == [(1, 1, 2)]


def test_relative_k_rejects_bad_d():
    with pytest.raises(ValueError):
        relative_k(F3, 0, 1)


def test_even_degrees_trivial_for_one_variable():
    for ring in (F2, F3, RingSpec.finite_field(5)):
        for degree in range(0, 21, 2):
            assert relative_k(ring, 1, degree).is_trivial


def test_degree_one_order_is_q_to_the_d():
    for ring in (F2, F3, F4, RingSpec.finite_field(5), F9):
        for d in (1, 2, 3):
            assert order(relative_k(ring, d, 1)) == ring.q**d


def test_p2_odd_degree_structure():
    # F_2, d = 1, degree 3: one field factor for each odd m' <= 3
    e = relative_k(F2, 1, 3)
    assert order(e) == 4
    assert [(f.m_prime, f.s, f.length) for f in e.factors] == [(1, 1, 1), (3, 1, 1)]


def test_symbolic_rings():
    k = RingSpec("perfect_fp", 3, name="k")
    e = relative_k(k, 2, 1)
    assert order(e) == "symbolic"
    assert e.completeness == "integral-because-p-power-torsion"
    zp = RingSpec("zp_cyclotomic", 3)
    e = relative_k(zp, 2, 1)
    assert e.completeness == "p-complete"
    assert order(e) == "symbolic"
    assert e.factors[0].ring.label() == "Z_3^cycl"


def test_finiteness_under_bound_doubling():
    from kax.tbounds import m_prime_bound

    for p, ring in ((2, F2), (3, F3)):
        for d in (1, 2):
            for degree in range(0, 15):
                bound = m_prime_bound(p, degree)
                assert relative_k(ring, d, degree) == relative_k(
                    ring, d, degree, m_prime_limit=2 * bound
                )


def test_axes_examples():
    for degree in range(1, 12):
        assert axes_relative_k(F3, 1, degree).is_trivial

    e = axes_relative_k(F3, 2, 2)
    assert order(e) == 3
    assert [(f.m_prime, f.s) for f in e.factors] == [(2, 2)]

    assert axes_relative_k(F3, 3, 1).is_trivial


# p = 2 prints too small a group in even degrees: the p = 2 run rule is ROADMAP item 1
_AXES_P2 = pytest.mark.xfail(strict=True, reason="axes variant at p = 2, ROADMAP item 1")


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49] + [
    pytest.param(q, marks=_AXES_P2) for q in (2, 4, 8)])
def test_axes_degree_2_is_the_birelative_tensor_product(q):
    # K_2(k[x,y]/(xy), (x,y)) is the birelative group I (x)_{A^e} J for
    # I = (x), J = (y) (Guin-Walery and Loday, LNM 854, 1981), which is
    # k.(x (x) y) as x y^j = 0 = x^i y: order q in every characteristic
    assert order(axes_relative_k(RingSpec.from_q(q), 2, 2)) == q


def test_dual_numbers():
    e = dual_numbers_k(F3, 3)
    assert order(e) == 9
    e = dual_numbers_k(F2, 3)
    assert order(e) == 4
    for ring in (F2, F3):
        assert dual_numbers_k(ring, 2).is_trivial


def _witt_lengths(expr, ring):
    # length -> copies of W_length(ring), counted with multiplicity; None for
    # a factor over any other ring
    lengths = Counter()
    for gf in expr.factors:
        lengths[gf.length if gf.ring == ring else None] += gf.multiplicity
    return lengths


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27])
def test_dual_numbers_are_hesselholt_madsen_in_every_degree(q):
    # K_{2i-1}(k[x]/x^2, (x)) = W_2i(k) / V_2 W_i(k) and K_2i = 0 (Hesselholt
    # and Madsen, Invent. Math. 130, 1997): V_2 carries component j of W_i
    # onto 2j at odd p, and shortens component j by h(j, i) at p = 2
    ring = RingSpec.from_q(q)
    p = ring.p
    for n in range(201):
        i = (n + 1) // 2
        half = _big_witt_lengths(i, p) if p == 2 else {}
        want = Counter() if n % 2 == 0 else Counter(
            h - half.get(j, 0) for j, h in _big_witt_lengths(2 * i, p).items() if j % 2)
        assert _witt_lengths(relative_k(ring, 1, n), ring) == want, (q, n)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27] + [
    pytest.param(q, marks=_AXES_P2) for q in (2, 4)])
def test_axes_at_d_2_are_big_witt_vectors_in_every_degree(q):
    # K_2m(k[x,y]/(xy), (x,y)) = big W_m(k) and K_odd = 0 (Hesselholt, Nagoya
    # Math. J. 185, 2007), in the p-typical split of the big Witt vectors
    ring = RingSpec.from_q(q)
    for n in range(201):
        want = Counter() if n % 2 else Counter(_big_witt_lengths(n // 2, ring.p).values())
        assert _witt_lengths(axes_relative_k(ring, 2, n), ring) == want, (q, n)


def test_integral_examples():
    e = integral_k_finite_field(3, 2, 0)
    assert [f.kind for f in e.factors] == ["free"]
    assert order(e) == "infinite"

    e = integral_k_finite_field(3, 1, 1)
    kinds = [(f.kind, f.order, f.length) for f in e.factors]
    assert kinds == [("cyclic", 2, None), ("witt", None, 1)]
    assert order(e) == 6
    assert order_exponent(e) == (1, 2)

    assert integral_k_finite_field(4, 1, 2).is_trivial

    # K_1(F_2) = 0, so only the relative part survives
    e = integral_k_finite_field(2, 1, 1)
    assert [f.kind for f in e.factors] == ["witt"]


def test_quillen_conventions():
    # degree 5 = 2r+1 with r = 2: standard exponent 3, paper exponent 1
    std = integral_k_finite_field(3, 1, 5, "standard")
    paper = integral_k_finite_field(3, 1, 5, "paper")
    std_cyc = [f.order for f in std.factors if f.kind == "cyclic"]
    paper_cyc = [f.order for f in paper.factors if f.kind == "cyclic"]
    assert std_cyc == [3**3 - 1]
    assert paper_cyc == [3 - 1]
    # the "paper" convention's exponent is undefined below degree 5: no
    # cyclic summand is emitted there
    low = integral_k_finite_field(3, 1, 1, "paper")
    assert [f.kind for f in low.factors] == ["witt"]
    with pytest.raises(ValueError):
        integral_k_finite_field(3, 1, 1, "bogus")


def test_integral_rejects_negative_degree():
    with pytest.raises(ValueError):
        integral_k_finite_field(3, 1, -1)


def test_table():
    t = table(F3, 1, 3, "square")
    assert [order(e) for e in t] == [1, 3, 1, 9]
    t = table(F3, 1, 0, "integral")
    assert order(t[0]) == "infinite"
    t = table(F2, 1, 1, "square")
    assert [order(e) for e in t] == [1, 2]


def test_w0_never_emitted():
    for ring in (F2, F3, F4):
        for variant in ("square", "axes"):
            for e in table(ring, 2, 16, variant):
                assert all(f.length >= 1 for f in e.factors if f.kind == "witt")


TABLE_RINGS = ("Fq:2", "Fq:3", "Fq:4", "Fq:9", "Fq:25", "perfectoid:R:3", "zpcycl:5")
VARIANTS = ("square", "axes", "dual", "integral")


def _variants(ring):
    return VARIANTS[:3] if parse_ring_spec(ring).is_symbolic else VARIANTS


# every (ring, variant, d) up to degree 24, which reaches t = 4 at p = 2 and
# t = 3 at p = 3, and each ring once more up to degree 200
TABLE_GRID = [
    (ring, variant, d, 24)
    for ring in TABLE_RINGS
    for variant in _variants(ring)
    for d in range(1, 7)
] + [
    ("Fq:2", "square", 2, 200),
    ("Fq:3", "square", 3, 200),
    ("Fq:4", "axes", 4, 200),
    ("Fq:9", "integral", 5, 200),
    ("Fq:25", "dual", 6, 200),
    ("perfectoid:R:3", "axes", 6, 200),
    ("zpcycl:5", "square", 1, 200),
]


# ---------------------------------------------------------------------------
# JSON wire format against a reference serialiser


def _reference_ring_to_str(ring):
    if ring.kind == "finite_field":
        return f"Fq:{ring.q}"
    if ring.kind == "perfect_fp":
        return f"perfect:{ring.name}:{ring.p}"
    if ring.kind == "perfectoid":
        return f"perfectoid:{ring.name}:{ring.p}"
    return f"zpcycl:{ring.p}"


def _reference_to_dict(expr):
    """The wire format built field by field, a fresh entry per factor."""
    factors = []
    for gf in expr.factors:
        entry = {"kind": gf.kind}
        if gf.kind == "witt":
            entry["length"] = gf.length
            entry["ring"] = _reference_ring_to_str(gf.ring)
        elif gf.kind == "cyclic":
            entry["order"] = str(gf.order)
        else:
            entry["rank"] = gf.rank
        entry["multiplicity"] = str(gf.multiplicity)
        prov = {}
        if gf.m_prime is not None:
            prov["m_prime"] = gf.m_prime
            prov["s"] = gf.s
            if gf.nu is not None:
                prov["nu"] = gf.nu
        if prov:
            entry["provenance"] = prov
        factors.append(entry)
    complete = "integral" if expr.completeness.startswith("integral") else "p-complete"
    return {"degree": expr.degree, "p": expr.p, "complete": complete, "factors": factors}


def _assert_table_json_matches_reference(rows):
    # key order too, on the whole table as `kax table --format json` writes it
    want = json.dumps([_reference_to_dict(e) for e in rows])
    assert json.dumps([group_expr_to_dict(e) for e in rows]) == want


def _per_degree(ring, variant, d, degree):
    if variant == "square":
        return relative_k(ring, d, degree)
    if variant == "axes":
        return axes_relative_k(ring, d, degree)
    if variant == "dual":
        return dual_numbers_k(ring, degree)
    return integral_k_finite_field(ring.q, d, degree)


def _assert_table_matches_per_degree(ring_text, variant, d, max_degree):
    """Rows equal the per-degree functions, and both serialise as the
    reference does, also when serialised a second time from cached entries."""
    ring = parse_ring_spec(ring_text)
    rows = table(ring, d, max_degree, variant)
    assert len(rows) == max_degree + 1
    for degree, row in enumerate(rows):
        cell = (ring_text, variant, d, degree)
        per_degree = _per_degree(ring, variant, d, degree)
        assert row == per_degree, cell
        want = _reference_to_dict(row)
        for expr in (row, row, per_degree, per_degree):
            assert group_expr_to_dict(expr) == want, cell
    _assert_table_json_matches_reference(rows)


@pytest.mark.parametrize("ring, variant, d, max_degree", TABLE_GRID)
def test_table_rows_equal_per_degree_functions(ring, variant, d, max_degree):
    _assert_table_matches_per_degree(ring, variant, d, max_degree)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(TABLE_RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), st.sampled_from(_variants(ring)))
    ),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=200),
)
def test_table_rows_equal_per_degree_functions_property(ring_variant, d, max_degree):
    _assert_table_matches_per_degree(*ring_variant, d, max_degree)


# ---------------------------------------------------------------------------
# assembly against an independent per-(degree, m') loop


def _reference_witt_factors(ring, d, degree, counter):
    """One window per (degree, m') and a fresh factor per (m', s): no run
    is shared between degrees, and m' is bounded by the degree itself."""
    p = ring.p
    if degree <= 0:
        return ()
    odd = degree % 2
    window = t_od if odd else t_ev
    factors = []
    for m_prime in range(2 - odd, degree + 1, 2):
        if p != 2 and m_prime % p == 0:
            continue
        t = window(p, degree // 2, m_prime)
        if t == 0:
            continue
        if odd and p == 2:
            # the p = 2 odd-degree case: s | m', one W_1 per word, nu = 0
            cells = [(s, 1, 0) for s in divisors(m_prime)]
        else:
            cells = [(s, t - vp(p, s), None) for s in divisors(m_prime * p ** (t - 1))
                     if odd or s % 2 == 0]
        for s, length, nu in cells:
            mult = counter(s, d)
            if length > 0 and mult:
                factors.append(GroupFactor("witt", multiplicity=mult, length=length, ring=ring,
                                           m_prime=m_prime, s=s, nu=nu))
    return tuple(factors)


def _reference_expr(ring, variant, d, degree):
    counter = count_axes if variant == "axes" else count_aperiodic
    if variant == "dual":
        d = 1
    witt = _reference_witt_factors(ring, d, degree, counter)
    if variant != "integral":
        complete = ("integral-because-p-power-torsion"
                    if ring.kind in ("finite_field", "perfect_fp") else "p-complete")
        return GroupExpr(degree, ring.p, complete, witt)
    quillen = ()
    if degree == 0:
        quillen = (GroupFactor("free", rank=1),)
    elif degree % 2 and ring.q ** ((degree + 1) // 2) > 2:
        quillen = (GroupFactor("cyclic", order=ring.q ** ((degree + 1) // 2) - 1),)
    return GroupExpr(degree, ring.p, "integral", quillen + witt)


@pytest.mark.parametrize("ring, variant, d, max_degree", TABLE_GRID)
def test_table_rows_equal_reference_assembly(ring, variant, d, max_degree):
    spec = parse_ring_spec(ring)
    rows = table(spec, d, max_degree, variant)
    for degree, row in enumerate(rows):
        assert row == _reference_expr(spec, variant, d, degree), (ring, variant, d, degree)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_per_degree_functions_equal_reference_assembly_with_limits(q):
    ring = RingSpec.from_q(q)
    functions = {
        "square": lambda d, degree, limit: relative_k(ring, d, degree, limit),
        "axes": lambda d, degree, limit: axes_relative_k(ring, d, degree, limit),
        "integral": lambda d, degree, limit: integral_k_finite_field(
            q, d, degree, m_prime_limit=limit),
    }
    for d in (1, 2, 3):
        for degree in range(91):
            for variant, function in functions.items():
                full = _reference_expr(ring, variant, d, degree)
                for limit in {0, 1, degree // 3, degree - 1, degree, 2 * degree}:
                    # a limit keeps the factors with m' <= limit, the Quillen
                    # summands (no m') always
                    want = full._replace(factors=tuple(
                        f for f in full.factors if f.m_prime is None or f.m_prime <= limit))
                    assert function(d, degree, limit) == want, (q, variant, d, degree, limit)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_run_shape_matches_a_naive_scan(p):
    # every (m', t) run a table up to degree 200 can ask for, and more
    for m_prime in range(1, 201):
        t = 1
        while m_prime * p ** (t - 1) <= 200 * p:
            n = m_prime * p ** (t - 1)
            want = []
            for s in range(1, n + 1):
                if n % s or s % 2 != m_prime % 2:
                    continue
                length = t - vp(p, s)
                if length > 0:
                    want.append((s, length))
            assert _run_shape(p, m_prime, t) == tuple(want), (p, m_prime, t)
            t += 1


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 4093))
def test_steps_are_the_m_primes_whose_window_moved(p):
    # from n - 2 to n a table row replaces the runs of the m' of n's parity,
    # coprime to an odd p, whose window moved, m' ascending, each entering
    # window t + 1; a p = 2 odd run ignores t, so there only m' = n joins
    for n in range(201):
        steps = _steps(p, n)
        assert [t for t, _ in steps] == list(range(len(steps) - 1, -1, -1)), (p, n)
        listed = [m for _, m in steps if m]
        if p == 2 and n % 2:
            assert listed == [n], (p, n)
            continue
        want = [m for m in range(2 - n % 2, n + 1, 2)
                if (p == 2 or m % p) and window(p, n, m) != window(p, n - 2, m)]
        assert listed == want, (p, n)
        for t, m in steps:
            assert not m or window(p, n, m) == t + 1, (p, n, t, m)


def test_table_json_is_the_same_with_the_run_shapes_cold_and_warm():
    for ring, variant, d, max_degree in TABLE_GRID:
        if max_degree < 200:
            continue
        spec = parse_ring_spec(ring)
        _run_shape.cache_clear()
        _steps.cache_clear()
        cold = json.dumps([group_expr_to_dict(e) for e in table(spec, d, max_degree, variant)])
        assert _run_shape.cache_info().currsize > 0
        assert _steps.cache_info().currsize > 0
        warm = json.dumps([group_expr_to_dict(e) for e in table(spec, d, max_degree, variant)])
        assert warm == cold, (ring, variant, d)


@pytest.mark.parametrize("ring", ("Fq:2", "Fq:3", "Fq:25", "Fq:7"))
@pytest.mark.parametrize("limit", (None, 0, 7, 50))
def test_assembled_rows_over_any_range_equal_the_single_degree_rows(ring, limit):
    # the one loop over a table's range and over a single degree: each row of
    # a table, factors and entries, is its single-degree row, which a limit
    # cuts to m' <= limit; a shorter table is a prefix of the longer one
    spec = parse_ring_spec(ring)
    for variant, single in (("square", relative_k), ("axes", axes_relative_k)):
        rows = table(spec, 2, 200, variant)
        for n, row in enumerate(rows):
            kept = [i for i, gf in enumerate(row.factors) if limit is None or gf.m_prime <= limit]
            want = single(spec, 2, n, limit)
            cell = (ring, limit, variant, n)
            assert want.factors == tuple(row.factors[i] for i in kept), cell
            assert want._entries == tuple(row._entries[i] for i in kept), cell
        for max_degree in (0, 1, 37, 128):
            prefix = table(spec, 2, max_degree, variant)
            assert prefix == rows[:max_degree + 1], (ring, variant, max_degree)
            assert [e._entries for e in prefix] == [e._entries for e in rows[:max_degree + 1]]


def test_no_assembly_reads_a_window(monkeypatch):
    # every row, of a table or of a single degree, is stepped from the bounds
    # n // p^t alone; kcalc keeps no window of its own to call
    def no_window(*args):
        raise AssertionError("assembly called tbounds.window")

    monkeypatch.setattr(tbounds, "window", no_window)
    assert "window" not in vars(kcalc)
    for ring in ("Fq:2", "Fq:3", "Fq:25", "Fq:7", "perfectoid:R:3"):
        spec = parse_ring_spec(ring)
        for variant in ("square", "axes", "dual"):
            assert len(table(spec, 3, 200, variant)) == 201
        for degree in range(201):
            assert dual_numbers_k(spec, degree).degree == degree
            for limit in (None, 0, 7, 50):
                assert relative_k(spec, 3, degree, limit).degree == degree
                assert axes_relative_k(spec, 3, degree, limit).degree == degree
                if not spec.is_symbolic:
                    row = integral_k_finite_field(spec.q, 3, degree, m_prime_limit=limit)
                    assert row.degree == degree


def test_a_single_degree_builds_only_the_runs_it_emits(monkeypatch):
    # a run that a later step replaces by the degree asked for is not built:
    # each wire entry made is one the row carries
    made = []
    wire_entry = kcalc._wire_entry
    monkeypatch.setattr(kcalc, "_wire_entry", lambda *fields: made.append(1) or wire_entry(*fields))
    for q in (2, 3, 4, 5, 9):
        ring = RingSpec.from_q(q)
        for d in (1, 2, 3):
            for single in (relative_k, axes_relative_k):
                for degree in range(201):
                    made.clear()
                    row = single(ring, d, degree)
                    assert len(made) == len(row._entries), (q, d, single.__name__, degree)


@pytest.mark.parametrize("degree", (-3, -2, -1))
def test_negative_degrees_are_empty_rows(degree):
    # the stepping loop makes a negative degree its own empty row; the
    # integral variant rejects it, and a bad d or variant still raises first
    for ring in (F3, F4, RingSpec("perfectoid", 3, name="R")):
        complete = "p-complete" if ring.is_symbolic else "integral-because-p-power-torsion"
        want = GroupExpr(degree, ring.p, complete, ())
        rows = [dual_numbers_k(ring, degree)]
        for limit in (None, 0, -1, 5):
            rows += [relative_k(ring, 2, degree, limit), axes_relative_k(ring, 2, degree, limit)]
        for row in rows:
            assert row == want and row._entries == (), (ring, degree)
            assert group_expr_to_dict(row)["factors"] == []
    with pytest.raises(ValueError):
        integral_k_finite_field(3, 2, degree)
    with pytest.raises(ValueError):
        relative_k(F3, 0, degree)
    with pytest.raises(ValueError):
        _rows(F3, 2, "bogus", range(degree, degree + 1, 2))


@pytest.mark.parametrize("ring, variant, d, max_degree",
                         [cell for cell in TABLE_GRID if cell[3] == 200])
def test_table_rows_share_equal_factors_and_their_entries(ring, variant, d, max_degree):
    # each run is built once and shared by every row that holds it, also at
    # p = 2 and odd degree, where a run does not depend on its window
    first: dict = {}
    held = 0
    for row in table(parse_ring_spec(ring), d, max_degree, variant):
        for gf, entry in zip(row.factors, row._entries):
            held += 1
            kept_gf, kept_entry = first.setdefault(gf, (gf, entry))
            assert kept_gf is gf and kept_entry is entry, (ring, variant, row.degree, gf)
    assert held > 2 * len(first)


def _sort_key(gf):
    kind_rank = {"free": 0, "cyclic": 1, "witt": 2}[gf.kind]
    return (
        kind_rank,
        gf.m_prime if gf.m_prime is not None else -1,
        gf.s if gf.s is not None else -1,
        gf.nu if gf.nu is not None else -1,
        gf.length if gf.length is not None else -1,
        gf.order if gf.order is not None else -1,
    )


def test_canonical_ordering_and_determinism():
    a = relative_k(F3, 3, 9)
    b = relative_k(F3, 3, 9)
    assert a == b
    keys = [(f.m_prime, f.s) for f in a.factors]
    assert keys == sorted(keys)
    for ring, variant, d, max_degree in TABLE_GRID:
        for row in table(parse_ring_spec(ring), d, max_degree, variant):
            assert row.factors == tuple(sorted(row.factors, key=_sort_key))


def test_json_roundtrip():
    for expr in (
        relative_k(F3, 2, 5),
        relative_k(F2, 2, 4),
        integral_k_finite_field(9, 2, 3),
        relative_k(RingSpec("perfectoid", 3, name="R"), 2, 3),
        relative_k(F3, 1, 0),
    ):
        data = json.loads(json.dumps(group_expr_to_dict(expr)))
        back = group_expr_from_dict(data)
        assert back == normalize_for_roundtrip(expr)


def test_wire_parser_rejects_missing_fields_and_unknown_kinds():
    entry = group_expr_to_dict(relative_k(F3, 2, 5))["factors"][0]
    no_length = {k: v for k, v in entry.items() if k != "length"}
    # every field any kind reads is there, so only the kind itself is wrong
    bogus = {"kind": "bogus", "multiplicity": "1", "length": 1, "ring": "Fq:3",
             "order": "2", "rank": 1}
    for factor in (no_length, bogus):
        with pytest.raises(KeyError):
            group_expr_from_dict({"degree": 5, "p": 3, "complete": "integral",
                                  "factors": [factor]})


def test_multiplicity_serialized_as_string():
    data = group_expr_to_dict(relative_k(F3, 2, 1))
    assert data["factors"][0]["multiplicity"] == "2"
    assert data["complete"] == "integral"


def _limited_rows(q):
    """Single-degree rows over F_q, each variant, with and without a limit."""
    ring = RingSpec.from_q(q)
    for d in (1, 2, 3):
        for degree in range(0, 61, 3):
            for limit in (None, 0, degree // 3, degree):
                yield relative_k(ring, d, degree, limit)
                yield axes_relative_k(ring, d, degree, limit)
                yield integral_k_finite_field(q, d, degree, m_prime_limit=limit)


def test_assembled_entries_equal_the_factor_fallback():
    # the entries a row carries are those group_expr_to_dict builds for an
    # expression that carries none, factor by factor
    rows = [row for ring, variant, d, max_degree in TABLE_GRID
            for row in table(parse_ring_spec(ring), d, max_degree, variant)]
    rows += [row for q in (2, 3, 4, 9) for row in _limited_rows(q)]
    kinds = set()
    for row in rows:
        assert row._entries is not None, row
        carried = group_expr_to_dict(row)["factors"]
        assert group_expr_to_dict(row._replace())["factors"] == carried, row
        kinds.update(gf.kind for gf in row.factors)
    assert kinds == {"witt", "cyclic", "free"}


def test_each_call_returns_a_fresh_dict_and_list():
    hand_made = GroupExpr(3, 3, "integral", (GroupFactor("cyclic", order=26),))
    for expr in (relative_k(F3, 2, 5), table(F2, 2, 9)[9], hand_made):
        first, second = group_expr_to_dict(expr), group_expr_to_dict(expr)
        assert first == second
        assert first is not second and first["factors"] is not second["factors"]
        first["factors"].clear()
        first["degree"] = -1
        assert group_expr_to_dict(expr) == second


def test_assembled_factors_equal_their_init_twins():
    # assembly builds each witt factor without GroupFactor()
    for ring, variant, d, max_degree in TABLE_GRID:
        rows = table(parse_ring_spec(ring), d, max_degree, variant)
        # rows share their factors: check each object once
        emitted = {id(gf): gf for row in rows for gf in row.factors}
        for gf in emitted.values():
            twin = GroupFactor(**{name: getattr(gf, name) for name in gf._fields})
            cell = (ring, variant, d, gf.m_prime, gf.s)
            assert gf == twin and hash(gf) == hash(twin), cell
            assert repr(gf) == repr(twin), cell
            assert gf._asdict() == twin._asdict(), cell


def test_integer_past_the_str_limit_is_a_budget_error():
    # degree 200 has factors with words of length s >= 72, whose counts,
    # about 10^(60 s) / s, pass the default limit of 4300 digits
    with pytest.raises(BudgetExceededError, match="decimal digits"):
        relative_k(F2, 10**60, 200)
    # a hand-made factor meets the same limit when its expression is serialised
    hand_made = GroupExpr(1, 2, "integral", (GroupFactor("cyclic", order=10**5000),))
    with pytest.raises(BudgetExceededError, match="cyclic factor"):
        group_expr_to_dict(hand_made)


def test_value_types_keep_their_repr_hash_and_read_only_contract():
    # the repr strings are those of the frozen dataclasses these types were
    witt = relative_k(F3, 2, 5).factors[-1]
    witt_nu = relative_k(F2, 2, 3).factors[-1]
    cyclic = integral_k_finite_field(9, 1, 3).factors[0]
    free = integral_k_finite_field(9, 1, 0).factors[0]
    expr = relative_k(F3, 2, 2)
    word = canonicalize((1, 0, 1, 1))
    pinned = {
        F9: "RingSpec(kind='finite_field', p=3, f=2, name='')",
        witt: "GroupFactor(kind='witt', multiplicity=6, length=1, ring=RingSpec("
              "kind='finite_field', p=3, f=1, name=''), order=None, rank=None, "
              "m_prime=5, s=5, nu=None)",
        witt_nu: "GroupFactor(kind='witt', multiplicity=2, length=1, ring=RingSpec("
                 "kind='finite_field', p=2, f=1, name=''), order=None, rank=None, "
                 "m_prime=3, s=3, nu=0)",
        cyclic: "GroupFactor(kind='cyclic', multiplicity=1, length=None, ring=None, "
                "order=80, rank=None, m_prime=None, s=None, nu=None)",
        free: "GroupFactor(kind='free', multiplicity=1, length=None, ring=None, "
              "order=None, rank=1, m_prime=None, s=None, nu=None)",
        expr: "GroupExpr(degree=2, p=3, completeness='integral-because-p-power-torsion', "
              "factors=(GroupFactor(kind='witt', multiplicity=1, length=1, ring=RingSpec("
              "kind='finite_field', p=3, f=1, name=''), order=None, rank=None, "
              "m_prime=2, s=2, nu=None),))",
        word: "CyclicWord(canonical=(0, 1, 1, 1), period=4)",
    }
    for value, text in pinned.items():
        assert repr(value) == text
        assert hash(value) == hash(tuple(value))
    hand_made = GroupExpr(2, 3, "p-complete", (witt,))
    for gf in (witt, witt_nu, cyclic, free):
        with pytest.raises(AttributeError):
            gf.multiplicity = 2
    for e in (expr, hand_made):
        with pytest.raises(AttributeError):
            e.degree = 3
    for value in (witt, witt_nu, cyclic, free, expr, hand_made):
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "extra")
    with pytest.raises(AttributeError):
        del expr._entries
    assert expr._entries is not None and hand_made._entries is None
    with pytest.raises(AttributeError):
        F9.p = 5
    # cyclic words sort as (canonical, period)
    words = [CyclicWord((0, 1), 2), CyclicWord((0, 0, 1), 3), CyclicWord((0, 1), 1)]
    assert sorted(words) == [words[1], words[2], words[0]]
    with pytest.raises(ValueError, match="not prime"):
        RingSpec("finite_field", 4)
    with pytest.raises(ValueError, match="not prime"):
        F9._replace(p=4)


# ---------------------------------------------------------------------------
# orders as exact exponents

ORDER_FIELDS = [RingSpec.from_q(q) for q in (2, 3, 4, 5, 9)]
VARIANTS = ("square", "axes", "dual", "integral")


def _product_of_copy_orders(expr):
    # the order as the product over factors of |one copy| ** multiplicity
    total = 1
    for gf in expr.factors:
        if gf.kind == "cyclic":
            total *= gf.order**gf.multiplicity
        else:
            total *= (gf.ring.p ** (gf.ring.f * gf.length)) ** gf.multiplicity
    return total


def test_order_exponent_matches_the_product_of_factor_orders():
    checked = 0
    for ring in ORDER_FIELDS:
        for variant in VARIANTS:
            for d in (1, 2, 3):
                for e in table(ring, d, 40, variant):
                    o = order_exponent(e)
                    if e.degree == 0 and variant == "integral":
                        assert o == order(e) == "infinite"
                        continue
                    n, c = o
                    assert c == 1 or variant == "integral"
                    if n <= 2 * 10**5:
                        assert order(e) == e.p**n * c == _product_of_copy_orders(e), (ring, variant, d)
                        checked += 1
    assert checked > 1000


def test_order_exponent_infinite_and_symbolic():
    R = RingSpec("perfectoid", 3, name="R")
    assert order_exponent(relative_k(R, 2, 5)) == order(relative_k(R, 2, 5)) == "symbolic"
    assert order_exponent(integral_k_finite_field(3, 2, 0)) == "infinite"
    assert order_exponent(GroupExpr(0, 3, "integral", (GroupFactor("free", rank=0),))) == "symbolic"
    assert order_exponent(GroupExpr(1, 3, "p-complete")) == (0, 1)


# every degree at a prime q, every third one at q = p^f with f > 1
ORDER_LAW_DEGREES = {**{q: range(201) for q in (2, 3, 5, 7)},
                     **{q: range(0, 201, 3) for q in (4, 8, 9, 25, 27)}}


def _order_law(count, d):
    # N(d, n) for n <= 200 from divisors and the word count L alone: N(d, n) =
    # N(d, n - 2) + the sum of L(s, d) over s | n with s = n (mod 2), 0 for n <= 0
    law = [0] * 201
    for n in range(1, 201):
        below = law[n - 2] if n >= 2 else 0
        law[n] = below + sum(count(s, d) for s in divisors(n) if s % 2 == n % 2)
    return law


def _order_law_cells(variant, at_p2_even):
    # (cell, order_exponent of its row, (f N(d, n), 1)) of each grid cell in
    # the p = 2, d >= 2, even n >= 2 set if at_p2_even, else outside it
    count = count_axes if variant == "axes" else count_aperiodic
    for q, degrees in ORDER_LAW_DEGREES.items():
        ring = RingSpec.from_q(q)
        for d in (1, 2, 3, 4, 6):
            law, rows = _order_law(count, d), table(ring, d, 200, variant)
            for n in degrees:
                if (ring.p == 2 and d >= 2 and n >= 2 and n % 2 == 0) == at_p2_even:
                    yield (q, d, n), order_exponent(rows[n]), (ring.f * law[n], 1)


@pytest.mark.parametrize("variant", ("square", "axes"))
def test_orders_follow_the_word_count_law(variant):
    """|K_n| = q^N(d, n), N summed from divisors and the word counts alone, with
    no window, run or kcalc helper: a law checked here on this grid, not a
    theorem proved here.  The p = 2, d >= 2, even n >= 2 cells break it
    (ROADMAP item 1) and have their own strict xfail below."""
    for cell, got, want in _order_law_cells(variant, at_p2_even=False):
        assert got == want, (variant, cell)


@pytest.mark.xfail(strict=True, reason="p = 2, d >= 2, even degree >= 2: ROADMAP item 1")
@pytest.mark.parametrize("variant", ("square", "axes"))
def test_orders_follow_the_word_count_law_at_p_2_in_even_degrees(variant):
    for cell, got, want in _order_law_cells(variant, at_p2_even=True):
        assert got == want, (variant, cell)


@pytest.mark.parametrize("ring", [F2, F3, RingSpec.from_q(4), RingSpec.from_q(9)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_axes_multiplicities_at_most_square_ones(ring, d):
    for axes, square in zip(table(ring, d, 60, "axes"), table(ring, d, 60, "square")):
        square_mult = {(gf.m_prime, gf.s, gf.nu, gf.length): gf.multiplicity
                       for gf in square.factors}
        for gf in axes.factors:
            assert 0 < gf.multiplicity <= square_mult[gf.m_prime, gf.s, gf.nu, gf.length]
        ax, sq = order_exponent(axes)[0], order_exponent(square)[0]
        assert ax <= sq


@pytest.mark.parametrize("p, f", [(2, 2), (2, 3), (3, 2), (5, 2)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_exponent_over_an_extension_field_is_f_times_that_over_the_prime_field(p, f, variant):
    def index(e):
        return [(gf.m_prime, gf.s, gf.length, gf.multiplicity)
                for gf in e.factors if gf.kind == "witt"]

    for d in (1, 2, 3):
        base = table(RingSpec.finite_field(p), d, 50, variant)
        ext = table(RingSpec.finite_field(p, f), d, 50, variant)
        for e_p, e_q in zip(base, ext):
            assert index(e_q) == index(e_p)
            if e_p.degree or variant != "integral":
                assert order_exponent(e_q)[0] == f * order_exponent(e_p)[0]
