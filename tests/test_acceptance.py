"""Acceptance gate: every guarantee the package makes, checked exactly.

Each test prints one line, ``ACCEPT 01 word-count oracle: PASS``/``FAIL``,
so a plain ``pytest -v`` run doubles as the release checklist.  Everything
here is exact (tolerance zero); the only random element is seeded.
"""

import json
import subprocess
import sys
from math import gcd

import pytest

from kax.kcalc import (
    RingSpec,
    group_expr_from_dict,
    group_expr_to_dict,
    integral_k_finite_field,
    normalize_for_roundtrip,
    relative_k,
    table,
)
from kax.numtheory import divisors
from kax.oracles import (
    ReportEntry,
    check_counts,
    check_dual_numbers,
    check_k1,
    check_witt,
)
from kax.tbounds import m_prime_bound, t_od
from kax.words import count_aperiodic


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail and not ok else ""
    # write to the real stdout so the line survives pytest's capture and
    # shows up in a plain `pytest -v` log
    print(f"ACCEPT {number:02d} {name}: {status}{suffix}", file=sys.__stdout__)
    sys.__stdout__.flush()
    assert ok, f"{name}: {detail}"


def _suite_verdict(report: list[ReportEntry]) -> tuple[bool, str]:
    # a gate backed by a `kax verify` suite passes only if every entry
    # passed: a skipped entry is a check the gate did not make
    bad = [e.to_dict() for e in report if e.status != "pass"]
    return bool(report) and not bad, f"{len(bad)} of {len(report)} not passed: {bad[:3]}"


def test_suite_verdict_rejects_skipped_and_failed():
    ok = ReportEntry("counts", {"s": 1, "d": 1, "family": "axes"}, "pass")
    skipped = ReportEntry("k1-units", {"q": 9, "d": 3}, "skipped")
    failed = ReportEntry("witt-ghost", {"p": 2, "n": 1}, "fail", "witness")
    assert _suite_verdict([ok, ok])[0]
    assert not _suite_verdict([ok, skipped])[0]
    assert not _suite_verdict([failed, ok])[0]
    assert not _suite_verdict([])[0]


def test_01_word_count_oracle():
    # Mobius counts vs the necklace walk for s <= 12, d <= 4; the largest
    # cell walks 4^12 words under the suite's budget of 10^8
    _report(1, "word-count oracle", *_suite_verdict(check_counts()))


def test_02_partition_identity():
    bad = [
        (m, d)
        for d in range(1, 5)
        for m in range(1, 13)
        if sum(s * count_aperiodic(s, d) for s in divisors(m)) != d**m
    ]
    _report(2, "partition identity", not bad, f"fails at {bad}")


def test_03_witt_arithmetic():
    # ring axioms on 500 seeded triples per (p, n, f), 30 ghost-identity
    # samples per (p, n), and the Z/p^n isomorphism, for p in {2, 3, 5},
    # n <= 3, f in {1, 2}
    _report(3, "Witt arithmetic", *_suite_verdict(check_witt(triples=500, seed=2024)))


def test_04_degree_one_oracle():
    # order(relative_k(F_q, d, 1)) vs the enumerated unit group 1 + m
    _report(4, "degree-1 K-theory oracle", *_suite_verdict(check_k1()))


def test_05_dual_numbers_order_law():
    # |K_{2i-1}| = |W_2i| / |W_i| = p^i for p in {2, 3, 5}, i <= 5
    _report(5, "dual-numbers order law", *_suite_verdict(check_dual_numbers()))


def test_06_structural_vanishing():
    from kax.kcalc import axes_relative_k

    bad = []
    for p in (2, 3, 5):
        ring = RingSpec.finite_field(p)
        for degree in range(-3, 1):
            for d in (1, 2, 3):
                if not relative_k(ring, d, degree).is_trivial:
                    bad.append(("nonpositive", p, d, degree))
        for degree in range(0, 21, 2):
            if not relative_k(ring, 1, degree).is_trivial:
                bad.append(("even-d1", p, degree))
        for degree in range(0, 21):
            if not axes_relative_k(ring, 1, degree).is_trivial:
                bad.append(("axes-d1", p, degree))
    _report(6, "structural vanishing", not bad, f"{bad}")


def test_07_finiteness():
    bad = []
    for p in (2, 3, 5):
        ring = RingSpec.finite_field(p)
        for d in (1, 2, 3):
            for degree in range(0, 21):
                doubled = 2 * m_prime_bound(p, degree)
                if relative_k(ring, d, degree) != relative_k(
                    ring, d, degree, m_prime_limit=doubled
                ):
                    bad.append((p, d, degree))
    _report(7, "finiteness of the product", not bad, f"{bad}")


def test_08_t_od_sum_identity():
    bad = []
    for p in (3, 5, 7):
        for r in range(0, 51):
            total = sum(
                t_od(p, r, m)
                for m in range(1, 2 * r + 2, 2)
                if gcd(m, p) == 1
            )
            if total != r + 1:
                bad.append((p, r, total))
    _report(8, "t_od sum identity", not bad, f"{bad}")


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "kax", *argv], capture_output=True, text=True
    )


def test_09_determinism_and_roundtrip():
    bad = []
    invocations = [
        ("compute", "--p", "3", "--d", "2", "--ring", "Fq:9",
         "--degree", "5", "--format", "json"),
        ("table", "--p", "2", "--d", "2", "--ring", "Fq:2",
         "--max-degree", "6", "--format", "json"),
        ("compute", "--p", "5", "--d", "3", "--ring", "Fq:5",
         "--degree", "7"),
    ]
    for args in invocations:
        first, second = _cli(*args), _cli(*args)
        if first.returncode != 0 or first.stdout != second.stdout:
            bad.append(("bytes", args))
    for ring, d, degree in ((RingSpec.finite_field(3, 2), 2, 5),
                            (RingSpec.finite_field(2), 3, 4)):
        expr = relative_k(ring, d, degree)
        data = json.loads(json.dumps(group_expr_to_dict(expr)))
        if group_expr_from_dict(data) != normalize_for_roundtrip(expr):
            bad.append(("roundtrip", ring.label(), d, degree))
    _report(9, "determinism and JSON round-trip", not bad, f"{bad}")


def test_10_spot_checks():
    bad = []
    for q in (2, 3, 4, 9):
        for d in (1, 2, 3):
            e = integral_k_finite_field(q, d, 0)
            if [(f.kind, f.rank or 1) for f in e.factors] != [("free", 1)]:
                bad.append(("K0", q, d))
    for q in (2, 3, 4, 9):
        ring = RingSpec.from_q(q)
        for variant in ("square", "axes"):
            for e in table(ring, 2, 16, variant):
                if any(f.length < 1 for f in e.factors if f.kind == "witt"):
                    bad.append(("W0", q, variant, e.degree))
    _report(10, "spot checks (K_0 = Z, no W_0)", not bad, f"{bad}")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
