"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [workload ...]

1. A corrupted expected result, a deliberately wrong Witt result and a
   Witt op that raises each count as a failed op and make the run not
   correct.  On cli a failing known defect leaves the run correct and any
   other failing request does not.
2. Two seeds give different blocks of the same shape, for every workload.
3. The layer counts of two traced runs of one seed are equal, for the
   named workloads (all four by default).
Exits 1 and says which check failed, else prints "selfcheck ok".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import grids  # noqa: E402
import workloads  # noqa: E402


def corrupted_expected_fails() -> bool:
    wl = workloads.TableSweep()
    op = next(gen.blocks("table-sweep", 1))[0]
    ring, variant, d, level = op
    entry = wl.expected[grids.combo_key(ring, variant, d)]
    entry["prefix"] = "0" * len(entry["prefix"])
    stats = workloads.Stats()
    wl.run_block([op], stats)
    return stats.failed == 1 and stats.fail_kinds["wrong_output"] == 1 and not stats.correct


def broken_witt_stats(kind: str, broken) -> workloads.Stats:
    """Run the three (3, 2, 2) ops of a witt-arith block, one per kind, with
    WittRing.<kind> replaced by broken(original)."""
    from kax import witt

    wl = workloads.WittArith()
    block = [op for op in next(gen.blocks("witt-arith", 1)) if op[:3] == (3, 2, 2)]
    original = getattr(witt.WittRing, kind)
    setattr(witt.WittRing, kind, broken(original))
    try:
        stats = workloads.Stats()
        wl.run_block(block, stats)
    finally:
        setattr(witt.WittRing, kind, original)
    return stats


def wrong_witt_fails() -> bool:
    def off_by_one(original):
        def mul(self, a, b):
            r = list(original(self, a, b))
            r[-1] = (r[-1] + 1) % self.field.q
            return tuple(r)
        return mul

    stats = broken_witt_stats("mul", off_by_one)
    return (stats.attempted == 3 and stats.failed == 1
            and stats.fail_kinds["wrong_output"] == 1 and not stats.correct)


def raising_witt_fails() -> bool:
    def raising(original):
        def neg(self, a):
            raise ArithmeticError("broken on purpose")
        return neg

    stats = broken_witt_stats("neg", raising)
    return (stats.attempted == 3 and stats.failed == 1
            and stats.fail_kinds["traceback"] == 1 and not stats.correct)


def cli_correct_only_with_known_defects() -> bool:
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    wl = workloads.Cli(scratch=scratch)
    crash = gen.DEFECT_CELLS[0]
    known = {"class": "defect", "argv": gen.compute_argv(*crash), "cell": crash}
    # a usage-error request that the program answers: not a known defect
    unknown = {"class": "usage", "argv": ["count-words", "--s", "2", "--d", "2"]}
    with_known = workloads.Stats()
    wl.run_block([known], with_known)
    with_unknown = workloads.Stats()
    wl.run_block([known, unknown], with_unknown)
    return (with_known.failed == 1 and with_known.correct
            and with_unknown.failed == 2 and not with_unknown.correct)


def seeds_share_shape() -> list[str]:
    bad = []
    for workload in workloads.WORKLOADS:
        a = next(gen.blocks(workload, 1))
        b = next(gen.blocks(workload, 2))
        if gen.shape(workload, a) != gen.shape(workload, b):
            bad.append(f"{workload}: shapes differ")
        if a == b:
            bad.append(f"{workload}: seeds 1 and 2 give the same block")
    return bad


def traced_counts(workload: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def main(names: list[str]) -> int:
    failures = []
    if not corrupted_expected_fails():
        failures.append("a corrupted expected table hash did not fail its op")
    if not wrong_witt_fails():
        failures.append("a wrong Witt product did not fail its op")
    if not raising_witt_fails():
        failures.append("a raising Witt op did not fail its op")
    if not cli_correct_only_with_known_defects():
        failures.append("cli correctness does not follow the known-defect class")
    failures += seeds_share_shape()
    for workload in names or list(workloads.WORKLOADS):
        first, second = traced_counts(workload), traced_counts(workload)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            failures.append(f"{workload}: layer counts differ between traced runs: {diff}")
    for line in failures:
        print("selfcheck FAILED:", line)
    if not failures:
        print("selfcheck ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
