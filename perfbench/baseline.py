"""Write perfbench/baseline.json: the figures of the commit that added the benchmark.

    python3 perfbench/baseline.py

Records, for each workload, why it was chosen, the input properties its
layers depend on with their measured shares, the per-layer metrics of a
traced run (seed 1), the end-to-end medians and spreads of each set of
spread.py runs (.perfbench/spread-sets-<workload>.jsonl), and the map from
each layer metric to the end-to-end metric it should move.  It also
reproduces two ROADMAP baseline rows as layer counts.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import grids  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

LAYER_MAP = [
    ("numtheory", ["numtheory.mobius.calls", "numtheory.mobius.self_s", "numtheory.divisors.calls",
                   "numtheory.divisors.self_s", "numtheory.vp.calls"],
     "ops_per_s, op_p50_ms on table-sweep", "witt-arith"),
    ("words (counts)", ["words.count.calls", "words.count.self_s", "words.count.distinct_ratio"],
     "ops_per_s on table-sweep", "verify, cli"),
    ("words (necklaces)", ["words.necklace.calls", "words.necklace.visited", "words.necklace.self_s",
                           "words.necklace.ns_per_visit"],
     "ops_per_s on verify", "table-sweep"),
    ("tbounds", ["tbounds.window.calls", "tbounds.window.self_s"],
     "ops_per_s on table-sweep", "witt-arith"),
    ("fields", ["fields.build_s", "fields.op.calls", "fields.op.self_s"],
     "ops_per_s on witt-arith and verify (k1 suite)", "table-sweep"),
    ("witt (solve)", ["witt.polys.solve_s", "witt.polys.monomials", "witt.ring.build_s"],
     "setup_s on witt-arith", "table-sweep"),
    ("witt (ops)", ["witt.add.calls", "witt.add.self_s", "witt.mul.calls", "witt.mul.self_s",
                    "witt.neg.calls", "witt.neg.self_s", "witt.neg.adds_per_neg", "witt.iso.self_s"],
     "ops_per_s and op_tail_ms on witt-arith; ops_per_s on verify", "table-sweep"),
    ("kcalc (assembly)", ["kcalc.assemble.calls", "kcalc.assemble.self_s", "kcalc.assemble.factors",
                          "kcalc.assemble.zero_mult_ratio", "kcalc.wire.self_s"],
     "ops_per_s on table-sweep", "witt-arith"),
    ("kcalc (order)", ["kcalc.order.calls", "kcalc.order.self_s"],
     "op_tail_ms and ok_share on cli", "table-sweep"),
    ("oracles", ["oracles.counts.self_s", "oracles.witt.self_s", "oracles.k1.self_s",
                 "oracles.dual.self_s", "oracles.checks", "oracles.skipped"],
     "ops_per_s on verify", "table-sweep"),
    ("cli", ["cli.startup_s", "cli.render.self_s", "cli.fail.deadline", "cli.fail.memcap",
             "cli.fail.misclassified", "cli.fail.traceback", "cli.fail.wrong_output"],
     "op_p50_ms and ok_share on cli", "witt-arith"),
]


def roadmap_rows() -> dict:
    """The ROADMAP baseline rows, as layer counts of in-process traced calls."""
    from kax import kcalc, witt

    tr = tracing.Tracer()
    tracing.install(tr)
    kcalc.table(kcalc.RingSpec.finite_field(3), 3, 200)
    table_row = {
        "words.count.calls": tr.calls["words.count"],
        "distinct (s, d, family)": len(tr.count_keys),
        "numtheory.mobius.calls": tr.calls["numtheory.mobius"],
        "numtheory.divisors.calls": tr.calls["numtheory.divisors"],
    }
    tr2 = tracing.Tracer()
    tracing.install(tr2)
    witt.witt_polys(2, 6)
    return {
        "table(F_3, d=3, 0..200)": table_row,
        "witt_polys(2, 6)": {
            "witt.polys.monomials": tr2.counts["witt.polys.monomials"],
            "witt.polys.solve_s": tr2.self_s["witt.polys"],
        },
    }


def run_json(workload: str, trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def input_shares(workload: str, layers: dict) -> dict:
    block = next(gen.blocks(workload, 1))
    shape = gen.shape(workload, block)
    if workload == "table-sweep":
        return {
            "ops_per_block": len(block),
            "strata": "two ops per (ring, variant), an op and its mirror at fixed levels from "
                      f"{list(grids.SWEEP_LEVELS)}; d=6 at the top level, else dealt over 1..6",
            "distinct (s, d, family) / count calls": layers["words.count.distinct_ratio"],
            "count calls per op": layers["words.count.calls"] / len(block),
        }
    if workload == "witt-arith":
        wl = workloads.WittArith()
        busy = defaultdict(float)
        stats = workloads.Stats()
        for op in block:
            before = len(stats.times.raw)
            wl.run_block([op], stats)
            busy[f"p={op[0]} n={op[1]}"] += sum(stats.times.raw[before:])
        total = sum(busy.values())
        return {
            "ops_per_block": len(block),
            "mix": "one op per (p, n, f, kind): each of the 117 cells is 1/117 of the ops; "
                   "p=2 neg inputs (n > 1) have answers with the mean digit sum",
            "busy_time_share_by_p_n": {k: v / total for k, v in sorted(busy.items())},
        }
    if workload == "verify":
        expected = gen.load_expected("verify")["entries"]
        return {
            "entries_per_block": len(expected),
            "entries_by_suite": dict(Counter(e[0] for e in expected)),
        }
    per_block = sum(shape.values())
    return {
        "requests_per_block": per_block,
        "shape": dict(shape),
        "known_defects_per_block": shape["defect"],
        "share_failing_at_seed": shape["defect"] / per_block,
    }


def spread_sets(workload: str) -> list[dict] | None:
    """The summaries spread.py wrote, one per set of runs."""
    path = os.path.join(ROOT, ".perfbench", f"spread-sets-{workload}.jsonl")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    out = {
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "roadmap_rows": roadmap_rows(),
        "tail_percentiles": workloads.TAIL_PERCENTILE,
        "layer_map": [
            {"layer": layer, "metrics": metrics, "moves": moves, "flat_on": flat}
            for layer, metrics, moves, flat in LAYER_MAP
        ],
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        e2e = run_json(workload, 0)
        traced = run_json(workload, 1)
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        out["workloads"][workload] = {
            "why": why[workload],
            "inputs": input_shares(workload, layers),
            "end_to_end_seed1": {k: v["value"] for k, v in e2e["result"]["metrics"].items()},
            "end_to_end_detail_seed1": e2e["detail"],
            "end_to_end_spread_runs": spread_sets(workload),
            "attempted_failed_seed1": [e2e["result"]["attempted"], e2e["result"]["failed"]],
            "layers_seed1": layers,
            "trace_detail_seed1": traced["detail"],
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
