"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]

Runs the benchmark once per seed and workload, then prints for each metric
the median and the interquartile range as a share of the median, the
figure BENCHMARK.json's bounds are set against.  Each run's result line is
kept in .perfbench/spread-<workload>.jsonl, and each set's summary (seeds,
median, quartiles and spread per metric) in
.perfbench/spread-sets-<workload>.jsonl, which baseline.py copies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in names:
        runs = []
        log = os.path.join(ROOT, ".perfbench", f"spread-{workload}.jsonl")
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            with open(log, "a") as fh:
                fh.write(json.dumps({"seed": seed, **result, **json.loads(lines[-2])}) + "\n")
        summary[workload] = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[workload][metric] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread}
            flag = "" if spread < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"{workload:12s} {metric:12s} median {med:12.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[metric]}{flag}", flush=True)
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        with open(os.path.join(ROOT, ".perfbench", f"spread-sets-{workload}.jsonl"), "a") as fh:
            fh.write(json.dumps({"seeds": seeds, **summary[workload]}) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
