"""kax benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the benchmark imports kax from ./src and
keeps its scratch files in ./.perfbench.  Every measurement runs in a
child process, one at a time.

--trace 0 starts several fresh workers and times each from its start
until it can run its first op; the last one then runs whole blocks of ops
until --seconds have passed.  --trace 1 runs one fixed round untraced and
the same round with the timing wrappers installed, and reports per-layer
metrics plus the tracing overhead.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = {"witt-arith": 3}  # fresh set-ups per run; others take DEFAULT_SETUP_RUNS
DEFAULT_SETUP_RUNS = 11
# Set-up is mostly interpreter start-up, so it is scaled by speed.spawn_probe
# around each worker; witt-arith's is mostly the in-process Witt polynomial
# solve, so it is scaled by the worker's own probes.
IN_PROCESS_SETUP = {"witt-arith"}
STARTUP_PROBES = 5
WORKER_GRACE_S = 150  # a worker must exit this long after its measuring time


def _kax_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "kax", "__init__.py"))


def spawn_worker(workload, seed, seconds, mode, traced, out) -> tuple[float, float, float]:
    """Run one worker; return (set-up seconds, the same scaled to reference
    speed, seconds until exit).  Set-up runs from the start of the process
    until it can run its first op, less the speed probes it reports."""
    from speed import PROBE_REF_S

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(seconds), mode, "1" if traced else "0", out]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            proc.stdout.read()
            code = proc.wait(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{mode} worker for {workload} did not finish")
    word, *probes = line.split() or [""]
    if word != "ready" or code != 0:
        raise RuntimeError(f"{mode} worker for {workload} failed with exit code {code}")
    before, after = (float(p) for p in probes)
    setup = ready - before - after
    return setup, setup * PROBE_REF_S / ((before + after) / 2), time.perf_counter() - t0


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, int(-(-n * pct // 100)))


def startup_seconds() -> float:
    """Median time for a fresh interpreter that only imports kax.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kax.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _summary(latencies: list[float], pct: float) -> dict:
    lat = sorted(latencies)
    if not lat:
        raise RuntimeError("no op ran to completion")
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[rank(len(lat), pct) - 1] * 1e3,
    }


def end_to_end(workload, seed, seconds, scratch) -> tuple[dict, dict]:
    from speed import SPAWN_PROBE_REF_S, spawn_probe
    from workloads import TAIL_PERCENTILE

    out = os.path.join(scratch, f"result-{workload}-{seed}.json")
    readies, raw_readies = [], []
    runs = SETUP_RUNS.get(workload, DEFAULT_SETUP_RUNS)
    in_process = workload in IN_PROCESS_SETUP
    before = 0.0 if in_process else spawn_probe()
    for i in range(runs):
        mode = "measure" if i == runs - 1 else "setup"
        raw, scaled, _ = spawn_worker(workload, seed, seconds, mode, False, out)
        if not in_process:
            after = spawn_probe()
            scaled = raw * SPAWN_PROBE_REF_S / ((before + after) / 2)
            before = after
        raw_readies.append(raw)
        readies.append(scaled)
    with open(out) as fh:
        res = json.load(fh)
    pct = TAIL_PERCENTILE[workload]
    summary = _summary(res["latencies"], pct)
    metrics = {
        "setup_s": (statistics.median(readies), "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "op_tail_ms": (summary["op_tail_ms"], "ms"),
        "ok_share": ((res["attempted"] - res["failed"]) / res["attempted"], "share"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    n = len(res["latencies"])
    detail = {
        "tail_percentile": pct,
        "samples": n,
        "beyond_tail": n - rank(n, pct),
        "blocks": res["blocks"],
        "measured_s": res["elapsed"],
        "unscaled": {"setup_s": statistics.median(raw_readies),
                     **_summary(res["raw_latencies"], pct)},
        "speed_factor_median": statistics.median(res["speed_factors"]),
        "fail_kinds": res["fail_kinds"],
    }
    return _result(res, metrics), detail


def traced(workload, seed, seconds, scratch) -> tuple[dict, dict]:
    from clirun import FAIL_KINDS

    out = os.path.join(scratch, f"round-{workload}-{seed}.json")
    plain_s = spawn_worker(workload, seed, seconds, "round", False, out)[2]
    traced_s = spawn_worker(workload, seed, seconds, "round", True, out)[2]
    with open(out) as fh:
        res = json.load(fh)
    layers = res["layers"]
    layers["cli.startup_s"] = startup_seconds()
    for kind in FAIL_KINDS:
        layers[f"cli.fail.{kind}"] = res["fail_kinds"].get(kind, 0) if workload == "cli" else 0
    layers["trace.overhead_s"] = traced_s - plain_s
    units = _layer_units()
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    if res["untraced"]:
        print(f"perfbench: no longer in kax, untraced: {', '.join(res['untraced'])}", file=sys.stderr)
    detail = {"untraced_s": plain_s, "traced_s": traced_s, "fail_kinds": res["fail_kinds"],
              "untraced_targets": res["untraced"],
              "spans": os.path.join(".perfbench", f"spans-{workload}-{seed}.jsonl")}
    return _result(res, metrics), detail


def _layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _result(res, metrics) -> dict:
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not _kax_present():
        print("perfbench: no kax sources under src/kax; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    # one CPU for this process and every child, so the speed probes run
    # where the work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = traced if args.trace else end_to_end
    try:
        result, detail = run(args.workload, args.seed, args.seconds, scratch)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
