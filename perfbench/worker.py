"""One benchmark child process: set up, say "ready", then measure or run a round.

    worker.py <workload> <seed> <seconds> <mode> <traced> <out>

mode "setup" exits once set up; "measure" runs whole blocks until `seconds`
have passed; "round" runs a fixed number of blocks and then the layer
probe, so its layer counts repeat exactly for a seed.  The result goes to
<out> as JSON.  Before its first op the worker imports only kax, the grids
and the speed probe; the "ready" line carries the probe times measured
just before and just after set-up, which the parent subtracts.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import grids  # noqa: E402
import speed  # noqa: E402

# blocks in a traced round; kept small because tracing slows field ops
ROUND_BLOCKS = {"table-sweep": 1, "witt-arith": 2, "verify": 1, "cli": 1}


def setup(workload: str) -> None:
    """What the program needs before its first op: imports, fields, Witt rings."""
    if workload == "table-sweep":
        import kax.kcalc  # noqa: F401
    elif workload == "witt-arith":
        from kax import witt

        for cell in grids.witt_cells():
            witt.witt_ring(*cell)
    elif workload == "verify":
        import kax.oracles  # noqa: F401
    elif workload == "cli":
        import kax.cli  # noqa: F401


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode, traced, out = argv
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    scratch = os.path.join(ROOT, ".perfbench")
    tracer = None
    if mode == "round":
        import kax.cli  # noqa: F401  every traced module, traced or not
        import kax.oracles  # noqa: F401

        if traced:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
    before = speed.probe()
    setup(workload)
    after = speed.probe()
    # the parent subtracts both probes from the time it measured until this
    # line and scales the rest by them
    print(f"ready {before} {after}", flush=True)
    if mode == "setup":
        return 0

    import json
    import resource

    import gen
    import workloads

    kwargs = {"tracer": tracer, "scratch": scratch}
    if workload == "cli":
        kwargs["forked"] = mode == "round"
    wl = workloads.WORKLOADS[workload](**kwargs)
    stats = workloads.Stats(scale=mode == "measure", spawn=workload == "cli")
    stream = gen.blocks(workload, seed)
    n_blocks = 0
    t0 = time.perf_counter()
    while (
        time.perf_counter() - t0 < seconds
        if mode == "measure"
        else n_blocks < ROUND_BLOCKS[workload]
    ):
        wl.run_block(next(stream), stats, stats.attempted)
        n_blocks += 1
    if mode == "round":
        workloads.layer_probe()
    elapsed = time.perf_counter() - t0
    stats.times.flush()
    if workload != "cli":
        stats.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "latencies": stats.times.scaled,
        "raw_latencies": stats.times.raw,
        "speed_factors": stats.times.factors,
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "fail_kinds": dict(stats.fail_kinds),
        "peak_rss_kb": stats.peak_rss_kb,
        "blocks": n_blocks,
        "elapsed": elapsed,
    }
    if tracer is not None:
        import tracer as tracing

        agg = tracing.merge([tracer.snapshot()] + getattr(wl, "snapshots", []))
        result["layers"] = tracing.layer_metrics(agg)
        result["untraced"] = sorted(agg["untraced"])
        spans_path = os.path.join(scratch, f"spans-{workload}-{seed}.jsonl")
        with open(spans_path, "w") as fh:
            for sid, parent, op, name, start, end in agg["spans"]:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
