"""The four workloads: how one block runs and how each op is checked.

Each run_block times only the program's work and records it in a Stats;
checks run outside the timed span.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import checks
import clirun
import gen
import grids
import speed

# latency percentile reported as op_tail_ms: the highest one that keeps at
# least ten samples beyond it in a normal run of each workload
TAIL_PERCENTILE = {"table-sweep": 90, "witt-arith": 99.5, "verify": 95, "cli": 85}


class Stats:
    """Pass/fail counts plus op times, scaled to reference speed when measuring.

    The run is correct while every failed op is a known defect: on the
    in-process workloads none is, on cli only the requests of the "defect"
    class are.
    """

    def __init__(self, scale: bool = False, spawn: bool = False):
        self.times = speed.Scaler(scale, spawn)
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.fail_kinds: Counter = Counter()
        self.peak_rss_kb = 0

    @property
    def correct(self) -> bool:
        return self.unexpected == 0

    def result(self, passed: bool, kind: str | None = None, known_defect: bool = False) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.unexpected += not known_defect
            self.fail_kinds[kind or "wrong_output"] += 1

    def add(self, latency: float, passed: bool, kind: str | None = None,
            known_defect: bool = False) -> None:
        # a request killed at its deadline took the benchmark's deadline, not
        # a time of the program's: it counts as a failure but not as a latency
        if kind != "deadline":
            self.times.add(latency)
        self.result(passed, kind, known_defect)
        self.times.between_ops()


class Workload:
    name = ""

    def __init__(self, tracer=None, scratch: str = ""):
        self.tracer = tracer
        self.scratch = scratch

    def timed(self, label, fn, *args):
        """Run fn under a root span when traced; return (result, seconds)."""
        frame = self.tracer.begin_op(label) if self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - t0
        finally:
            if frame is not None:
                self.tracer.end_op(frame)


# ---------------------------------------------------------------------------


class TableSweep(Workload):
    name = "table-sweep"

    def __init__(self, **kw):
        super().__init__(**kw)
        from kax import kcalc

        self.kcalc = kcalc
        self.expected = gen.load_expected("table")

    def _op(self, spec, d, level, variant):
        kcalc = self.kcalc
        return [kcalc.group_expr_to_dict(e) for e in kcalc.table(spec, d, level, variant)]

    def run_block(self, block, stats: Stats, n_done: int = 0) -> None:
        for i, (ring, variant, d, level) in enumerate(block):
            spec = self.kcalc.parse_ring_spec(ring)
            t0 = time.perf_counter()
            try:
                rows, lat = self.timed(f"table-sweep:{n_done + i}", self._op, spec, d, level, variant)
            except Exception:
                stats.add(time.perf_counter() - t0, False, "traceback")
                continue
            stats.add(lat, self.passes(ring, variant, d, level, rows))

    def passes(self, ring, variant, d, level, rows) -> bool:
        packed = self.expected[grids.combo_key(ring, variant, d)]["prefix"]
        want = checks.split_hashes(packed)[grids.PREFIX_LEVELS.index(level)]
        if len(rows) != level + 1 or checks.prefix_hashes(rows, [level]).get(level) != want:
            return False
        return variant != "dual" or all(checks.dual_law_holds(r) for r in rows)


# ---------------------------------------------------------------------------


class WittArith(Workload):
    name = "witt-arith"

    def __init__(self, **kw):
        super().__init__(**kw)
        from kax import witt

        self.rings = {cell: witt.witt_ring(*cell) for cell in grids.witt_cells()}
        self.oracles = {cell: checks.WittOracle(*cell) for cell in grids.witt_cells()}

    def run_block(self, block, stats: Stats, n_done: int = 0) -> None:
        for i, (p, n, f, kind, a, b) in enumerate(block):
            ring = self.rings[(p, n, f)]
            fn = getattr(ring, kind)
            args = (a,) if kind == "neg" else (a, b)
            t0 = time.perf_counter()
            try:
                result, lat = self.timed(f"witt-arith:{n_done + i}", fn, *args)
            except Exception:
                stats.add(time.perf_counter() - t0, False, "traceback")
                continue
            stats.add(lat, self.oracles[(p, n, f)].holds(kind, a, b, result))


# ---------------------------------------------------------------------------


class Verify(Workload):
    name = "verify"

    def __init__(self, **kw):
        super().__init__(**kw)
        from kax import oracles

        self.oracles = oracles
        self.stats: Stats | None = None
        self.start = 0.0
        verify = self

        class StampedEntry(oracles.ReportEntry):
            # one op is one report entry; its time runs from the end of the
            # previous entry (or the start of the call) to its construction
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                verify.stats.times.add(time.perf_counter() - verify.start)
                verify.stats.times.between_ops()
                verify.start = time.perf_counter()

        oracles.ReportEntry = StampedEntry
        self.expected = Counter(tuple(e) for e in gen.load_expected("verify")["entries"])

    def run_block(self, block, stats: Stats, n_done: int = 0) -> None:
        self.stats = stats
        self.start = time.perf_counter()
        try:
            report, _ = self.timed(f"verify:{n_done}", self.oracles.run_suites, list(block))
        except Exception:
            stats.add(time.perf_counter() - self.start, False, "traceback")
            return
        got = Counter()
        for entry in report:
            key = (entry.check, json.dumps(entry.params, sort_keys=True), entry.status)
            got[key] += 1
            stats.result(entry.status != "fail" and got[key] <= self.expected[key])
        for _ in range(sum(self.expected.values()) - len(report)):
            stats.result(False)


# ---------------------------------------------------------------------------


class Cli(Workload):
    name = "cli"

    def __init__(self, forked: bool = False, **kw):
        super().__init__(**kw)
        self.forked = forked
        self.expected = gen.load_expected("cli")
        self.table = gen.load_expected("table")
        root = os.path.dirname(gen.HERE)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("KAX_BUDGET", None)
        self.snapshots: list[dict] = []
        self.witt_oracles: dict = {}

    def request(self, argv, label=""):
        if self.forked:
            outcome, snap = clirun.run_forked(argv, self.scratch, tracer=self.tracer, label=label)
            if snap is not None:
                self.snapshots.append(snap)
            return outcome
        return clirun.run_subprocess(argv, self.env, self.scratch)

    def run_block(self, block, stats: Stats, n_done: int = 0) -> None:
        for i, req in enumerate(block):
            outcome = self.request(req["argv"], f"cli:{n_done + i}")
            if not outcome.timed_out:
                # a child killed at the deadline grew for as long as the
                # deadline let it, which depends on the machine's speed
                stats.peak_rss_kb = max(stats.peak_rss_kb, outcome.maxrss_kb)
            if self.passes(req, outcome):
                stats.add(outcome.elapsed, True)
            else:
                kind = clirun.failure_kind(outcome, req["class"] == "usage")
                stats.add(outcome.elapsed, False, kind, known_defect=req["class"] == "defect")

    # -- checks ----------------------------------------------------------------

    def passes(self, req, out: clirun.Outcome) -> bool:
        if req["class"] == "usage":
            return out.exit_code == 2 and out.stdout == b"" and b"error" in out.stderr
        if out.exit_code != 0:
            return False
        if "witt" in req:
            return self._witt_passes(req["witt"], out.stdout)
        if "count" in req:
            s, d, axes, listed, fmt = req["count"]
            return checks.short_hash(out.stdout) == self.expected["count"][f"{s}|{d}|{axes}|{listed}|{fmt}"]
        if "verify" in req:
            return checks.short_hash(out.stdout) == self.expected["verify"][req["verify"]]
        return self._cell_passes(req["cell"], out.stdout)

    def _cell_passes(self, cell, stdout: bytes) -> bool:
        kind, ring, variant, d, degree, fmt = cell
        if fmt == "json":
            return self._json_passes(kind, ring, variant, d, degree, stdout)
        degrees = grids.COMPUTE_DEGREES if kind == "compute" else grids.TABLE_LEVELS
        packed = self.expected[kind][fmt][grids.combo_key(ring, variant, d)]
        want = checks.split_hashes(packed)[degrees.index(degree)]
        if want != checks.FAILED_AT_SEED:
            return checks.short_hash(stdout) == want
        return self._recovered_passes(cell, stdout)

    def _json_passes(self, kind, ring, variant, d, degree, stdout: bytes) -> bool:
        try:
            data = json.loads(stdout)
        except ValueError:
            return False
        entry = self.table[grids.combo_key(ring, variant, d)]
        if kind == "compute":
            want = checks.split_hashes(entry["row"])[grids.COMPUTE_DEGREES.index(degree)]
            return isinstance(data, dict) and checks.short_hash(checks.canon_row(data)) == want
        want = checks.split_hashes(entry["prefix"])[grids.PREFIX_LEVELS.index(degree)]
        return (
            isinstance(data, list)
            and len(data) == degree + 1
            and checks.prefix_hashes(data, [degree]).get(degree) == want
        )

    def _recovered_passes(self, cell, stdout: bytes) -> bool:
        """A text cell that failed at the seed commit: its factor lists must
        match the recorded JSON result of the same cell."""
        kind, ring, variant, d, degree, _ = cell
        json_out = self.request(gen.compute_argv(kind, ring, variant, d, degree, "json"))
        if json_out.exit_code != 0 or not self._json_passes(kind, ring, variant, d, degree, json_out.stdout):
            return False
        data = json.loads(json_out.stdout)
        rows = [data] if kind == "compute" else data
        integral = variant == "integral"
        want = [checks.text_body(r, integral) for r in rows]
        lines = stdout.decode().splitlines()
        if kind == "table":
            want = [f"degree {r['degree']}: {body}" for r, body in zip(rows, want)]
        return [checks.strip_order(line) for line in lines[: len(want)]] == want and len(lines) >= len(want)

    def _witt_passes(self, witt_req, stdout: bytes) -> bool:
        op, p, n, f, a, b = witt_req
        try:
            parts = stdout.decode().strip().split(",")
            if f == 1:
                vec = tuple(int(x) for x in parts)
            else:
                vec = tuple(sum(int(c) * p**i for i, c in enumerate(x.split(":"))) for x in parts)
        except ValueError:
            return False
        if op == "v":
            return vec == (0,) + tuple(a)
        if op == "r":
            return vec == tuple(a[:-1])
        if len(vec) != n:
            return False
        key = (p, n, f)
        if key not in self.witt_oracles:
            self.witt_oracles[key] = checks.WittOracle(p, n, f)
        return self.witt_oracles[key].holds(op, a, b, vec)


WORKLOADS = {w.name: w for w in (TableSweep, WittArith, Verify, Cli)}


def layer_probe() -> None:
    """One small call into every traced layer.

    Traced runs end with it, so every per-layer timer has run on every
    workload; its contribution is the same fixed work on each.  Calls to
    helpers that later work may remove are skipped once they are gone.
    """
    import contextlib
    import io

    from kax import cli, fields, kcalc, oracles, witt, words

    ring = kcalc.RingSpec.finite_field(2)
    expr = kcalc.relative_k(ring, 2, 3)
    kcalc.group_expr_to_dict(expr)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["compute", "--p", "2", "--d", "2", "--ring", "Fq:2", "--degree", "3"])
    _call_if_present(words, "count_by_enumeration", 4, 2)
    fields.GaloisField(2, 2)
    w = witt.WittRing(2, 2, 2)
    w.neg(w.mul(w.add(w.one, w.one), w.one))
    _call_if_present(witt, "iso_with_zpn", 2, 1)
    oracles.check_counts(s_max=2, d_max=1)
    oracles.check_witt(p_set=(2,), n_max=1, f_set=(1,), triples=1)
    oracles.check_k1(q_set=(2,), d_set=(1,))
    oracles.check_dual_numbers(p_set=(2,), i_max=1)


def _call_if_present(module, name: str, *args) -> None:
    fn = getattr(module, name, None)
    if fn is not None:
        fn(*args)
