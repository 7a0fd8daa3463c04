"""Timing wrappers around the calls into each kax module.

install() replaces each traced function in its defining module and in
every kax module (or module-level dict) that holds the same object, so
`kcalc.count_aperiodic`, `words.mobius` and `oracles.SUITES["k1"]` all go
through the wrapper.  Methods are replaced on their class.  The targets are
public entry points where a private helper would do, so a rewrite behind
them keeps its timer; a target that no longer exists is skipped and named
in `untraced`, and its metrics read 0.

Every wrapper keeps a stack frame, so self time is the call's duration
minus the time covered by the traced calls inside it.  Coarse calls also
record a span (id, parent id, op id, name, start, end) in memory; the hot
leaf calls (number theory, word counts, windows, field operations) only
add to their aggregate, since a span each would cost more than the call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from math import gcd

# (module, attribute or Class.method, site, records spans, observer)
TARGETS = (
    ("kax.numtheory", "mobius", "numtheory.mobius", False, None),
    ("kax.numtheory", "divisors", "numtheory.divisors", False, None),
    ("kax.numtheory", "vp", "numtheory.vp", False, None),
    ("kax.words", "count_aperiodic", "words.count", False, "count_aperiodic"),
    ("kax.words", "count_axes", "words.count", False, "count_axes"),
    ("kax.words", "enumerate_aperiodic", "words.necklace", True, "necklace"),
    ("kax.words", "enumerate_axes", "words.necklace", True, "necklace"),
    ("kax.words", "count_by_enumeration", "words.necklace", True, "necklace"),
    ("kax.tbounds", "t_ev", "tbounds.window", False, None),
    ("kax.tbounds", "t_od", "tbounds.window", False, None),
    ("kax.fields", "GaloisField.__init__", "fields.build", True, None),
    ("kax.fields", "GaloisField.add", "fields.op", False, None),
    ("kax.fields", "GaloisField.neg", "fields.op", False, None),
    ("kax.fields", "GaloisField.sub", "fields.op", False, None),
    ("kax.fields", "GaloisField.mul", "fields.op", False, None),
    ("kax.fields", "GaloisField.pow", "fields.op", False, None),
    ("kax.fields", "GaloisField.inv", "fields.op", False, None),
    ("kax.witt", "witt_polys", "witt.polys", True, "polys"),
    ("kax.witt", "WittRing.__init__", "witt.ring.build", True, None),
    ("kax.witt", "WittRing.add", "witt.add", True, "witt_add"),
    ("kax.witt", "WittRing.mul", "witt.mul", True, None),
    ("kax.witt", "WittRing.neg", "witt.neg", True, None),
    ("kax.witt", "iso_with_zpn", "witt.iso", True, None),
    ("kax.kcalc", "relative_k", "kcalc.assemble", True, "assemble"),
    ("kax.kcalc", "axes_relative_k", "kcalc.assemble", True, "assemble"),
    ("kax.kcalc", "integral_k_finite_field", "kcalc.assemble", True, "assemble"),
    ("kax.kcalc", "group_expr_to_dict", "kcalc.wire", True, None),
    ("kax.kcalc", "order", "kcalc.order", True, None),
    ("kax.oracles", "check_counts", "oracles.counts", True, "report"),
    ("kax.oracles", "check_witt", "oracles.witt", True, "report"),
    ("kax.oracles", "check_k1", "oracles.k1", True, "report"),
    ("kax.oracles", "check_dual_numbers", "oracles.dual", True, "report"),
    ("kax.cli", "render", "cli.render", True, None),
)


def necklaces(s: int, d: int) -> int:
    """Necklaces of length s on d letters: (1/s) sum_{u | s} phi(s/u) d^u.

    This is how many necklaces an enumeration of (s, d) visits; the
    benchmark computes it instead of counting visits inside the generator.
    """

    def phi(m):
        return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)

    return sum(phi(s // u) * d**u for u in range(1, s + 1) if s % u == 0) // s


class Tracer:
    def __init__(self):
        # frame: [child time, span id, site, parent span id, start, records, op id]
        self.stack = [[0.0, 0, "root", 0, 0.0, False, None]]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.count_keys: set = set()
        self.solved: set = set()
        self.spans: list[tuple] = []
        self.untraced: list[str] = []
        self.next_id = 1

    def _enter(self, site, record, op=None):
        parent = self.stack[-1]
        sid = parent[1]
        if record:
            sid = self.next_id
            self.next_id += 1
        frame = [0.0, sid, site, parent[1], time.perf_counter(), record,
                 parent[6] if op is None else op]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, t1):
        self.stack.pop()
        dur = t1 - frame[4]
        self.stack[-1][0] += dur
        site = frame[2]
        self.calls[site] += 1
        self.self_s[site] += dur - frame[0]
        if frame[5]:
            self.spans.append((frame[1], frame[3], frame[6], site, frame[4], t1))

    def begin_op(self, op_id: str):
        """Root span of one benchmark op; spans inside it carry its id."""
        return self._enter("op", True, op_id)

    def end_op(self, frame) -> None:
        self._exit(frame, time.perf_counter())

    def wrap(self, site, fn, record, observer):
        tracer = self
        observe = getattr(self, "_observe_" + observer) if observer else None

        def traced(*args, **kwargs):
            caller = tracer.stack[-1][2]
            frame = tracer._enter(site, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, time.perf_counter())
            if observe is not None:
                observe(caller, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts read from arguments and results --------------------------------

    def _count(self, family, caller, args, result):
        self.count_keys.add((args[0], args[1], family))
        if caller == "kcalc.assemble":
            self.counts["kcalc.assemble.counter_calls"] += 1
            if result == 0:
                self.counts["kcalc.assemble.zero_mult"] += 1

    def _observe_count_aperiodic(self, caller, args, result):
        self._count("aperiodic", caller, args, result)

    def _observe_count_axes(self, caller, args, result):
        self._count("axes", caller, args, result)

    def _observe_necklace(self, caller, args, result):
        self.counts["words.necklace.visited"] += necklaces(args[0], args[1])

    def _observe_polys(self, caller, args, result):
        polys = getattr(result, "prod_polys", None)
        if polys is not None and args[:2] not in self.solved:
            self.solved.add(args[:2])
            self.counts["witt.polys.monomials"] += sum(len(P) for P in polys)

    def _observe_witt_add(self, caller, args, result):
        if caller == "witt.neg":
            self.counts["witt.neg.adds"] += 1

    def _observe_assemble(self, caller, args, result):
        witt = [f for f in getattr(result, "factors", ()) if f.kind == "witt"]
        self.counts["kcalc.assemble.factors"] += len(witt)

    def _observe_report(self, caller, args, result):
        for entry in result:
            key = "oracles.skipped" if entry.status == "skipped" else "oracles.checks"
            self.counts[key] += 1

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "count_keys": sorted(self.count_keys),
            "spans": self.spans,
            "untraced": self.untraced,
        }


def install(tracer: Tracer) -> None:
    for name in {t[0] for t in TARGETS}:
        importlib.import_module(name)
    kax_modules = [m for name, m in sys.modules.items() if name == "kax" or name.startswith("kax.")]
    for modname, attr, site, record, observer in TARGETS:
        owner_name, _, name = attr.rpartition(".")
        mod = sys.modules[modname]
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = vars(owner).get(name) if owner is not None else None
        if orig is None:
            tracer.untraced.append(f"{modname}.{attr}")
            continue
        traced = tracer.wrap(site, orig, record, observer)
        if owner_name:
            setattr(owner, name, traced)
            continue
        for m in kax_modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)
                elif isinstance(value, dict) and key != "__builtins__":
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = traced


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several processes (the forked cli requests)."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": defaultdict(int), "count_keys": set(), "spans": [], "untraced": set()}
    for snap in snapshots:
        for part in ("calls", "self_s", "counts"):
            for k, v in snap[part].items():
                out[part][k] += v
        out["count_keys"].update(tuple(k) for k in snap["count_keys"])
        out["spans"].extend(snap["spans"])
        out["untraced"].update(snap["untraced"])
    return out


def layer_metrics(agg: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name."""
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    necklace_s = self_s.get("words.necklace", 0.0)
    visited = counts.get("words.necklace.visited", 0)
    return {
        "numtheory.mobius.calls": calls.get("numtheory.mobius", 0),
        "numtheory.mobius.self_s": self_s.get("numtheory.mobius", 0.0),
        "numtheory.divisors.calls": calls.get("numtheory.divisors", 0),
        "numtheory.divisors.self_s": self_s.get("numtheory.divisors", 0.0),
        "numtheory.vp.calls": calls.get("numtheory.vp", 0),
        "words.count.calls": calls.get("words.count", 0),
        "words.count.self_s": self_s.get("words.count", 0.0),
        "words.count.distinct_ratio": ratio(len(agg["count_keys"]), calls.get("words.count", 0)),
        "words.necklace.calls": calls.get("words.necklace", 0),
        "words.necklace.visited": visited,
        "words.necklace.self_s": necklace_s,
        "words.necklace.ns_per_visit": ratio(necklace_s * 1e9, visited),
        "tbounds.window.calls": calls.get("tbounds.window", 0),
        "tbounds.window.self_s": self_s.get("tbounds.window", 0.0),
        "fields.build_s": self_s.get("fields.build", 0.0),
        "fields.op.calls": calls.get("fields.op", 0),
        "fields.op.self_s": self_s.get("fields.op", 0.0),
        "witt.polys.solve_s": self_s.get("witt.polys", 0.0),
        "witt.polys.monomials": counts.get("witt.polys.monomials", 0),
        "witt.ring.build_s": self_s.get("witt.ring.build", 0.0),
        "witt.add.calls": calls.get("witt.add", 0),
        "witt.add.self_s": self_s.get("witt.add", 0.0),
        "witt.mul.calls": calls.get("witt.mul", 0),
        "witt.mul.self_s": self_s.get("witt.mul", 0.0),
        "witt.neg.calls": calls.get("witt.neg", 0),
        "witt.neg.self_s": self_s.get("witt.neg", 0.0),
        "witt.neg.adds_per_neg": ratio(counts.get("witt.neg.adds", 0), calls.get("witt.neg", 0)),
        "witt.iso.self_s": self_s.get("witt.iso", 0.0),
        "kcalc.assemble.calls": calls.get("kcalc.assemble", 0),
        "kcalc.assemble.self_s": self_s.get("kcalc.assemble", 0.0),
        "kcalc.assemble.factors": counts.get("kcalc.assemble.factors", 0),
        "kcalc.assemble.zero_mult_ratio": ratio(
            counts.get("kcalc.assemble.zero_mult", 0), counts.get("kcalc.assemble.counter_calls", 0)
        ),
        "kcalc.wire.self_s": self_s.get("kcalc.wire", 0.0),
        "kcalc.order.calls": calls.get("kcalc.order", 0),
        "kcalc.order.self_s": self_s.get("kcalc.order", 0.0),
        "oracles.counts.self_s": self_s.get("oracles.counts", 0.0),
        "oracles.witt.self_s": self_s.get("oracles.witt", 0.0),
        "oracles.k1.self_s": self_s.get("oracles.k1", 0.0),
        "oracles.dual.self_s": self_s.get("oracles.dual", 0.0),
        "oracles.checks": counts.get("oracles.checks", 0),
        "oracles.skipped": counts.get("oracles.skipped", 0),
        "cli.render.self_s": self_s.get("cli.render", 0.0),
    }
