"""Scale measured times to a reference machine speed.

On a shared 2-core x86-64 VM the speed changes by up to 2x over tens of
seconds without descheduling the process: CPU time moves with wall time.
Runs minutes apart then differ more than any change worth catching.  So
the benchmark times a fixed probe, probe() in-process every PROBE_EVERY_S
between ops or spawn_probe() around fresh processes, and scales each time
by the probe's reference time divided by the mean of the probes taken
just before and just after it.  The probes are the benchmark's own code,
so no change to kax moves them.  The raw times are still reported, in the
detail line.
"""

from __future__ import annotations

import os
import sys
import time

PROBE_REF_S = 0.007  # probe time at the reference speed
SPAWN_PROBE_REF_S = 0.060  # spawn_probe time at the reference speed
PROBE_EVERY_S = 0.5
HERE = os.path.dirname(os.path.abspath(__file__))


def probe() -> float:
    """Seconds taken by a fixed mix of integer, tuple, dict and call work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(30000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + (i * i) % 97
        acc += len((key, i, acc & 255))
    return time.perf_counter() - t0


def spawn_probe() -> float:
    """Seconds for a fresh interpreter to import this module and run probe().

    The cli workload's ops are fresh processes, whose cost follows process
    start-up more than in-process Python speed, so they are scaled by this.
    """
    import subprocess  # here, so workers do not pay for it in their set-up

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import speed; speed.probe()"], cwd=HERE, check=True)
    return time.perf_counter() - t0


class Scaler:
    """Collects op times and scales them by the probes around them."""

    def __init__(self, enabled: bool, spawn: bool = False):
        self.enabled = enabled
        self._probe, self._ref = (spawn_probe, SPAWN_PROBE_REF_S) if spawn else (probe, PROBE_REF_S)
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self._pending: list[float] = []
        self._last = self._probe() if enabled else 0.0
        self._at = time.perf_counter()

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._pending.append(seconds)

    def between_ops(self) -> None:
        if not self.enabled:
            self.scaled.extend(self._pending)
            self._pending.clear()
        elif time.perf_counter() - self._at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.enabled:
            self.between_ops()
            return
        now = self._probe()
        factor = self._ref / ((self._last + now) / 2)
        self.factors.append(factor)
        self.scaled.extend(t * factor for t in self._pending)
        self._pending.clear()
        self._last = now
        self._at = time.perf_counter()
