"""One kax request in a child process with a deadline and an address-space cap.

The limits are set in the child only (RLIMIT_AS through setrlimit after the
fork); nothing machine-wide changes.  The parent waits on a pidfd, kills the
child when the deadline passes, and reaps it with wait4 so the child's own
peak RSS is known.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass

DEADLINE_S = 2.5
MEMCAP_BYTES = 1 << 30


@dataclass
class Outcome:
    exit_code: int | None  # None when killed at the deadline
    stdout: bytes
    stderr: bytes
    elapsed: float
    maxrss_kb: int
    timed_out: bool


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMCAP_BYTES, MEMCAP_BYTES))


def _wait(pid: int, t0: float) -> tuple[int | None, float, int, bool]:
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], DEADLINE_S)
    finally:
        os.close(fd)
    elapsed = time.perf_counter() - t0
    timed_out = not ready
    if timed_out:
        os.kill(pid, signal.SIGKILL)
        elapsed = DEADLINE_S
    _, status, usage = os.wait4(pid, 0)
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return code, elapsed, usage.ru_maxrss, timed_out


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_subprocess(argv: list[str], env: dict, scratch: str) -> Outcome:
    """`python -m kax <argv>` as a fresh interpreter."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # child
            try:
                _cap_memory()
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.execve(sys.executable, [sys.executable, "-m", "kax", *argv], env)
            finally:
                os._exit(127)
        code, elapsed, rss, timed_out = _wait(pid, t0)
    return Outcome(code, _read(out_path), _read(err_path), elapsed, rss, timed_out)


def run_forked(argv: list[str], scratch: str, tracer=None, label: str = "") -> tuple[Outcome, dict | None]:
    """kax.cli.main(argv) in a forked child of this (already importing) process.

    With a tracer installed, the child writes its snapshot next to its output
    and the parent reads it back; a child killed at the deadline leaves none.
    """
    import json

    from kax import cli

    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    snap_path = os.path.join(scratch, "trace.json")
    if os.path.exists(snap_path):
        os.remove(snap_path)
    sys.stdout.flush()
    sys.stderr.flush()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # child
            code = 1
            frame = tracer.begin_op(label) if tracer is not None else None
            try:
                _cap_memory()
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    if tracer is not None:
                        tracer.end_op(frame)
                        with open(snap_path, "w") as fh:
                            json.dump(tracer.snapshot(), fh)
                finally:
                    os._exit(code)
        code, elapsed, rss, timed_out = _wait(pid, t0)
    snap = None
    if tracer is not None and os.path.exists(snap_path):
        with open(snap_path) as fh:
            snap = json.load(fh)
    return Outcome(code, _read(out_path), _read(err_path), elapsed, rss, timed_out), snap


FAIL_KINDS = ("deadline", "memcap", "traceback", "misclassified", "wrong_output")


def failure_kind(outcome: Outcome, usage_error_expected: bool) -> str:
    """Why a request that did not pass its check failed."""
    if outcome.timed_out:
        return "deadline"
    if b"MemoryError" in outcome.stderr:
        return "memcap"
    if b"Traceback (most recent call last)" in outcome.stderr:
        return "traceback"
    if outcome.exit_code == 2 and not usage_error_expected:
        return "misclassified"
    return "wrong_output"
