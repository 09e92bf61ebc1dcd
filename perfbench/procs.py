"""Every process the benchmark starts ends before the benchmark does.

Ray's ``ray.shutdown()`` stops the GCS and raylet it started, but the
worker and agent processes the raylet spawned exit on their own once
they notice it is gone, after the driver may already have returned.
``adopt_orphans`` makes this process a child subreaper (Linux
``prctl(PR_SET_CHILD_SUBREAPER)``), so such orphans are re-parented to it
instead of to init; ``reap_descendants`` then waits for each of them,
terminating the ones that do not leave in time.
"""

from __future__ import annotations

import ctypes
import logging
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36

log = logging.getLogger("perfbench")


def adopt_orphans() -> None:
    """Re-parent orphaned descendants to this process, and exit on SIGTERM."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        log.warning("prctl(PR_SET_CHILD_SUBREAPER) failed: errno %d", ctypes.get_errno())
    exit_on_sigterm()


def _exit(signum, _frame):
    raise SystemExit(128 + signum)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``finally`` blocks stop Ray and
    reap on that path too. Ray's driver replaces the handler and leaves
    the signal at its default (die at once) after ``ray.shutdown()``, so
    this runs again after every ``ray.init`` and ``ray.shutdown``."""
    signal.signal(signal.SIGTERM, _exit)


def _parents() -> dict[int, int]:
    """pid -> parent pid of every process in /proc."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:  # the process ended while we looked
            continue
        # the command name (field 2) may hold spaces; fields after it do not
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(pid: int | None = None) -> list[int]:
    """Every live or unreaped process below ``pid`` (default: this one)."""
    root = os.getpid() if pid is None else pid
    kids: dict[int, list[int]] = {}
    for p, pp in _parents().items():
        kids.setdefault(pp, []).append(p)
    out, todo = [], list(kids.get(root, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _reap_children() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _signal(pids: list[int], sig: int) -> None:
    for p in pids:
        try:
            os.kill(p, sig)
        except ProcessLookupError:
            pass


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()[:120]
    except OSError:
        return "?"


def reap_descendants(grace_s: float = 5.0, term_s: float = 5.0) -> list[int]:
    """Wait until no process below this one is left: ``grace_s`` for them
    to exit by themselves, then SIGTERM, then after ``term_s`` SIGKILL.
    Returns what is still left after a further ``term_s`` (normally
    nothing: a killed process always ends)."""
    t0 = time.monotonic()
    sent = None
    while True:
        _reap_children()
        left = descendants()
        waited = time.monotonic() - t0
        if not left or waited > grace_s + 2 * term_s:
            if left:
                log.error("processes left running: %s", [(p, _cmdline(p)) for p in left])
            return left
        if sent is None and waited > grace_s:
            log.warning("terminating leftover processes: %s", [(p, _cmdline(p)) for p in left])
            _signal(left, signal.SIGTERM)
            sent = signal.SIGTERM
        elif sent == signal.SIGTERM and waited > grace_s + term_s:
            _signal(left, signal.SIGKILL)
            sent = signal.SIGKILL
        time.sleep(0.02)
