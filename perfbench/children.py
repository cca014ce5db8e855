"""Every process the benchmark starts has ended before the benchmark does.

:func:`adopt_orphans` makes this process a child subreaper (Linux
``PR_SET_CHILD_SUBREAPER``): a process whose parent dies — a server's
pool worker or resource tracker, say — is re-parented to the benchmark
instead of to init.  :func:`reap_all`, run on every way out of
``run.py``, then stops the multiprocessing resource tracker (which
ignores SIGTERM and would otherwise outlive us by design), signals
every child left, and waits for each; with the subreaper set, no
children left means no descendants left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path
from typing import List

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become a child subreaper; returns whether the kernel agreed."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # ended meanwhile
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe so it exits, and wait for it."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError, OSError):
        pass  # never started, or already gone: the loop below handles it


def _reap_exited() -> bool:
    """Collect every exited child; returns False once there are no children."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def reap_all(grace: float = 5.0) -> None:
    """SIGTERM every child, SIGKILL after ``grace`` seconds, wait for all."""
    _stop_resource_tracker()
    deadline = time.monotonic() + grace
    terminated = set()
    while _reap_exited():
        hard = time.monotonic() >= deadline
        for pid in children():
            if hard or pid not in terminated:
                try:
                    os.kill(pid, signal.SIGKILL if hard else signal.SIGTERM)
                except ProcessLookupError:
                    pass
                terminated.add(pid)
        time.sleep(0.01)
