"""No process outlives the run that started it.

``repro serve`` starts a worker and, through ``multiprocessing``, a
resource tracker; neither is a child of the benchmark, so when the gateway
exits they are handed to init, where this process can neither wait for
them nor know when init has reaped them.  A run therefore first makes
itself the *subreaper* of its descendants (:func:`adopt_orphans`): an
orphan is handed to the benchmark instead, and :func:`reap_group` and
:func:`reap_all` wait until each has really ended.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36

#: How long the ``/proc`` fallback waits for a process to disappear.
_GONE_TIMEOUT_S = 10.0


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stat_fields(pid: int) -> list[str] | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None  # ended while we were looking
    # The command name (field 2) may hold spaces: split after its ")".
    return stat.rsplit(")", 1)[1].split()


def _pids_where(field: int, value: int) -> list[int]:
    """Pids whose ``/proc/<pid>/stat`` field (1 = ppid, 2 = pgrp) is ``value``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[field]) == value:
                found.append(int(entry))
    return found


def children() -> list[int]:
    return _pids_where(1, os.getpid())


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_group(pgid: int) -> None:
    """Kill what is left of process group ``pgid`` and wait until every
    member has ended.  Call it once the group's leader has been waited
    for: by then its orphans are children of this process."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            break
    # Members that were not handed to us (no subreaper on this kernel).
    deadline = time.monotonic() + _GONE_TIMEOUT_S
    while _pids_where(2, pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def reap_all() -> None:
    """The last thing a run does: end and wait for every process that is
    still a child of this one, and for those it hands over as it dies."""
    try:
        # multiprocessing's resource tracker (started by an in-process
        # WorkerPool) ends by itself once its pipe closes; ask it to.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:
        pass  # not started, or no such hook: the sweep below ends it
    while True:
        for pid in children():
            _kill(pid)
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return
