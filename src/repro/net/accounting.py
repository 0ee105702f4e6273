"""Traffic accounting.

Mirrors the paper's cost model: the dominant cost is the number of
*postings* transmitted through the network, tracked separately for the
indexing and retrieval phases (Figures 4 and 6).  Message and hop counts
are also kept for overlay diagnostics, and maintenance traffic (key
handoffs on churn) is tracked but reported separately, exactly as the paper
excludes it from its analysis.

Concurrency model: the accounting object is shared by every thread that
touches the network, so the global counters are guarded by a lock and
measurement windows *accumulate* messages as they are recorded instead of
diffing global snapshots (a snapshot diff taken around one query would
absorb every message other threads recorded in the meantime).  A window is
opened with a scope:

- ``scope="thread"`` — the window only sees messages recorded *by the
  thread that opened it*.  This is what makes per-query traffic windows
  exact while other threads use the network: concurrent ``search``
  callers, or a join running beside searches — each thread accumulates
  only its own messages.
- ``scope="global"`` — the window sees messages recorded by *every*
  thread (batch-level aggregates, experiment-level measurements).

Either scope aggregates into the same global totals; closing a window
freezes its delta.

Representation: totals and windows accumulate into flat lists of integer
cells — ``[messages, postings, hops]`` per ``(Phase, MessageKind)`` pair,
indexed by the members' ordinals — so recording is three list increments
and no enum hashing.  :meth:`TrafficAccounting.record` takes a message's
fields, not a message object, and is the only writer of cells; a lookup's
request and its one-hop response are counted in one call (one lock, one
phase read).  :class:`TrafficSnapshot` dicts are built from the cells
when read; a phase or kind is a key there exactly when a message of it
was recorded.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterator

from .messages import MessageKind

__all__ = [
    "Phase",
    "TrafficAccounting",
    "TrafficSnapshot",
    "TrafficWindow",
    "diff_snapshots",
    "empty_snapshot",
    "merge_snapshots",
]


class Phase(Enum):
    """The protocol phase a message belongs to."""

    INDEXING = "indexing"
    RETRIEVAL = "retrieval"
    MAINTENANCE = "maintenance"

    def __init__(self, _value: str) -> None:
        #: Dense 0-based index (see :attr:`MessageKind.ordinal`).
        self.ordinal = len(type(self).__members__)


#: The (phase, kind) pair of each ``[messages, postings, hops]`` cell
#: triple, phases outermost.
_CELL_KEYS = tuple((phase, kind) for phase in Phase for kind in MessageKind)
_KINDS = len(MessageKind)
_STRIDE = 3 * _KINDS  # cells of one phase
#: Offset of the RESPONSE triple inside one phase's cells.
_RESPONSE_CELL = 3 * MessageKind.RESPONSE.ordinal


def _new_cells() -> list[int]:
    return [0] * (3 * len(_CELL_KEYS))


def _add(
    cells: list[int],
    cell: int,
    postings: int,
    hops: int,
    reply_cell: int,
    reply: int | None,
) -> None:
    """Count one message at ``cell`` and, when ``reply`` is given, a
    one-hop response carrying ``reply`` postings at ``reply_cell``."""
    cells[cell] += 1
    cells[cell + 1] += postings
    cells[cell + 2] += hops
    if reply is not None:
        cells[reply_cell] += 1
        cells[reply_cell + 1] += reply
        cells[reply_cell + 2] += 1


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable view of the counters at one instant."""

    postings_by_phase: dict[Phase, int]
    messages_by_phase: dict[Phase, int]
    hops_by_phase: dict[Phase, int]
    messages_by_kind: dict[MessageKind, int]

    @classmethod
    def _from_cells(cls, cells: list[int]) -> "TrafficSnapshot":
        """Materialize the dicts; only pairs that saw a message
        contribute keys (a postings or hops value may still be 0)."""
        postings: dict[Phase, int] = {}
        messages: dict[Phase, int] = {}
        hops: dict[Phase, int] = {}
        by_kind: dict[MessageKind, int] = {}
        counts = cells[0::3]
        for index in compress(range(len(counts)), counts):
            count = counts[index]
            phase, kind = _CELL_KEYS[index]
            messages[phase] = messages.get(phase, 0) + count
            postings[phase] = postings.get(phase, 0) + cells[3 * index + 1]
            hops[phase] = hops.get(phase, 0) + cells[3 * index + 2]
            by_kind[kind] = by_kind.get(kind, 0) + count
        return cls(postings, messages, hops, by_kind)

    @property
    def indexing_postings(self) -> int:
        return self.postings_by_phase.get(Phase.INDEXING, 0)

    @property
    def retrieval_postings(self) -> int:
        return self.postings_by_phase.get(Phase.RETRIEVAL, 0)

    @property
    def maintenance_postings(self) -> int:
        return self.postings_by_phase.get(Phase.MAINTENANCE, 0)

    @property
    def total_postings(self) -> int:
        """All postings including maintenance (the paper's headline numbers
        exclude maintenance; reports show both)."""
        return sum(self.postings_by_phase.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_phase.values())

    @property
    def total_hops(self) -> int:
        return sum(self.hops_by_phase.values())

    def as_dict(self) -> dict[str, object]:
        """Plain-data view: string keys, int values — picklable without
        importing this module and JSON-serializable as-is (the shape
        service ``stats()`` ships across process and HTTP boundaries)."""
        return {
            "postings_by_phase": {
                phase.value: count
                for phase, count in sorted(
                    self.postings_by_phase.items(), key=lambda kv: kv[0].value
                )
            },
            "messages_by_phase": {
                phase.value: count
                for phase, count in sorted(
                    self.messages_by_phase.items(), key=lambda kv: kv[0].value
                )
            },
            "hops_by_phase": {
                phase.value: count
                for phase, count in sorted(
                    self.hops_by_phase.items(), key=lambda kv: kv[0].value
                )
            },
            "messages_by_kind": {
                kind.name.lower(): count
                for kind, count in sorted(
                    self.messages_by_kind.items(), key=lambda kv: kv[0].name
                )
            },
            "indexing_postings": self.indexing_postings,
            "retrieval_postings": self.retrieval_postings,
            "maintenance_postings": self.maintenance_postings,
            "total_postings": self.total_postings,
            "total_messages": self.total_messages,
            "total_hops": self.total_hops,
        }


class TrafficAccounting:
    """Mutable counters fed by the network simulator.

    The accounting object is shared: the network counts every message's
    fields into it, and experiments snapshot/diff it around the
    operations they measure.  All mutation goes through :meth:`record`,
    which is thread-safe; per-thread measurement windows (see
    :meth:`measure`) keep per-operation deltas exact even when several
    threads record concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells = _new_cells()
        self._current_phase = Phase.INDEXING
        #: Open windows fed by every thread's messages (under the lock).
        #: Weak references: the old snapshot-diff windows cost nothing
        #: when abandoned unclosed, so the accumulating kind must not
        #: regress that — a window nobody holds is collected and pruned
        #: on the next record() instead of taxing it forever.
        self._global_windows: list["weakref.ref[TrafficWindow]"] = []
        #: Per-thread state: open thread-scoped windows + phase override.
        self._local = threading.local()

    def _thread_windows(self) -> list["weakref.ref[TrafficWindow]"]:
        windows = getattr(self._local, "windows", None)
        if windows is None:
            windows = []
            self._local.windows = windows
        return windows

    @staticmethod
    def _absorb_into(
        refs: list["weakref.ref[TrafficWindow]"],
        cell: int,
        postings: int,
        hops: int,
        reply_cell: int,
        reply: int | None,
    ) -> None:
        """Add one recorded exchange to every live window in ``refs``,
        pruning refs whose window was abandoned without close()."""
        dead = False
        for ref in refs:
            window = ref()
            if window is None:
                dead = True
            else:
                _add(window._cells, cell, postings, hops, reply_cell, reply)
        if dead:
            refs[:] = [ref for ref in refs if ref() is not None]

    # -- phase control ---------------------------------------------------------

    @property
    def phase(self) -> Phase:
        """The phase newly logged messages are attributed to (the
        thread-local override from :meth:`phase_scope` wins)."""
        override = getattr(self._local, "phase_override", None)
        return override if override is not None else self._current_phase

    def set_phase(self, phase: Phase) -> None:
        """Switch the accounting phase (indexing/retrieval/maintenance)."""
        if not isinstance(phase, Phase):
            raise TypeError(f"expected Phase, got {type(phase).__name__}")
        self._current_phase = phase

    @contextmanager
    def phase_scope(self, phase: Phase) -> Iterator[None]:
        """Attribute messages recorded *by this thread* inside the block
        to ``phase``, without touching the shared phase other threads
        read (e.g. maintenance handoffs racing with retrieval queries).
        """
        if not isinstance(phase, Phase):
            raise TypeError(f"expected Phase, got {type(phase).__name__}")
        previous = getattr(self._local, "phase_override", None)
        self._local.phase_override = phase
        try:
            yield
        finally:
            self._local.phase_override = previous

    # -- recording ------------------------------------------------------------

    def record(
        self,
        kind: MessageKind,
        postings: int,
        hops: int,
        reply: int | None = None,
    ) -> None:
        """Count one message of ``kind`` carrying ``postings`` over
        ``hops`` under the current phase (thread-safe).

        ``reply``, when given, also counts the receiver's one-hop
        RESPONSE carrying that many postings back — a flat lookup's
        request and answer accounted as one exchange.  Callers validate
        the fields (:meth:`repro.net.network.P2PNetwork._send`)."""
        override = getattr(self._local, "phase_override", None)
        phase = self._current_phase if override is None else override
        base = phase.ordinal * _STRIDE
        cell = base + 3 * kind.ordinal
        reply_cell = base + _RESPONSE_CELL
        with self._lock:
            _add(self._cells, cell, postings, hops, reply_cell, reply)
            if self._global_windows:
                self._absorb_into(
                    self._global_windows, cell, postings, hops,
                    reply_cell, reply,
                )
        # Thread-scoped windows belong to this thread alone: no other
        # thread reads them while open, so no lock is needed.
        windows = getattr(self._local, "windows", None)
        if windows:
            self._absorb_into(
                windows, cell, postings, hops, reply_cell, reply
            )

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> TrafficSnapshot:
        """Return an immutable copy of all counters."""
        with self._lock:
            return TrafficSnapshot._from_cells(self._cells)

    def measure(self, scope: str = "global") -> "TrafficWindow":
        """Open a measurement window over these counters.

        Usable as a context manager::

            with accounting.measure() as window:
                engine.search(...)
            print(window.delta.retrieval_postings)

        ``window.delta`` is the per-phase traffic generated inside the
        window — the snapshot-diff idiom experiments previously spelled
        out by hand around every measured operation.

        Args:
            scope: ``"global"`` (default) accumulates messages recorded
                by every thread; ``"thread"`` accumulates only messages
                recorded by the calling thread, which keeps the delta
                exact when other threads record concurrently (per-query
                windows beside concurrent searches or a join).  A thread-scoped window
                must be closed by the thread that opened it.
        """
        return TrafficWindow(self, scope=scope)

    def _phase_total(self, phase: Phase, field: int) -> int:
        """Sum cell ``field`` (0 messages, 1 postings, 2 hops) over the
        kinds of ``phase``."""
        start = phase.ordinal * _STRIDE + field
        with self._lock:
            return sum(self._cells[start : start + _STRIDE : 3])

    def postings(self, phase: Phase) -> int:
        """Postings transmitted so far in ``phase``."""
        return self._phase_total(phase, 1)

    def messages(self, phase: Phase) -> int:
        """Messages sent so far in ``phase``."""
        return self._phase_total(phase, 0)

    def hops(self, phase: Phase) -> int:
        """Total overlay hops traversed so far in ``phase``."""
        return self._phase_total(phase, 2)

    def reset(self) -> None:
        """Zero every counter (the phase is preserved)."""
        with self._lock:
            self._cells = _new_cells()

    # -- window registry (called by TrafficWindow) ------------------------------

    def _attach(self, window: "TrafficWindow") -> None:
        ref = weakref.ref(window)
        if window.scope == "global":
            with self._lock:
                self._global_windows.append(ref)
        else:
            self._thread_windows().append(ref)

    def _detach(self, window: "TrafficWindow") -> None:
        def prune(refs: list["weakref.ref[TrafficWindow]"]) -> None:
            refs[:] = [
                ref for ref in refs
                if ref() is not None and ref() is not window
            ]

        if window.scope == "global":
            with self._lock:
                prune(self._global_windows)
        else:
            prune(self._thread_windows())


class TrafficWindow:
    """A live measurement window over a :class:`TrafficAccounting`.

    Accumulates every message recorded while open (all threads' messages
    for ``scope="global"``, only the opening thread's for
    ``scope="thread"``); :attr:`delta` reads the accumulated counters
    (frozen once the window is closed, so the delta is stable afterwards).
    """

    def __init__(
        self, accounting: TrafficAccounting, scope: str = "global"
    ) -> None:
        if scope not in ("global", "thread"):
            raise ValueError(
                f"scope must be 'global' or 'thread', got {scope!r}"
            )
        self._accounting = accounting
        self.scope = scope
        #: Written by :meth:`TrafficAccounting.record` — under the
        #: accounting lock for global-scoped windows, lock-free from the
        #: owning thread for thread-scoped ones.
        self._cells = _new_cells()
        self._frozen: TrafficSnapshot | None = None
        accounting._attach(self)

    def _materialize(self) -> TrafficSnapshot:
        return TrafficSnapshot._from_cells(self._cells)

    def __enter__(self) -> "TrafficWindow":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> TrafficSnapshot:
        """Freeze the window; returns the final delta."""
        if self._frozen is None:
            self._accounting._detach(self)
            if self.scope == "global":
                # Copy under the lock so a concurrent record() cannot
                # interleave with the freeze.
                with self._accounting._lock:
                    self._frozen = self._materialize()
            else:
                self._frozen = self._materialize()
        return self._frozen

    @property
    def delta(self) -> TrafficSnapshot:
        """Traffic accumulated since the window opened."""
        if self._frozen is not None:
            return self._frozen
        if self.scope == "global":
            with self._accounting._lock:
                return self._materialize()
        return self._materialize()


def empty_snapshot() -> TrafficSnapshot:
    """An all-zero snapshot (cache hits, unmeasured operations)."""
    return TrafficSnapshot(
        postings_by_phase={},
        messages_by_phase={},
        hops_by_phase={},
        messages_by_kind={},
    )


def merge_snapshots(*snapshots: TrafficSnapshot) -> TrafficSnapshot:
    """Sum every counter across ``snapshots``.

    Used to accumulate one logical operation's traffic out of several
    measurement windows — e.g. a peer's per-stage indexing windows,
    opened round by round.
    """
    postings: Counter[Phase] = Counter()
    messages: Counter[Phase] = Counter()
    hops: Counter[Phase] = Counter()
    by_kind: Counter[MessageKind] = Counter()
    for snapshot in snapshots:
        postings.update(snapshot.postings_by_phase)
        messages.update(snapshot.messages_by_phase)
        hops.update(snapshot.hops_by_phase)
        by_kind.update(snapshot.messages_by_kind)
    return TrafficSnapshot(
        postings_by_phase=dict(postings),
        messages_by_phase=dict(messages),
        hops_by_phase=dict(hops),
        messages_by_kind=dict(by_kind),
    )


def diff_snapshots(
    before: TrafficSnapshot, after: TrafficSnapshot
) -> TrafficSnapshot:
    """Return ``after - before`` for every counter (measurement windows)."""
    def sub(a: dict, b: dict) -> dict:
        return {k: a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}

    return TrafficSnapshot(
        postings_by_phase=sub(
            after.postings_by_phase, before.postings_by_phase
        ),
        messages_by_phase=sub(
            after.messages_by_phase, before.messages_by_phase
        ),
        hops_by_phase=sub(after.hops_by_phase, before.hops_by_phase),
        messages_by_kind=sub(after.messages_by_kind, before.messages_by_kind),
    )
