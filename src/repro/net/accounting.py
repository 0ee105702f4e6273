"""Traffic accounting.

Mirrors the paper's cost model: the dominant cost is the number of
*postings* transmitted through the network, tracked separately for the
indexing and retrieval phases (Figures 4 and 6).  Message and hop counts
are also kept for overlay diagnostics, and maintenance traffic (key
handoffs on churn) is tracked but reported separately, exactly as the paper
excludes it from its analysis.

Attribution: an operation names its phase once, where it starts, by
opening a *charge* (:meth:`TrafficAccounting.charge`).  Open charges
form a stack on the accounting object: one caller drives a service (and
its network) at a time, so the innermost open charge is the operation
in progress.  Charges nest: the innermost names the phase, and a
closing charge folds its count into the enclosing one — a MAINTENANCE
fan-out fired inside a query is MAINTENANCE traffic *of that query*.  A
message sent outside any charge counts as INDEXING; every message also
counts into the totals (:meth:`TrafficAccounting.snapshot`).

Representation: totals and charges accumulate into flat lists of integer
cells — ``[messages, postings, hops]`` per ``(Phase, MessageKind)`` pair,
indexed by the members' ordinals — so recording is three list increments
and no enum hashing.  :meth:`TrafficAccounting.record` takes a message's
fields, not a message object, and is the only writer of cells; a lookup's
request and its one-hop response are counted in one call (one charge
read).  :class:`TrafficSnapshot` dicts are built from the cells when
read; a phase or kind is a key there exactly when a message of it was
recorded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import add

from .messages import MessageKind

__all__ = [
    "Charge",
    "Phase",
    "TrafficAccounting",
    "TrafficSnapshot",
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


_UNCHARGED_BASE = Phase.INDEXING.ordinal * _STRIDE  # outside any charge


class Charge:
    """One operation's traffic, opened by :meth:`TrafficAccounting.charge`.

    A context manager: while open it is the innermost charge of its
    accounting, and every message recorded meanwhile counts into it
    under :attr:`phase`.  On close it folds what it counted into the
    enclosing charge, if one is open.  :meth:`snapshot` reads what it
    counted, open or closed.
    """

    __slots__ = ("phase", "_accounting", "_base", "_cells")

    def __init__(self, accounting: "TrafficAccounting", phase: Phase) -> None:
        if not isinstance(phase, Phase):
            raise TypeError(f"expected Phase, got {type(phase).__name__}")
        self.phase = phase
        self._accounting = accounting
        self._base = phase.ordinal * _STRIDE
        self._cells = _new_cells()

    def __enter__(self) -> "Charge":
        self._accounting._charges.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        charges = self._accounting._charges
        charges.pop()
        if charges:
            outer = charges[-1]
            outer._cells[:] = map(add, outer._cells, self._cells)

    def snapshot(self) -> TrafficSnapshot:
        """The traffic counted so far (all of it, once closed)."""
        return TrafficSnapshot._from_cells(self._cells)


class TrafficAccounting:
    """Counters fed by the network simulator through :meth:`record`:
    the totals count every message, a :meth:`charge` one operation's."""

    def __init__(self) -> None:
        self._cells = _new_cells()
        #: The open charges, innermost last.
        self._charges: list[Charge] = []

    def charge(self, phase: Phase) -> Charge:
        """Charge the messages recorded inside the block to ``phase``
        and to the returned :class:`Charge`::

            with accounting.charge(Phase.RETRIEVAL) as charge:
                engine.search(...)
            print(charge.snapshot().retrieval_postings)
        """
        return Charge(self, phase)

    @property
    def phase(self) -> Phase:
        """The phase a message recorded now counts under: the innermost
        open charge's, INDEXING outside any."""
        charges = self._charges
        return charges[-1].phase if charges else Phase.INDEXING

    # -- recording ------------------------------------------------------------

    def record(
        self,
        kind: MessageKind,
        postings: int,
        hops: int,
        reply: int | None = None,
    ) -> None:
        """Count one message of ``kind`` carrying ``postings`` over
        ``hops`` into the totals and the innermost open charge.

        ``reply``, when given, also counts the receiver's one-hop
        RESPONSE carrying that many postings back — a flat lookup's
        request and answer accounted as one exchange.  Callers validate
        the fields (:meth:`repro.net.network.P2PNetwork._send`)."""
        charges = self._charges
        charge = charges[-1] if charges else None
        base = _UNCHARGED_BASE if charge is None else charge._base
        cell = base + 3 * kind.ordinal
        reply_cell = base + _RESPONSE_CELL
        _add(self._cells, cell, postings, hops, reply_cell, reply)
        if charge is not None:
            _add(charge._cells, cell, postings, hops, reply_cell, reply)

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> TrafficSnapshot:
        """Return an immutable copy of the totals."""
        return TrafficSnapshot._from_cells(self._cells)

    def _phase_total(self, phase: Phase, field: int) -> int:
        """Sum cell ``field`` (0 messages, 1 postings, 2 hops) over the
        kinds of ``phase``."""
        start = phase.ordinal * _STRIDE + field
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
        """Zero the totals (open charges keep what they counted)."""
        self._cells = _new_cells()


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
    charges — e.g. a peer's per-stage indexing charges, opened round by
    round — or a batch's out of its queries'.
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
