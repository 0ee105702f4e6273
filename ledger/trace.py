"""Per-layer attribution from outside the program.

The benchmark wraps the public functions at each layer boundary with
timers (class-attribute wrappers, installed here and removed again), so
no file under ``src/`` changes.  One span per call: name, start, end and
the span that caused it.  A layer's self time is its span minus the part
its child spans cover.

Totals (calls, seconds, self seconds per span name) are kept for every
call; the raw spans are kept only while ``recording`` is on, because a
build makes millions of calls and a readable sample of the query path is
what the file under ``ledger/results/`` is for.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable

__all__ = ["TARGETS", "Totals", "Tracer"]

#: ``(module, owner class or None, attribute)``.  The span name is
#: ``Owner.attribute`` (or the bare function name).
TARGETS: tuple[tuple[str, str | None, str], ...] = (
    # text
    ("repro.retrieval.query", "QueryProcessor", "process"),
    # hdk
    ("repro.hdk.indexer", "PeerIndexer", "extract_statistics"),
    ("repro.hdk.indexer", "PeerIndexer", "extract_round"),
    # the cascade is a module function the pipeline imported by name
    ("repro.indexing.pipeline", None, "run_expansion_cascade"),
    # indexing
    ("repro.hdk.indexer", "PeerIndexer", "stage_round"),
    ("repro.hdk.indexer", "PeerIndexer", "apply_round"),
    ("repro.indexing.pipeline", "IndexingPipeline", "build"),
    ("repro.indexing.pipeline", "IndexingPipeline", "join"),
    # index
    ("repro.index.global_index", "GlobalKeyIndex", "stage_insert"),
    ("repro.index.global_index", "GlobalKeyIndex", "apply_staged"),
    ("repro.index.global_index", "GlobalKeyIndex", "lookup"),
    # net
    ("repro.net.chord", "ChordOverlay", "route_hops"),
    ("repro.net.accounting", "TrafficAccounting", "record"),
    ("repro.net.network", "P2PNetwork", "lookup"),
    ("repro.net.network", "P2PNetwork", "send_insert"),
    # retrieval
    ("repro.retrieval.hdk_engine", "HDKRetrievalEngine", "search"),
    ("repro.retrieval.ranking", "DistributedRanker", "rank"),
    # engine
    ("repro.engine.service", "SearchService", "search"),
    ("repro.engine.service", "SearchService", "save"),
    ("repro.engine.service", "SearchService", "load"),
    # store
    ("repro.store.store", "SegmentStore", "get_postings"),
    ("repro.store.store", "SegmentStore", "put"),
    ("repro.store.spill", "SpillingGlobalKeyIndex", "apply_staged"),
    # overlay
    ("repro.overlay.routing", "HierarchicalRouter", "route_lookup"),
    ("repro.overlay.routing", "HierarchicalRouter", "on_insert"),
    ("repro.overlay.routing", "HierarchicalRouter", "on_membership_change"),
    # replication
    ("repro.replication.failover", "ReplicaFailoverRouter", "route_lookup"),
    ("repro.replication.repair", "AntiEntropyRepairer", "run"),
)


class Totals(dict):
    """``span name -> [calls, seconds, self seconds]``."""

    def calls(self, name: str) -> int:
        return self.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, *names: str) -> float:
        return sum(self.get(name, (0, 0.0, 0.0))[2] for name in names)

    def add(self, other: "Totals") -> None:
        for name, (calls, seconds, own) in other.items():
            entry = self.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += own

    def minus(self, earlier: "Totals") -> "Totals":
        """What was recorded since ``earlier`` was taken."""
        delta = Totals()
        for name, (calls, seconds, own) in self.items():
            before = earlier.get(name, (0, 0.0, 0.0))
            delta[name] = [
                calls - before[0], seconds - before[1], own - before[2]
            ]
        return delta


class Tracer:
    """Installs the wrappers and accumulates what they see."""

    #: Raw spans kept per run; later ones still count into the totals.
    SPAN_CAP = 150_000

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[list[Any]] = []
        self.spans_dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, list[Any]]] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._installed:
            return
        for module_name, owner_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            name = (
                f"{owner_name}.{attribute}" if owner_name else attribute
            )
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    self._wrap(name, original.__func__)
                )
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def _state(self) -> tuple[dict[str, list[Any]], list[list[Any]]]:
        local = self._local
        try:
            return local.totals, local.stack
        except AttributeError:
            local.totals, local.stack = {}, []
            with self._lock:
                self._per_thread.append(local.totals)
            return local.totals, local.stack

    def _wrap(self, name: str, function: Callable[..., Any]) -> Any:
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            totals, stack = tracer._state()
            # frame: [seconds spent in child spans, index of own raw span]
            frame = [0.0, -1]
            if tracer.recording:
                if len(tracer.spans) < tracer.SPAN_CAP:
                    frame[1] = len(tracer.spans)
                    parent = stack[-1][1] if stack else -1
                    tracer.spans.append([name, 0.0, 0.0, parent])
                else:
                    tracer.spans_dropped += 1
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if frame[1] >= 0:
                    span = tracer.spans[frame[1]]
                    span[1], span[2] = start, end

        return traced

    # -- reading -------------------------------------------------------------

    def totals(self) -> Totals:
        """Everything recorded so far, summed over threads."""
        merged = Totals()
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            merged.add(Totals(table))
        return merged

    def span_dump(self) -> dict[str, Any]:
        """The raw spans as plain data (``parent`` indexes ``spans``;
        ``-1`` marks a root)."""
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "dropped": self.spans_dropped,
        }
