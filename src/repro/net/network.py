"""The network facade: overlay + per-peer storage + traffic accounting.

:class:`P2PNetwork` is the substrate the global index runs on.  It exposes
DHT-style primitives — merge-insert, lookup, notify — and passes every
simulated message through one funnel, :meth:`P2PNetwork._send`: it
validates the message's fields (kind, ends, postings, hops) and counts
them into the shared :class:`TrafficAccounting` — simulated time is
counted (hops, messages), never slept.  No message object is built; the
key a message concerns is formatted only when a trace records the
message as a ``net.msg`` span.
A flat lookup's request and response go through the funnel as one
exchange (one accounting call).  Higher layers never touch counters
directly.

Which phase a message counts under is not the network's choice: the
operation that sent it opened a charge
(:meth:`TrafficAccounting.charge`) where it started.  The network opens
MAINTENANCE charges of its own only around what it sends unasked — key
handoffs on churn (join/leave) and :meth:`P2PNetwork.log_maintenance` —
which the paper's analysis reports separately from indexing/retrieval
postings.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, runtime_checkable

from ..errors import NetworkError, PeerNotFoundError
from ..obs.trace import get_tracer
from .accounting import Phase, TrafficAccounting
from .chord import ChordOverlay, Overlay
from .messages import MessageKind
from .node_id import canonical_term_set, hash_to_id, key_repr, peer_id_for
from .storage import PeerStorage

__all__ = ["MembershipEvent", "P2PNetwork", "RoutingPolicy"]


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change, with *which kind* it was.

    Crash and churn are different failure models: ``leave`` (graceful
    churn) hands the departing peer's keys to its inheritor, while
    ``crash`` destroys them — and overlay/replication hooks need to
    observe which occurred (a crash must drop stale replica state; a
    leave must not).

    Attributes:
        kind: ``"join"``, ``"leave"``, ``"crash"``, or ``"respawn"``.
        peer_name: the affected peer's registered name.
        peer_id: the affected peer's overlay id.
    """

    kind: str
    peer_name: str
    peer_id: int


@runtime_checkable
class RoutingPolicy(Protocol):
    """Hop-level routing hook installed on a :class:`P2PNetwork`.

    The flat network routes every message along the structured overlay
    (``overlay.route_hops``).  A routing policy replaces that *path*
    without touching *responsibility*: storage placement still follows
    ``overlay.responsible_peer``, so results are identical — only hop
    counts, message shapes, and mid-path answering (in-network caches,
    summaries) change.  Install by assigning ``network.router``; the
    super-peer hierarchy (:class:`repro.overlay.HierarchicalRouter`) is
    the shipped implementation.
    """

    def route_lookup(
        self,
        network: "P2PNetwork",
        source_id: int,
        key: Any,
        key_id: int,
        response_size: Callable[[Any | None], int],
    ) -> Any | None:
        """Execute one lookup end to end: log the routed request and
        response messages and return the value (which the policy may
        serve from a mid-path cache instead of the responsible peer)."""
        ...

    def path_hops(self, source_id: int, key_id: int) -> int:
        """Routed hop count from ``source_id`` to the peer responsible
        for ``key_id`` (used for insert / stats-publication messages)."""
        ...

    def on_insert(self, key: Any, key_id: int) -> None:
        """Called after an insert is applied at the responsible peer
        (freshness hook: invalidate mid-path caches, update summaries)."""
        ...

    def on_membership_change(
        self, event: MembershipEvent | None = None
    ) -> None:
        """Called after the peer population changed (re-cluster, rebuild
        routing state).  ``event`` says what happened — join, leave,
        crash, or respawn; ``None`` means a coalesced batch of changes
        (see :meth:`P2PNetwork.membership_batch`)."""
        ...


class P2PNetwork:
    """A simulated structured P2P network.

    Args:
        overlay: an :class:`Overlay` implementation (Chord by default;
            pass a :class:`repro.net.pgrid.PGridOverlay` for the paper's
            P-Grid substrate).
        accounting: shared traffic counters; created when omitted.
    """

    def __init__(
        self,
        overlay: Overlay | None = None,
        accounting: TrafficAccounting | None = None,
    ) -> None:
        self.overlay: Overlay = overlay if overlay is not None else ChordOverlay()
        self.accounting = accounting or TrafficAccounting()
        #: Optional hop-level routing hook (see :class:`RoutingPolicy`).
        #: ``None`` routes every message along the structured overlay.
        self.router: RoutingPolicy | None = None
        #: Optional replication manager (see :mod:`repro.replication`).
        #: ``None`` keeps the network byte-identical to the unreplicated
        #: stack: one owner per key, no fan-out, no failover probes.
        self.replication: Any | None = None
        self._storage: dict[int, PeerStorage] = {}
        self._names: dict[str, int] = {}
        # Membership-batch state: depth of open membership_batch()
        # scopes and whether a join/leave happened inside one.
        self._membership_batch_depth = 0
        self._membership_changed_in_batch = False

    def _send(
        self,
        kind: MessageKind,
        source: int,
        destination: int,
        postings: int,
        hops: int,
        key: Any = None,
        route: str | None = None,
        reply: int | None = None,
    ) -> None:
        """The one funnel every simulated message goes through: check
        its fields and count them.

        ``key`` is the logical key the message concerns (or a label for
        keyless transfers) and ``route`` the path a routing policy took;
        both are trace-only.  ``reply``, when given, is the receiver's
        one-hop RESPONSE carrying that many postings back to ``source``
        — a lookup's request and answer counted in one accounting call.

        When a trace is in flight (tracing enabled, or an enabled
        caller's span is active in this context) each message becomes a
        ``net.msg`` span containing one ``net.hop`` child per accounted
        hop, so a trace's ``net.hop`` count equals the
        :class:`TrafficAccounting` hop total of the traced operation.

        Raises:
            ValueError: a negative posting count or hop count.
        """
        if postings < 0:
            raise ValueError(f"postings must be >= 0, got {postings}")
        if reply is not None and reply < 0:
            raise ValueError(f"reply postings must be >= 0, got {reply}")
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        self.accounting.record(kind, postings, hops, reply)
        tracer = get_tracer()
        if tracer.active:
            phase = self.accounting.phase.value
            label = None if key is None else key_repr(key)
            self._send_traced(
                tracer, phase, kind, source, destination, postings, hops,
                label, route,
            )
            if reply is not None:
                self._send_traced(
                    tracer, phase, MessageKind.RESPONSE, destination,
                    source, reply, 1, label, route,
                )

    def _send_traced(
        self,
        tracer: Any,
        phase: str,
        kind: MessageKind,
        source: int,
        destination: int,
        postings: int,
        hops: int,
        label: str | None,
        route: str | None,
    ) -> None:
        attrs: dict[str, object] = {
            "kind": kind.name,
            "phase": phase,
            "source": source,
            "destination": destination,
            "postings": postings,
            "hops": hops,
        }
        if route:
            attrs["route"] = route
        if label:
            attrs["key"] = label
        with tracer.span("net.msg", **attrs):
            for hop in range(hops):
                with tracer.span("net.hop", index=hop):
                    pass

    def log_message(
        self,
        kind: MessageKind,
        source: int,
        destination: int,
        postings: int = 0,
        hops: int = 1,
        key: Any = None,
        route: str | None = None,
    ) -> None:
        """Log one protocol message into the traffic accounting.

        The public form of :meth:`_send` for layers that route messages
        themselves (a :class:`RoutingPolicy`, the super-peer topology's
        maintenance protocol) instead of going through the insert/lookup
        primitives.  ``key`` and ``route`` are trace-only attribution
        (the key the message concerns; which path the policy took, e.g.
        ``"path_cache"`` or ``"leaf->sp->owner"``) and never affect
        accounting.
        """
        self._send(kind, source, destination, postings, hops, key, route)

    def log_maintenance(
        self,
        kind: MessageKind,
        source: int,
        destination: int,
        postings: int = 0,
        hops: int = 1,
        key: Any = None,
        route: str | None = None,
    ) -> None:
        """Log one overlay-maintenance message under the MAINTENANCE
        phase, whatever the operation that fired it.

        The hook the adaptive overlay's split/merge protocol and scoped
        repair fan-outs go through: those fire from inside query or
        insert handling, charged to RETRIEVAL or INDEXING, but the
        paper's analysis reports maintenance separately — so each
        message gets a MAINTENANCE charge of its own, nested in (and
        folded into) the operation's.
        """
        with self.accounting.charge(Phase.MAINTENANCE):
            self._send(kind, source, destination, postings, hops, key, route)

    def _route_hops(self, source_id: int, key_id: int) -> int:
        """Routed hops from ``source_id`` to the responsible peer —
        through the installed router when present, the overlay walk
        otherwise."""
        if self.router is not None:
            return self.router.path_hops(source_id, key_id)
        return self.overlay.route_hops(source_id, key_id)

    # -- membership ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._storage)

    def peer_ids(self) -> list[int]:
        """Overlay ids of all current peers."""
        return self.overlay.peer_ids()

    def peer_names(self) -> list[str]:
        """Registered peer names, in registration order."""
        return list(self._names)

    def id_of(self, peer_name: str) -> int:
        """Overlay id of a registered peer name."""
        try:
            return self._names[peer_name]
        except KeyError:
            raise PeerNotFoundError(
                f"peer name {peer_name!r} not registered"
            ) from None

    def add_peer(self, peer_name: str) -> int:
        """Add a named peer; performs key handoff from the peer that
        previously covered the joiner's region.

        Returns the new peer's overlay id.
        """
        if peer_name in self._names:
            raise NetworkError(f"peer name {peer_name!r} already registered")
        peer_id = peer_id_for(peer_name)
        if peer_id in self._storage:
            raise NetworkError(
                f"peer id collision for {peer_name!r}; rename the peer"
            )
        handoff_source = self.overlay.add_peer(peer_id)
        self._storage[peer_id] = PeerStorage(peer_id)
        self._names[peer_name] = peer_id
        if handoff_source != peer_id:
            self._handoff_on_join(handoff_source, peer_id)
        self._notify_membership_change(
            MembershipEvent("join", peer_name, peer_id)
        )
        return peer_id

    def remove_peer(self, peer_name: str) -> None:
        """Remove a named peer gracefully (*churn*, not crash): its keys
        are handed to the inheriting peer before it departs.  Removing a
        crashed peer skips the handoff — its storage is already gone."""
        peer_id = self.id_of(peer_name)
        inheritor = self.overlay.remove_peer(peer_id)
        storage = self._storage.pop(peer_id, None)
        del self._names[peer_name]
        if storage is not None and inheritor in self._storage:
            moved = list(storage)
            target_storage = self._storage[inheritor]
            postings = 0
            for entry in moved:
                target_storage.put(entry.key, entry.key_id, entry.value)
                postings += self._payload_size(entry.value)
            self._record_maintenance(peer_id, inheritor, postings)
        self._notify_membership_change(
            MembershipEvent("leave", peer_name, peer_id)
        )

    def kill_peer(self, peer_name: str) -> None:
        """Crash a named peer: its storage is destroyed *without* the
        graceful handoff :meth:`remove_peer` performs — the data a real
        node loses when its disk dies with it.  The peer stays in the
        overlay ring and keeps its name (the population hasn't agreed it
        left), so key responsibility is unchanged: without replication
        its range simply goes dark; with replication installed, reads
        fail over to the surviving replicas.  Revive with
        :meth:`respawn_peer`."""
        peer_id = self.id_of(peer_name)
        if peer_id not in self._storage:
            raise NetworkError(f"peer {peer_name!r} is already crashed")
        del self._storage[peer_id]
        if self.replication is not None:
            self.replication.on_peer_crashed(peer_id)
        self._notify_membership_change(
            MembershipEvent("crash", peer_name, peer_id)
        )

    def respawn_peer(self, peer_name: str) -> None:
        """Revive a crashed peer with *empty* storage (a fresh disk).
        It rejoins the replica sets it belongs to but holds nothing
        until anti-entropy repair re-converges it."""
        peer_id = self.id_of(peer_name)
        if peer_id in self._storage:
            raise NetworkError(f"peer {peer_name!r} is alive")
        self._storage[peer_id] = PeerStorage(peer_id)
        if self.replication is not None:
            self.replication.on_peer_respawned(peer_id)
        self._notify_membership_change(
            MembershipEvent("respawn", peer_name, peer_id)
        )

    def is_live(self, peer_id: int) -> bool:
        """Whether the peer currently holds storage (not crashed)."""
        return peer_id in self._storage

    def live_peer_ids(self) -> list[int]:
        """Overlay ids of the live (non-crashed) peers, ascending."""
        return sorted(self._storage)

    def _notify_membership_change(
        self, event: MembershipEvent | None = None
    ) -> None:
        """Tell the installed router the population changed — deferred
        to scope exit inside a :meth:`membership_batch` (the coalesced
        notification carries no single event)."""
        if self.router is None:
            return
        if self._membership_batch_depth > 0:
            self._membership_changed_in_batch = True
            return
        self.router.on_membership_change(event)

    @contextmanager
    def membership_batch(self) -> Iterator[None]:
        """Coalesce router membership notifications over a batch of
        joins/leaves into one ``on_membership_change`` at scope exit.

        A routed network rebuilds clusters, drops path caches, and
        rescans every storage into fresh summaries on each membership
        change; growing by k peers one notification at a time would pay
        that k times (and charge k rounds of maintenance messages) for
        routing state only the final population needs.  Key handoffs
        still run per join/leave — only the router rebuild is deferred.
        Nestable; no-op when no router is installed.
        """
        self._membership_batch_depth += 1
        try:
            yield
        finally:
            self._membership_batch_depth -= 1
            if (
                self._membership_batch_depth == 0
                and self._membership_changed_in_batch
            ):
                self._membership_changed_in_batch = False
                self._notify_membership_change()

    def _handoff_on_join(self, source_peer: int, new_peer: int) -> None:
        """Move entries now owned by ``new_peer`` out of ``source_peer``."""
        source_storage = self._storage.get(source_peer)
        if source_storage is None:
            # The previous owner of the joiner's region is crashed:
            # there is nothing to hand off (the range is dark until
            # anti-entropy repair or re-indexing repopulates it).
            return
        moved = source_storage.pop_range(
            lambda key_id: self.overlay.responsible_peer(key_id) == new_peer
        )
        new_storage = self._storage[new_peer]
        postings = 0
        for entry in moved:
            new_storage.put(entry.key, entry.key_id, entry.value)
            postings += self._payload_size(entry.value)
        self._record_maintenance(source_peer, new_peer, postings)

    def _record_maintenance(
        self, source: int, destination: int, postings: int
    ) -> None:
        with self.accounting.charge(Phase.MAINTENANCE):
            self._send(MessageKind.HANDOFF, source, destination, postings, 1)

    # -- DHT primitives ---------------------------------------------------------------

    def responsible_peer_for(self, key: Any) -> int:
        """Overlay id of the peer responsible for logical key ``key``."""
        return self.overlay.responsible_peer(self._key_id(key))

    def effective_owner(self, key_id: int) -> int | None:
        """The peer a read/write for ``key_id`` actually lands on: the
        first *live* replica in placement order.  Without a replication
        manager this is the responsible peer when live and ``None`` when
        it crashed (the range is dark); with one installed, crashes fail
        over to the next successor replica.  ``None`` means every owner
        is dead."""
        if self.replication is not None:
            return self.replication.effective_owner(key_id)
        owner = self.overlay.responsible_peer(key_id)
        return owner if owner in self._storage else None

    def insert(
        self,
        source_peer_name: str,
        key: Any,
        merge: Callable[[Any | None], Any],
        payload_postings: int,
    ) -> Any:
        """Route a merge-insert for ``key`` from the source peer.

        ``merge`` receives the currently stored value (or None) and returns
        the value to store.  ``payload_postings`` is the number of postings
        the insert message carries (local posting list size), which is what
        the paper's indexing-cost figures count.

        The operation is the composition of its two phases —
        :meth:`send_insert` (transmission: message logging) and
        :meth:`apply_insert` (the merge at the responsible peer).  The
        indexing pipeline drives the phases separately: a round's
        transmissions all run before its merges, which are applied in
        one deterministic order.

        Returns the merged stored value.
        """
        key_id = self.send_insert(source_peer_name, key, payload_postings)
        return self.apply_insert(key, merge, key_id=key_id)

    def send_insert(
        self,
        source_peer_name: str,
        key: Any,
        payload_postings: int,
    ) -> int:
        """Transmission phase of an insert: log the routed INSERT
        message.  Touches no storage; the insert completes when
        :meth:`apply_insert` runs its merge.  Returns the
        key's id, so the apply phase need not hash the key again."""
        source_id = self.id_of(source_peer_name)
        key_id = self._key_id(key)
        target_id = self.overlay.responsible_peer(key_id)
        hops = self._route_hops(source_id, key_id)
        self._send(
            MessageKind.INSERT, source_id, target_id, payload_postings,
            max(1, hops), key,
        )
        if self.replication is not None:
            # The primary forwards the op to the other replicas — one
            # direct REPLICA_WRITE per backup, logged in the send phase
            # so the parallel pipeline's transmission/merge split stays
            # deterministic.
            self.replication.send_replica_writes(
                self, target_id, key_id, payload_postings, key=key
            )
        return key_id

    def apply_insert(
        self,
        key: Any,
        merge: Callable[[Any | None], Any],
        origin: int | None = None,
        key_id: int | None = None,
    ) -> Any:
        """Application phase of an insert: run ``merge`` against the
        stored value at the responsible peer (no message is logged — the
        transmission was paid by :meth:`send_insert`).  Merge order is
        what the index's contents depend on, so callers that stage a
        round's sends first must apply them in a deterministic order.

        ``origin`` is the inserting peer's overlay id; with replication
        installed it tags the op with a per-origin sequence number so
        replicas can discard redeliveries (idempotence), and the merge
        is applied independently at *every* live replica.  Without
        replication a write whose responsible peer crashed is simply
        lost (``merge(None)`` is still evaluated so the caller observes
        the value the acknowledgement would have carried).  ``key_id``
        is the id :meth:`send_insert` returned for ``key`` (derived here
        when omitted)."""
        if key_id is None:
            key_id = self._key_id(key)
        if self.replication is not None:
            merged = self.replication.apply_write(
                self, key, key_id, merge, origin=origin
            )
        else:
            target_id = self.overlay.responsible_peer(key_id)
            storage = self._storage.get(target_id)
            if storage is None:
                # Crashed owner, no replicas: the write is lost.
                merged = merge(None)
            else:
                merged = storage.update(key, key_id, merge)
        if self.router is not None:
            # After the write, so a racing lookup can never re-cache the
            # superseded value past this invalidation.
            self.router.on_insert(key, key_id)
        return merged

    def lookup(
        self,
        source_peer_name: str,
        key: Any,
        response_size: Callable[[Any | None], int],
    ) -> Any | None:
        """Route a lookup for ``key``; returns the stored value or None.

        Two messages are logged, as one exchange: the request (no
        postings) and the response carrying ``response_size(value)``
        postings back to the requester — the quantity Figure 6 plots per
        query.  With a :class:`RoutingPolicy` installed the whole lookup
        is delegated to it (hierarchical paths, mid-path cache answers);
        the returned value is identical either way because
        responsibility and storage are untouched by routing.
        """
        source_id = self.id_of(source_peer_name)
        key_id = self._key_id(key)
        if self.router is not None:
            return self.router.route_lookup(
                self, source_id, key, key_id, response_size
            )
        target_id = self.overlay.responsible_peer(key_id)
        hops = self.overlay.route_hops(source_id, key_id)
        # A crashed owner answers nothing; an empty RESPONSE stands in
        # for the requester's timeout (unreplicated crash semantics —
        # with replication installed the failover router takes over
        # before this path runs).
        value = self.value_at(target_id, key)
        self._send(
            MessageKind.LOOKUP, source_id, target_id, 0, max(1, hops), key,
            "flat", reply=response_size(value),
        )
        return value

    def notify(
        self,
        source_peer_id: int,
        target_peer_name_id: int,
        key: Any = None,
    ) -> None:
        """Log an NDK notification message (no posting payload)."""
        self._send(
            MessageKind.NDK_NOTIFY, source_peer_id, target_peer_name_id, 0,
            1, key,
        )

    def transfer(
        self,
        source_peer_name: str,
        destination_peer_name: str,
        postings: int,
        kind: MessageKind = MessageKind.RESPONSE,
        key: Any = None,
    ) -> None:
        """Log a direct peer-to-peer payload transfer.

        Used by protocols that exchange data outside the insert/lookup
        primitives — e.g. the Bloom-filter baseline shipping a filter
        (expressed in posting equivalents) between the peers responsible
        for two query terms.
        """
        source_id = self.id_of(source_peer_name)
        destination_id = self.id_of(destination_peer_name)
        # Direct transfer: the peers already know each other's addresses
        # from the preceding lookup, so no overlay routing is involved.
        self._send(
            kind, source_id, destination_id, postings,
            0 if source_id == destination_id else 1, key,
        )

    def publish_stats(
        self, source_peer_name: str, key: Any, postings: int = 0
    ) -> None:
        """Log a statistics-publication message (ranking metadata)."""
        source_id = self.id_of(source_peer_name)
        key_id = self._key_id(key)
        target_id = self.overlay.responsible_peer(key_id)
        hops = self._route_hops(source_id, key_id)
        self._send(
            MessageKind.STATS_PUBLISH, source_id, target_id, postings,
            max(1, hops),
        )
        if self.replication is not None:
            # Statistics publications replicate like inserts: the stats
            # peer forwards to its backups (metadata-sized, version-
            # vector LWW merged at each replica).
            self.replication.send_replica_writes(
                self, target_id, key_id, postings, origin=source_id
            )

    # -- storage inspection -------------------------------------------------------------

    def storage_of(self, peer_name: str) -> PeerStorage:
        """The storage of a named peer (for inspection and figures).

        Raises:
            PeerNotFoundError: unknown name or crashed peer.
        """
        return self.storage_by_id(self.id_of(peer_name))

    def storage_by_id(self, peer_id: int) -> PeerStorage:
        """The storage of a peer by overlay id.

        Raises:
            PeerNotFoundError: unknown id or crashed peer.
        """
        try:
            return self._storage[peer_id]
        except KeyError:
            raise PeerNotFoundError(
                f"peer id {peer_id} not in the network (or crashed)"
            ) from None

    def value_at(self, peer_id: int, key: Any) -> Any | None:
        """What ``peer_id`` stores under ``key``; ``None`` when nothing,
        or when the peer is crashed — a read aimed at a peer that died
        after it was picked gets no data instead of failing the query."""
        storage = self._storage.get(peer_id)
        return storage.get(key) if storage is not None else None

    def storages(self) -> Iterator[PeerStorage]:
        """Iterate over every peer's storage."""
        return iter(self._storage.values())

    def stored_entry_count(self) -> int:
        """Total entries stored network-wide."""
        return sum(len(storage) for storage in self._storage.values())

    def stored_value_total(self, size_of: Callable[[Any], int]) -> int:
        """Sum ``size_of`` over every stored value network-wide (e.g.
        total postings stored, for Figure 3)."""
        return sum(
            storage.total_value_size(size_of)
            for storage in self._storage.values()
        )

    # -- internals -----------------------------------------------------------------------

    def key_id(self, key: Any) -> int:
        """Public form of the key-hashing rule (snapshot loaders place
        entries directly into storages and need the id the network would
        assign)."""
        return self._key_id(key)

    @staticmethod
    def _key_id(key: Any) -> int:
        """Hash a logical key into the overlay id space.

        Logical keys are either strings or frozensets of strings (term
        sets); the canonical form sorts the terms so the id is
        order-independent.
        """
        if isinstance(key, str):
            canonical = key
        elif isinstance(key, frozenset):
            canonical = canonical_term_set(key)
        else:
            canonical = repr(key)
        return hash_to_id(canonical)

    @staticmethod
    def _payload_size(value: Any) -> int:
        """Posting count of a stored value, best effort (handoffs)."""
        size = getattr(value, "posting_count", None)
        if size is not None:
            return int(size() if callable(size) else size)
        try:
            return len(value)
        except TypeError:
            return 1
