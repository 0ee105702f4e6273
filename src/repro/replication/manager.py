"""The replication manager: write fan-out, liveness, and versions.

One :class:`ReplicationManager` is installed per network (as
``network.replication``) when a service is built with ``replication=R``
for R > 1.  It owns:

- the :class:`~repro.replication.placement.ReplicaPlacement`;
- the write path — every insert/stats publication becomes an idempotent
  op tagged ``(origin, per-origin seq)``, fanned out from the primary
  as REPLICA_WRITE messages and merged independently at each *live*
  replica (each replica runs the same merge closure against its own
  stored copy, so posting lists converge by set-union and metadata by
  last-writer-wins — identical inputs in identical order produce
  identical replicas);
- per-replica :class:`~repro.replication.versioning.VersionVector`\\ s
  and per-key write versions, which anti-entropy repair uses to decide
  which side of a divergence is fresher;
- crash/respawn bookkeeping: a crashed replica's versions are dropped
  with its storage, a respawned one starts empty and re-converges via
  repair.

The manager never changes *what* a lookup returns, only where writes
land and how divergence is tracked; read-side failover lives in
:class:`~repro.replication.failover.ReplicaFailoverRouter`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import ConfigurationError
from ..net.messages import MessageKind
from .placement import ReplicaPlacement
from .versioning import VersionVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.network import MembershipEvent, P2PNetwork

__all__ = ["ReplicationManager"]

#: Origin id used for ops whose caller did not identify the inserting
#: peer (legacy single-argument apply_insert paths).
ANONYMOUS_ORIGIN = -1


class ReplicationManager:
    """Coordinates R-way replication over a :class:`P2PNetwork`.

    Args:
        network: the network whose storages hold the replicas.
        replication: R, owners per key range.  ``install()`` with R == 1
            is rejected — the unreplicated stack must stay byte-identical
            to today's, which means *no* manager at all.
    """

    def __init__(self, network: "P2PNetwork", replication: int) -> None:
        if replication < 2:
            raise ConfigurationError(
                "a replication manager needs replication >= 2; "
                f"got {replication} (R=1 runs the unreplicated stack)"
            )
        self.network = network
        self.replication = replication
        self.placement = ReplicaPlacement(network.overlay, replication)
        #: origin peer id -> last sequence number issued by that origin.
        self._origin_seqs: dict[int, int] = {}
        #: replica peer id -> version vector of ops applied there.
        self._vectors: dict[int, VersionVector] = {}
        #: replica peer id -> {key: write version} (freshness order for
        #: repair; dropped with the replica's storage on crash).
        self._key_versions: dict[int, dict[Any, int]] = {}
        #: Global write counter ordering all replicated writes.
        self._write_clock = 0
        #: Monotonic counters (inspection / benches).
        self.replica_writes = 0
        self.lost_writes = 0

    def install(self) -> "ReplicationManager":
        """Attach to the network (idempotent for this instance).

        Raises:
            ConfigurationError: another manager is already installed.
        """
        current = self.network.replication
        if current is not None and current is not self:
            raise ConfigurationError(
                "network already has a replication manager installed"
            )
        self.network.replication = self
        return self

    # -- placement / liveness ---------------------------------------------------

    def owners(self, key_id: int) -> tuple[int, ...]:
        """The key's replica set, primary first."""
        return self.placement.owners(key_id)

    def failover_target(self, key_id: int) -> tuple[int, int | None]:
        """One walk of the key's replica set in placement order:
        ``(dead owners skipped, first live owner)`` — the probe cost of
        a failover read and the peer it lands on (``None`` when the
        whole replica set is dead).  Both come from the same liveness
        reads, so the probe count always agrees with the target."""
        is_live = self.network.is_live
        skipped = 0
        for owner in self.placement.owners(key_id):
            if is_live(owner):
                return skipped, owner
            skipped += 1
        return skipped, None

    def effective_owner(self, key_id: int) -> int | None:
        """First live replica in placement order (``None`` when the
        whole replica set is dead)."""
        return self.failover_target(key_id)[1]

    # -- write path --------------------------------------------------------------

    def next_seq(self, origin: int | None) -> tuple[int, int]:
        """Issue the next per-origin sequence number."""
        source = ANONYMOUS_ORIGIN if origin is None else origin
        seq = self._origin_seqs.get(source, 0) + 1
        self._origin_seqs[source] = seq
        return source, seq

    def send_replica_writes(
        self,
        network: "P2PNetwork",
        primary_id: int,
        key_id: int,
        payload_postings: int,
        key: Any = None,
        origin: int | None = None,
    ) -> None:
        """Transmission phase of the fan-out: the primary forwards the
        op to every backup (one direct hop each; dead backups lose the
        message, exactly like a real crashed node).  When ``origin`` is
        given the op is also sequenced and recorded here — used by
        metadata publications that have no apply phase of their own."""
        owners = self.placement.owners(key_id)
        for backup in owners[1:]:
            network.log_message(
                MessageKind.REPLICA_WRITE,
                primary_id,
                backup,
                postings=payload_postings,
                hops=1,
                key=key,
            )
            self.replica_writes += 1
        if origin is not None:
            source, seq = self.next_seq(origin)
            for owner in owners:
                if network.is_live(owner):
                    self._vectors.setdefault(
                        owner, VersionVector()
                    ).observe(source, seq)

    def apply_write(
        self,
        network: "P2PNetwork",
        key: Any,
        key_id: int,
        merge: Callable[[Any | None], Any],
        origin: int | None = None,
    ) -> Any:
        """Application phase: run ``merge`` independently at every live
        replica, in placement order, tagging the op with the next
        per-origin sequence number.  Replicas that already cover
        ``(origin, seq)`` discard the redelivery.  Returns the merged
        value at the effective owner — what the acknowledgement to the
        writer carries; when the whole replica set is dead the merge is
        still evaluated (the writer built its payload) but nothing
        stores it: the write is lost, as a real crash loses it."""
        source, seq = self.next_seq(origin)
        self._write_clock += 1
        version = self._write_clock
        result: Any = None
        applied = False
        for owner in self.placement.owners(key_id):
            if not network.is_live(owner):
                continue
            vector = self._vectors.setdefault(owner, VersionVector())
            if vector.covers(source, seq):
                continue
            merged = network.storage_by_id(owner).update(key, key_id, merge)
            vector.observe(source, seq)
            self._key_versions.setdefault(owner, {})[key] = version
            if not applied:
                result = merged
                applied = True
        if not applied:
            self.lost_writes += 1
            result = merge(None)
        return result

    # -- membership --------------------------------------------------------------

    def on_peer_crashed(self, peer_id: int) -> None:
        """A replica's storage was destroyed: its repair bookkeeping
        dies with it (the ring — and therefore placement — is
        unchanged)."""
        self._vectors.pop(peer_id, None)
        self._key_versions.pop(peer_id, None)

    def on_peer_respawned(self, peer_id: int) -> None:
        """A crashed replica came back empty; it re-converges through
        anti-entropy repair (nothing to record until then)."""

    def on_membership_event(self, event: "MembershipEvent | None") -> None:
        """Joins and leaves change the ring, so placement re-derives it;
        crash/respawn keep the ring and the cache stays valid.  ``None``
        (a coalesced batch) conservatively invalidates."""
        if event is None or event.kind in ("join", "leave"):
            self.placement.invalidate()
        if event is not None and event.kind == "leave":
            self._vectors.pop(event.peer_id, None)
            self._key_versions.pop(event.peer_id, None)

    # -- versions (repair's freshness order) -------------------------------------

    def version_of(self, owner_id: int, key: Any) -> int:
        """The write version of ``key`` at replica ``owner_id`` (0 when
        never recorded — e.g. entries placed by a snapshot load)."""
        return self._key_versions.get(owner_id, {}).get(key, 0)

    def record_version(self, owner_id: int, key: Any, version: int) -> None:
        self._key_versions.setdefault(owner_id, {})[key] = version

    def vector_of(self, owner_id: int) -> VersionVector:
        """The replica's version vector (created empty on first use)."""
        return self._vectors.setdefault(owner_id, VersionVector())

    # -- persistence -------------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """JSON-able replication state for the snapshot manifest:
        per-origin sequence issue points and per-replica version
        vectors.  Per-key versions are deliberately *not* persisted — a
        snapshot stores one convergent copy of every entry, so a loaded
        network seeds uniform versions (see
        :meth:`seed_versions_from_storage`) and anti-entropy finds
        nothing to repair."""
        return {
            "origin_seqs": {
                str(origin): seq
                for origin, seq in sorted(self._origin_seqs.items())
            },
            "write_clock": self._write_clock,
            "version_vectors": {
                str(owner): vector.as_dict()
                for owner, vector in sorted(self._vectors.items())
            },
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Install previously exported state (snapshot load), so later
        writes continue the persisted sequence numbers and anti-entropy
        resumes from the persisted vectors instead of assuming every
        replica is blank."""
        self._origin_seqs = {
            int(origin): int(seq)
            for origin, seq in state.get("origin_seqs", {}).items()
        }
        self._write_clock = int(state.get("write_clock", 0))
        self._vectors = {
            int(owner): VersionVector.from_dict(vector)
            for owner, vector in state.get("version_vectors", {}).items()
        }

    def seed_versions_from_storage(self) -> None:
        """Give every stored key a uniform write version at every live
        replica (snapshot load: the copies are convergent by
        construction, so no side may look fresher than another)."""
        self._key_versions = {}
        for owner in self.network.live_peer_ids():
            versions: dict[Any, int] = {}
            for entry in self.network.storage_by_id(owner):
                versions[entry.key] = self._write_clock
            self._key_versions[owner] = versions

    # -- inspection --------------------------------------------------------------

    def describe(self) -> dict[str, int]:
        return {
            "replication": self.replication,
            "replica_writes": self.replica_writes,
            "lost_writes": self.lost_writes,
            "write_clock": self._write_clock,
        }
