"""Merkle anti-entropy repair between the replicas of each key range.

A crashed-then-respawned replica comes back empty; a replica that was
dead during a burst of writes misses them.  :class:`AntiEntropyRepairer`
re-converges replica sets without re-shipping whole ranges: per key
range (one range per ring primary) the live replicas exchange
:class:`~repro.replication.merkle.MerkleTree` digests — root first, then
only the divergent buckets — and finally ship just the keys whose value
fingerprints differ, fresher side to staler side as decided by the
manager's per-key write versions.  All messages run under the
MAINTENANCE accounting phase, so the paper's indexing/retrieval figures
stay clean and repair traffic is reported where churn handoff already
is.

Repair never deletes: a key present on one replica and absent on the
other is shipped, making the pass idempotent — a second run over a
converged group exchanges one root digest per pair and nothing else.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError
from ..net.accounting import Phase
from ..net.messages import MessageKind
from .merkle import DEFAULT_BUCKETS, MerkleTree, value_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.network import P2PNetwork
    from .manager import ReplicationManager

__all__ = ["AntiEntropyRepairer", "RepairReport"]


@dataclass
class RepairReport:
    """What one anti-entropy pass did (benchmark/test observable).

    Attributes:
        groups_checked: replica groups with >= 2 live members compared.
        replica_pairs_compared: (coordinator, other) pairs digest-checked.
        digests_exchanged: root + bucket digest messages logged.
        buckets_diverged: Merkle buckets whose digests mismatched.
        keys_repaired: keys shipped between replicas.
        postings_shipped: total postings carried by repair messages —
            the quantity that must scale with divergence, not range size.
    """

    groups_checked: int = 0
    replica_pairs_compared: int = 0
    digests_exchanged: int = 0
    buckets_diverged: int = 0
    keys_repaired: int = 0
    postings_shipped: int = 0

    def merge(self, other: "RepairReport") -> None:
        self.groups_checked += other.groups_checked
        self.replica_pairs_compared += other.replica_pairs_compared
        self.digests_exchanged += other.digests_exchanged
        self.buckets_diverged += other.buckets_diverged
        self.keys_repaired += other.keys_repaired
        self.postings_shipped += other.postings_shipped

    def as_dict(self) -> dict[str, int]:
        return {
            "groups_checked": self.groups_checked,
            "replica_pairs_compared": self.replica_pairs_compared,
            "digests_exchanged": self.digests_exchanged,
            "buckets_diverged": self.buckets_diverged,
            "keys_repaired": self.keys_repaired,
            "postings_shipped": self.postings_shipped,
        }


@dataclass
class _RangeView:
    """One replica's materialized view of one key range."""

    leaves: dict[int, bytes] = field(default_factory=dict)
    entries: dict[int, Any] = field(default_factory=dict)
    keys: dict[int, Any] = field(default_factory=dict)


class AntiEntropyRepairer:
    """Periodic pairwise replica synchronization.

    Args:
        network: the network whose replicas are repaired.
        manager: the replication manager; defaults to the one installed
            on ``network``.
        buckets: Merkle bucket count per range tree.
    """

    def __init__(
        self,
        network: "P2PNetwork",
        manager: "ReplicationManager | None" = None,
        buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        manager = manager if manager is not None else network.replication
        if manager is None:
            raise ConfigurationError(
                "anti-entropy repair needs a replication manager "
                "(network.replication is not installed)"
            )
        self.network = network
        self.manager = manager
        self.buckets = buckets
        #: Completed passes (cadence bookkeeping for callers).
        self.runs = 0

    def run(self) -> RepairReport:
        """One full anti-entropy pass over every key range.

        Returns the merged :class:`RepairReport`.
        """
        report = RepairReport()
        with self.network.accounting.phase_scope(Phase.MAINTENANCE):
            for primary in self.manager.placement.ring():
                owners = self.manager.placement.owners_of_primary(primary)
                live = [o for o in owners if self.network.is_live(o)]
                if len(live) < 2:
                    continue
                report.groups_checked += 1
                coordinator = live[0]
                for other in live[1:]:
                    self._sync_pair(primary, coordinator, other, report)
        self.runs += 1
        return report

    # -- internals ---------------------------------------------------------------

    def _range_view(self, owner: int, primary: int) -> _RangeView:
        """Materialize ``owner``'s slice of the range whose primary is
        ``primary`` (recomputed per pair: earlier pairs in the group may
        have repaired the coordinator)."""
        view = _RangeView()
        for entry in self.network.storage_by_id(owner):
            if self.network.overlay.responsible_peer(entry.key_id) != primary:
                continue
            view.leaves[entry.key_id] = value_fingerprint(entry.value)
            view.entries[entry.key_id] = entry.value
            view.keys[entry.key_id] = entry.key
        return view

    def _sync_pair(
        self,
        primary: int,
        coordinator: int,
        other: int,
        report: RepairReport,
    ) -> None:
        report.replica_pairs_compared += 1
        left = self._range_view(coordinator, primary)
        right = self._range_view(other, primary)
        left_tree = MerkleTree(left.leaves, self.buckets)
        right_tree = MerkleTree(right.leaves, self.buckets)
        # Root exchange: one digest message, always paid.
        self.network.log_message(
            MessageKind.REPLICA_DIGEST, other, coordinator, postings=0, hops=1
        )
        report.digests_exchanged += 1
        if left_tree.root == right_tree.root:
            return
        divergent = left_tree.diff(right_tree)
        for bucket in divergent:
            self.network.log_message(
                MessageKind.REPLICA_DIGEST,
                other,
                coordinator,
                postings=0,
                hops=1,
            )
            report.digests_exchanged += 1
            report.buckets_diverged += 1
            key_ids = sorted(
                set(left_tree.keys_in_bucket(bucket))
                | set(right_tree.keys_in_bucket(bucket))
            )
            for key_id in key_ids:
                if left.leaves.get(key_id) == right.leaves.get(key_id):
                    continue
                self._repair_key(
                    key_id, coordinator, other, left, right, report
                )
        # Both replicas now cover the union of observed writes.
        left_vector = self.manager.vector_of(coordinator)
        right_vector = self.manager.vector_of(other)
        left_vector.merge(right_vector)
        right_vector.merge(left_vector)

    def _repair_key(
        self,
        key_id: int,
        coordinator: int,
        other: int,
        left: _RangeView,
        right: _RangeView,
        report: RepairReport,
    ) -> None:
        """Ship the fresher copy of one divergent key to the staler
        replica."""
        key = left.keys.get(key_id, right.keys.get(key_id))
        left_has = key_id in left.entries
        right_has = key_id in right.entries
        left_version = (
            self.manager.version_of(coordinator, key) if left_has else -1
        )
        right_version = (
            self.manager.version_of(other, key) if right_has else -1
        )
        if left_version != right_version:
            left_fresher = left_version > right_version
        else:
            # Same version but different fingerprints (e.g. uniformly
            # seeded after a snapshot load): prefer the larger entry,
            # then the coordinator, deterministically.
            left_df = self._entry_df(left.entries.get(key_id))
            right_df = self._entry_df(right.entries.get(key_id))
            left_fresher = left_df >= right_df
        if left_fresher:
            source, target = coordinator, other
            payload = left.entries[key_id]
            version = max(left_version, 0)
        else:
            source, target = other, coordinator
            payload = right.entries[key_id]
            version = max(right_version, 0)
        shipped = self._copy_value(payload)
        postings = self._payload_size(shipped)
        self.network.storage_by_id(target).put(key, key_id, shipped)
        self.network.log_message(
            MessageKind.REPLICA_REPAIR,
            source,
            target,
            postings=postings,
            hops=1,
            key=key,
        )
        self.manager.record_version(target, key, version)
        router = self.network.router
        if router is not None:
            # The same freshness hook an insert fires: the repaired key
            # must reappear in routing state (cluster Bloom summaries,
            # path-cache eviction) or a summary skip would answer
            # "absent" for a key the target verifiably holds now.
            router.on_insert(key, key_id)
        report.keys_repaired += 1
        report.postings_shipped += postings

    @staticmethod
    def _entry_df(value: Any | None) -> int:
        if value is None:
            return -1
        return int(getattr(value, "global_df", 0))

    @staticmethod
    def _copy_value(value: Any) -> Any:
        """A structurally independent copy — replicas must never share
        mutable state, or a later merge at one would silently mutate the
        other.  The global index's entry shape is copied field-wise (the
        common case, and it keeps spilled posting lists materializing
        through their normal path); anything else deep-copies."""
        postings = getattr(value, "postings", None)
        if postings is not None and hasattr(value, "global_df"):
            clone = copy.copy(value)
            # Posting lists are immutable, so the clone shares the list;
            # a spilled stub loads through its store and hands over a
            # plain list, because the replica's copy must be resident
            # (replicas do not share the primary's store).
            clone.postings = postings.resident()
            contributors = getattr(value, "contributors", None)
            if contributors is not None:
                clone.contributors = set(contributors)
            return clone
        return copy.deepcopy(value)

    @staticmethod
    def _payload_size(value: Any) -> int:
        size = getattr(value, "posting_count", None)
        if size is not None:
            return int(size() if callable(size) else size)
        try:
            return len(value)
        except TypeError:
            return 1
