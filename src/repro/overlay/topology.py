"""Cluster leaf peers under super-peers by key-range affinity.

Peers are sorted by overlay id and chunked into runs of ``fanout``
consecutive peers; each run is one *cluster*.  Because DHT
responsibility is the ring successor, the peer responsible for any key
id lies inside the cluster whose id range covers it — so the cluster
doubles as the key-range routing unit: the super-peers' shared routing
index is simply the sorted list of cluster boundaries, and the *home*
cluster of a key is the cluster of its responsible peer.

**Election** is load-aware: the member with the least observed load
(fed by the adaptive router via :meth:`SuperPeerTopology.observe_load`)
is promoted, ties broken by lowest id.  With no load history every load
is zero, so the static overlay reproduces the original lowest-id choice
and snapshots stay byte-reproducible; under identical load histories
the election is deterministic for the same reason.

**Splitting** halves a hot cluster at its median member: the upper half
becomes a new cluster with its own super-peer, recorded as an extra
boundary on top of the fanout chunking.  :meth:`merge` removes the
boundary again (the router drives both off windowed load counters, with
hysteresis).  A full :meth:`rebuild` — membership changed, so the base
chunking shifts — clears the extra boundaries; persistent hotspots
simply re-split.

Membership changes re-cluster from scratch (the peer population is the
input, not an incremental structure); the registration and
routing-index-exchange messages this costs are sent under a MAINTENANCE
charge (:meth:`~repro.net.accounting.TrafficAccounting.charge`), exactly
like churn key handoffs — the paper's analysis reports maintenance
separately from indexing/retrieval.  Split/merge/re-election traffic
goes through :meth:`P2PNetwork.log_maintenance` for the same reason:
those fire mid-query, inside the query's RETRIEVAL charge.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigurationError, NetworkError, PeerNotFoundError
from ..net.accounting import Phase
from ..net.messages import MessageKind
from ..net.network import P2PNetwork

__all__ = ["Cluster", "SuperPeerTopology"]


@dataclass(frozen=True)
class Cluster:
    """One super-peer cluster: a run of consecutive peers on the ring.

    Attributes:
        index: position in the topology's cluster list.
        super_peer: overlay id of the promoted member (least observed
            load, ties to lowest id).
        members: all member overlay ids, ascending (includes the
            super-peer).
    """

    index: int
    super_peer: int
    members: tuple[int, ...]

    @cached_property
    def start(self) -> int:
        """Stable identity of the cluster's key range: its lowest
        member id.  Unlike :attr:`index` it survives splits and merges
        of *other* clusters (which shift list positions), so the router
        keys its per-cluster caches/summaries/generations by it."""
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


class SuperPeerTopology:
    """The cluster map and its maintenance protocol.

    Args:
        network: the simulated network whose peers are clustered.
        fanout: maximum leaves per cluster (>= 1).  ``fanout=1`` makes
            every peer its own super-peer (the degenerate flat-ish
            case); larger fanouts trade shorter super-peer routing
            tables against larger clusters.
    """

    def __init__(self, network: P2PNetwork, fanout: int = 8) -> None:
        if fanout < 1:
            raise ConfigurationError(
                f"overlay fanout must be >= 1, got {fanout}"
            )
        self.network = network
        self.fanout = fanout
        self.rebuilds = 0
        self.splits = 0
        self.merges = 0
        #: peer id -> cumulative observed load (routing work units the
        #: adaptive router charges); the election signal.
        self._peer_load: dict[int, float] = {}
        #: member ids that start a split-induced cluster, on top of the
        #: base fanout chunking; cleared by full rebuilds.
        self._extra_boundaries: set[int] = set()
        #: (clusters, peer id -> cluster index), swapped as one object.
        self._state: tuple[tuple[Cluster, ...], dict[int, int]] = ((), {})
        self.rebuild()

    # -- load-aware election -------------------------------------------------------

    def observe_load(self, peer_id: int, amount: float = 1.0) -> None:
        """Charge ``amount`` units of routing work to ``peer_id``.

        Fed by the adaptive router for every peer that serves or
        forwards a request; the next election (rebuild, split, merge,
        or crash re-election) prefers the least-loaded member.
        """
        self._peer_load[peer_id] = self._peer_load.get(peer_id, 0.0) + amount

    def _elect(self, members: tuple[int, ...]) -> int:
        """Least observed load wins; ties — including the cold start,
        where every load is zero — break to the lowest id.  Identical
        load histories therefore elect identical super-peers, and an
        unloaded (static) topology reproduces the lowest-id choice."""
        return min(
            members, key=lambda m: (self._peer_load.get(m, 0.0), m)
        )

    # -- construction / maintenance ----------------------------------------------

    def rebuild(self) -> None:
        """Re-cluster the current peer population and account the
        maintenance traffic (member registrations + the super-peers'
        routing-index exchange).

        Only *live* peers are clustered: a crashed peer cannot serve as
        a super-peer or answer for its range, and the population
        re-clusters around it exactly as it would around a departure —
        while the peer keeps its ring position, so key responsibility
        (and replica placement) is unchanged.

        Split-induced boundaries are dropped: the base chunking shifts
        with membership, so carrying them over would split arbitrary
        cold ranges; a range that stays hot re-splits within one
        decision window."""
        peer_ids = self.network.live_peer_ids()
        if not peer_ids:
            raise NetworkError("cannot cluster an empty network")
        self._extra_boundaries.clear()
        clusters: list[Cluster] = []
        cluster_of: dict[int, int] = {}
        for index, start in enumerate(
            range(0, len(peer_ids), self.fanout)
        ):
            members = tuple(peer_ids[start : start + self.fanout])
            clusters.append(
                Cluster(
                    index=index,
                    super_peer=self._elect(members),
                    members=members,
                )
            )
            for member in members:
                cluster_of[member] = index
        with self.network.accounting.charge(Phase.MAINTENANCE):
            for cluster in clusters:
                for member in cluster.members:
                    if member != cluster.super_peer:
                        self.network.log_message(
                            MessageKind.CLUSTER_JOIN,
                            member,
                            cluster.super_peer,
                        )
            # Every super-peer learns every cluster boundary (the
            # routing index is tiny: one id per cluster, zero postings).
            super_peers = [c.super_peer for c in clusters]
            for source in super_peers:
                for target in super_peers:
                    if source != target:
                        self.network.log_message(
                            MessageKind.ROUTING_UPDATE, source, target
                        )
        self._state = (tuple(clusters), cluster_of)
        self.rebuilds += 1

    def _swap(self, pieces: list[Cluster]) -> tuple[Cluster, ...]:
        """Renumber ``pieces``, rebuild the member map, and swap the
        state atomically.  Returns the installed cluster tuple."""
        rebuilt = tuple(
            cluster
            if cluster.index == index
            else Cluster(
                index=index,
                super_peer=cluster.super_peer,
                members=cluster.members,
            )
            for index, cluster in enumerate(pieces)
        )
        cluster_of = {
            member: cluster.index
            for cluster in rebuilt
            for member in cluster.members
        }
        self._state = (rebuilt, cluster_of)
        return rebuilt

    def _current(self, cluster: Cluster) -> Cluster | None:
        """The live map entry matching a caller-held ``cluster`` handle,
        or ``None`` when the map changed underneath (handles are
        immutable snapshots, so every mutation re-validates)."""
        clusters, _ = self._state
        if cluster.index < len(clusters):
            candidate = clusters[cluster.index]
            if candidate.members == cluster.members:
                return candidate
        return None

    def split(self, cluster: Cluster) -> tuple[Cluster, Cluster] | None:
        """Split ``cluster`` at its median member: the lower half keeps
        the cluster's start key, the upper half becomes a new cluster
        whose start is recorded as an extra boundary.  Both halves
        elect their own super-peer.  Returns ``(lower, upper)``, or
        ``None`` when the handle is stale or the cluster is too small.

        Deterministic by construction — median split point, (load, id)
        election — so identical load histories produce identical
        post-split maps."""
        current = self._current(cluster)
        if current is None or len(current.members) < 2:
            return None
        clusters, _ = self._state
        half = len(current.members) // 2
        lower_members = current.members[:half]
        upper_members = current.members[half:]
        lower = Cluster(
            index=current.index,
            super_peer=self._elect(lower_members),
            members=lower_members,
        )
        upper = Cluster(
            index=current.index + 1,
            super_peer=self._elect(upper_members),
            members=upper_members,
        )
        self._extra_boundaries.add(upper_members[0])
        installed = self._swap(
            list(clusters[: current.index])
            + [lower, upper]
            + list(clusters[current.index + 1 :])
        )
        lower, upper = installed[current.index], installed[current.index + 1]
        self._log_reshape(
            MessageKind.CLUSTER_SPLIT,
            current,
            (lower, upper),
            announce=current.super_peer,
        )
        self.splits += 1
        return lower, upper

    def merge(self, lower: Cluster, upper: Cluster) -> Cluster | None:
        """Fold a cooled-down split pair back into one cluster (the
        inverse of :meth:`split`): ``upper``'s start must be a
        split-induced boundary and the two handles must be adjacent.
        Returns the merged cluster, or ``None`` on a stale handle."""
        current_lower = self._current(lower)
        current_upper = self._current(upper)
        if (
            current_lower is None
            or current_upper is None
            or current_upper.index != current_lower.index + 1
            or current_upper.start not in self._extra_boundaries
        ):
            return None
        clusters, _ = self._state
        members = current_lower.members + current_upper.members
        merged = Cluster(
            index=current_lower.index,
            super_peer=self._elect(members),
            members=members,
        )
        self._extra_boundaries.discard(current_upper.start)
        installed = self._swap(
            list(clusters[: current_lower.index])
            + [merged]
            + list(clusters[current_upper.index + 1 :])
        )
        merged = installed[current_lower.index]
        self._log_reshape(
            MessageKind.CLUSTER_MERGE,
            current_upper,
            (merged,),
            announce=current_upper.super_peer,
        )
        self.merges += 1
        return merged

    def reelect(self, cluster: Cluster) -> Cluster | None:
        """Re-run election over ``cluster``'s *live* members (scoped
        super-peer replacement after its super-peer crashed — the rest
        of the map is untouched).  Returns the updated cluster, or
        ``None`` when the handle is stale or every member is crashed
        (the range is dark; there is nothing to promote)."""
        current = self._current(cluster)
        if current is None:
            return None
        live = tuple(
            m for m in current.members if self.network.is_live(m)
        )
        if not live:
            return None
        super_peer = self._elect(live)
        if super_peer == current.super_peer:
            return current
        clusters, cluster_of = self._state
        updated = Cluster(
            index=current.index,
            super_peer=super_peer,
            members=current.members,
        )
        pieces = list(clusters)
        pieces[current.index] = updated
        # Members are unchanged, so the member map carries over.
        self._state = (tuple(pieces), cluster_of)
        for member in live:
            if member != super_peer:
                self.network.log_maintenance(
                    MessageKind.CLUSTER_JOIN, member, super_peer
                )
        for other in self.super_peers():
            if other != super_peer:
                self.network.log_maintenance(
                    MessageKind.ROUTING_UPDATE, super_peer, other
                )
        return updated

    def _log_reshape(
        self,
        kind: MessageKind,
        origin: Cluster,
        produced: tuple[Cluster, ...],
        announce: int,
    ) -> None:
        """Account a split/merge: one reshape message from the origin
        super-peer, re-registration of every live member whose
        super-peer changed, and the new super-peers' boundary
        announcements to the rest of the routing index."""
        super_peers = set(self.super_peers())
        for piece in produced:
            if piece.super_peer != announce:
                self.network.log_maintenance(
                    kind, announce, piece.super_peer
                )
            for member in piece.members:
                if member != piece.super_peer and self.network.is_live(
                    member
                ):
                    self.network.log_maintenance(
                        MessageKind.CLUSTER_JOIN, member, piece.super_peer
                    )
            for other in super_peers:
                if other != piece.super_peer:
                    self.network.log_maintenance(
                        MessageKind.ROUTING_UPDATE,
                        piece.super_peer,
                        other,
                    )

    # -- the routing index -------------------------------------------------------

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        return self._state[0]

    def cluster_of_peer(self, peer_id: int) -> Cluster:
        """The cluster ``peer_id`` belongs to."""
        clusters, cluster_of = self._state
        try:
            return clusters[cluster_of[peer_id]]
        except KeyError:
            raise PeerNotFoundError(
                f"peer id {peer_id} not in any cluster"
            ) from None

    def cluster_starting_at(self, start: int) -> Cluster | None:
        """The cluster whose :attr:`Cluster.start` is ``start``, or
        ``None`` when no current cluster begins at that member."""
        clusters, cluster_of = self._state
        index = cluster_of.get(start)
        if index is None or clusters[index].start != start:
            return None
        return clusters[index]

    def super_peer_of(self, peer_id: int) -> int:
        """Overlay id of the super-peer serving ``peer_id``."""
        return self.cluster_of_peer(peer_id).super_peer

    def access_cluster(self, peer_id: int) -> Cluster:
        """The cluster ``peer_id`` sends its own messages through: the
        one it belongs to, or — for a peer the map does not hold (a
        crashed peer, which a :meth:`rebuild` leaves out while it still
        originates traffic in a later join's cascade) — the cluster
        whose id span holds its ring position."""
        clusters, cluster_of = self._state
        index = cluster_of.get(peer_id)
        if index is None:
            if peer_id not in self.network.peer_ids():
                raise PeerNotFoundError(
                    f"peer id {peer_id} not in the network"
                )
            # Below the first start, the last cluster's span wraps to it.
            index = bisect.bisect_right(
                [cluster.start for cluster in clusters], peer_id
            ) - 1
        return clusters[index]

    def home_cluster(self, key_id: int) -> Cluster | None:
        """The cluster whose key range covers ``key_id`` — the cluster
        of the key's *effective* owner (the responsible peer, or with
        replication installed the first live replica).  ``None`` when
        the whole replica set is crashed: the range is dark and has no
        serving cluster."""
        owner = self.network.effective_owner(key_id)
        if owner is None:
            return None
        return self.cluster_of_peer(owner)

    def super_peers(self) -> list[int]:
        """Overlay ids of all current super-peers, in cluster order."""
        return [cluster.super_peer for cluster in self.clusters]

    def describe(self) -> dict[str, int]:
        """Topology shape counters (for stats/reports)."""
        clusters = self.clusters
        return {
            "fanout": self.fanout,
            "clusters": len(clusters),
            "peers": sum(len(c) for c in clusters),
            "rebuilds": self.rebuilds,
            "splits": self.splits,
            "merges": self.merges,
        }
