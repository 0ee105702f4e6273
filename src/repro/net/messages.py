"""The message vocabulary of the simulated protocols.

The scalability analysis counts *postings* carried by messages; the
simulator additionally counts messages and hops so experiments can report
routing behaviour.  No message object is built: the simulator executes
operations synchronously and hands each message's fields — kind, ends,
postings, hops — straight to :meth:`repro.net.network.P2PNetwork._send`,
which counts them (and, when a trace is in flight, records them as a
``net.msg`` span).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["MessageKind"]


class MessageKind(Enum):
    """The message vocabulary of the indexing/retrieval protocols."""

    def __init__(self, _value: str) -> None:
        #: Dense 0-based index in definition order: traffic accounting
        #: keeps its counters in flat lists indexed by it, because an
        #: ``Enum`` dict key costs a Python-level ``__hash__`` call.
        self.ordinal = len(type(self).__members__)

    #: Insert a (key, local posting list) pair into the global index.
    INSERT = "insert"
    #: Look up a key in the global index.
    LOOKUP = "lookup"
    #: Response carrying a posting list back to the requester.
    RESPONSE = "response"
    #: Notification that a submitted key became globally non-discriminative
    #: (triggers key expansion at the submitting peers).
    NDK_NOTIFY = "ndk_notify"
    #: Publication of per-term statistics (df/cf) used for ranking.
    STATS_PUBLISH = "stats_publish"
    #: Key-range handoff when a peer joins or leaves the overlay
    #: (maintenance; excluded from the paper's posting counts).
    HANDOFF = "handoff"
    #: Leaf-to-super-peer registration when clusters are (re)formed
    #: (maintenance; super-peer hierarchy, see :mod:`repro.overlay`).
    CLUSTER_JOIN = "cluster_join"
    #: Routing-index / cluster-summary exchange between super-peers and
    #: their members (maintenance; super-peer hierarchy).
    ROUTING_UPDATE = "routing_update"
    #: A hot cluster handing half its members to a freshly promoted
    #: super-peer (maintenance; adaptive overlay, see
    #: :mod:`repro.overlay.topology`).
    CLUSTER_SPLIT = "cluster_split"
    #: A cooled-down split pair folding back into one cluster
    #: (maintenance; adaptive overlay).
    CLUSTER_MERGE = "cluster_merge"
    #: Scoped eviction fan-out from a key's home super-peer to the
    #: super-peers holding path-cache copies of it (no posting payload).
    CACHE_INVALIDATE = "cache_invalidate"
    #: Replicated write fan-out from the primary owner to the other
    #: replicas of a key range (see :mod:`repro.replication`).
    REPLICA_WRITE = "replica_write"
    #: Liveness probe burned while a lookup fails over past dead
    #: replicas to the nearest live one (no posting payload).
    REPLICA_PROBE = "replica_probe"
    #: Merkle-tree digest exchanged between replicas during an
    #: anti-entropy round (maintenance; no posting payload).
    REPLICA_DIGEST = "replica_digest"
    #: A divergent key shipped replica-to-replica during anti-entropy
    #: repair (maintenance; carries the stored postings).
    REPLICA_REPAIR = "replica_repair"
