"""Message kinds and the message record used for traffic accounting.

The scalability analysis counts *postings* carried by messages; the
simulator additionally records message and hop counts so experiments can
report routing behaviour.  A :class:`Message` is a passive record — the
simulator executes operations synchronously and logs the messages the real
system would have sent.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import NamedTuple

__all__ = ["Message", "MessageKind"]


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


_message_counter = itertools.count()


class _MessageFields(NamedTuple):
    kind: MessageKind
    source: int
    destination: int
    postings: int
    hops: int
    key_repr: str
    message_id: int


class Message(_MessageFields):
    """A logged protocol message (immutable; built at least twice per
    lookup, so it is a plain tuple rather than a dataclass).

    Attributes:
        kind: protocol message kind.
        source: overlay id of the sender.
        destination: overlay id of the (final) receiver.
        postings: number of postings carried in the payload.
        hops: overlay hops the message traversed.
        key_repr: human-readable key the message concerns (diagnostics).
        message_id: monotonically increasing id (log ordering); issued
            from a process-wide counter when omitted.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: MessageKind,
        source: int,
        destination: int,
        postings: int = 0,
        hops: int = 1,
        key_repr: str = "",
        message_id: int | None = None,
    ) -> "Message":
        if postings < 0:
            raise ValueError(f"postings must be >= 0, got {postings}")
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        if message_id is None:
            message_id = next(_message_counter)
        return tuple.__new__(
            cls,
            (kind, source, destination, postings, hops, key_repr, message_id),
        )
