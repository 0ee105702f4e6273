"""The distributed global key-to-documents index.

This is the paper's global P2P index (Section 3): peers insert
(key, local posting list) pairs; the peer responsible for a key under the
DHT merges the fragments, maintains the key's *global* document frequency,
and classifies the key as discriminative (DK) or non-discriminative (NDK)
against ``DF_max``:

- DK entries keep their **full** merged posting list;
- NDK entries keep only the **top-DF_max** postings (by the configured
  truncation policy) while the true global ``df`` continues to be tracked;
- the moment an inserted key crosses the threshold, every peer that
  contributed it is **notified** so it expands the key with additional
  terms in the next indexing round (the NDK notification mechanism).

Term-level statistics (global df/cf per single term, document count,
average document length) are aggregated alongside, standing in for the
prototype's distributed statistics directory used by ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..config import HDKParameters
from ..errors import IndexError_
from ..net.network import P2PNetwork
from ..net.node_id import key_repr
from .bm25 import TermStats
from .postings import PostingList

__all__ = ["KeyStatus", "GlobalEntry", "GlobalKeyIndex", "StagedInsert"]

#: Logical keys are canonical term sets.
Key = frozenset


def _response_size(value: "GlobalEntry | None") -> int:
    """Postings a lookup's response carries: the stored list."""
    return len(value.postings) if value is not None else 0


class KeyStatus(Enum):
    """Global classification of a key against ``DF_max``."""

    DISCRIMINATIVE = "dk"
    NON_DISCRIMINATIVE = "ndk"


@dataclass
class GlobalEntry:
    """The stored state of one key at its responsible peer.

    Attributes:
        key: the term set.
        postings: stored posting list — full for DKs, truncated top-DF_max
            for NDKs.
        global_df: the true global document frequency (keeps counting even
            after truncation).
        status: current DK/NDK classification.
        contributors: overlay ids of peers that inserted this key (the
            notification fan-out set).
    """

    key: frozenset[str]
    postings: PostingList
    global_df: int
    status: KeyStatus
    contributors: set[int] = field(default_factory=set)

    @property
    def is_truncated(self) -> bool:
        """True when stored postings are fewer than the global df."""
        return len(self.postings) < self.global_df

    def posting_count(self) -> int:
        """Stored posting count (drives handoff payload accounting)."""
        return len(self.postings)


@dataclass(frozen=True)
class StagedInsert:
    """An insert whose transmission has been logged but whose merge has
    not yet been applied.

    Produced by :meth:`GlobalKeyIndex.stage_insert` (which validates the
    payload and logs the routed INSERT message) and consumed by
    :meth:`GlobalKeyIndex.apply_staged` (which runs the merge at the
    responsible peer).  The split is what lets the indexing pipeline
    stage a whole round's transmissions before its merges — the
    order-sensitive part of the protocol — are applied in one
    deterministic sequence.

    Attributes:
        source_peer_name: the inserting peer.
        key: the term set.
        payload: the published (possibly locally truncated) postings.
        local_df: the peer's true local document frequency for the key.
        key_id: the key's overlay id, hashed once in the send phase and
            carried to the apply phase (``None``: derived on apply).
    """

    source_peer_name: str
    key: frozenset[str]
    payload: PostingList
    local_df: int
    key_id: int | None = None


class GlobalKeyIndex:
    """Facade over the network for the global index protocol.

    Args:
        network: the simulated P2P network storing the entries.
        params: the HDK model parameters (``df_max``, truncation policy).
    """

    def __init__(self, network: P2PNetwork, params: HDKParameters) -> None:
        self.network = network
        self.params = params
        # Term statistics directory (stand-in for the distributed stats
        # service; aggregation traffic is logged via publish_stats).
        self._term_stats: dict[str, TermStats] = {}
        self._num_documents = 0
        self._total_doc_length = 0
        # Keys that transitioned to NDK since the last drain, with the
        # contributor set at transition time.  Drives the incremental
        # join protocol's expansion cascade.
        self._transition_log: list[tuple[frozenset[str], frozenset[int]]] = []

    # -- indexing-side API ---------------------------------------------------------

    def insert(
        self,
        source_peer_name: str,
        key: frozenset[str],
        local_postings: PostingList,
        local_df: int | None = None,
    ) -> KeyStatus:
        """Insert a peer's local posting list for ``key``.

        Merges into the global entry at the responsible peer, updates the
        global df, truncates NDK lists, and sends NDK notifications to all
        contributors when the key *transitions* from DK to NDK.

        Args:
            source_peer_name: the inserting peer.
            local_postings: the published postings — a peer whose local
                list exceeds ``DF_max`` publishes only its local top
                ``DF_max`` (the paper's NDK policy), so the payload may be
                smaller than the peer's true local df.
            local_df: the peer's true local document frequency for the
                key; defaults to ``len(local_postings)``.  Global df is
                the sum of the contributors' local dfs, exact because
                peers hold disjoint document sets and each peer inserts a
                given key at most once per indexing run.

        Returns the key's status after the insert (what the inserting peer
        learns from the acknowledgement).
        """
        return self.apply_staged(
            self.stage_insert(source_peer_name, key, local_postings, local_df)
        )

    def stage_insert(
        self,
        source_peer_name: str,
        key: frozenset[str],
        local_postings: PostingList,
        local_df: int | None = None,
    ) -> StagedInsert:
        """Transmission phase of :meth:`insert`: validate the payload and
        log/pay the routed INSERT message, without touching the stored
        entry.  Safe to run concurrently across peers; the returned
        :class:`StagedInsert` must then go through :meth:`apply_staged`
        in the protocol's deterministic order."""
        if not key:
            raise IndexError_("cannot insert the empty key")
        if len(local_postings) == 0:
            raise IndexError_(
                f"refusing to insert empty posting list for {key_repr(key)}"
            )
        if local_df is None:
            local_df = len(local_postings)
        if local_df < len(local_postings):
            raise IndexError_(
                f"local_df ({local_df}) below published postings "
                f"({len(local_postings)}) for {key_repr(key)}"
            )
        key_id = self.network.send_insert(
            source_peer_name, key, payload_postings=len(local_postings)
        )
        return StagedInsert(
            source_peer_name=source_peer_name,
            key=key,
            payload=local_postings,
            local_df=local_df,
            key_id=key_id,
        )

    def apply_staged(self, staged: StagedInsert) -> KeyStatus:
        """Application phase of :meth:`insert`: merge the staged payload
        into the global entry at the responsible peer, update the global
        df, truncate NDK lists, and send NDK notifications on a DK->NDK
        transition.  Merge order determines NDK truncation contents,
        transition timing, and notification fan-out, so the parallel
        pipeline serializes calls in the sequential build's order."""
        key = staged.key
        local_postings = staged.payload
        local_df = staged.local_df
        source_id = self.network.id_of(staged.source_peer_name)
        params = self.params
        transition: list[GlobalEntry] = []

        def merge(current: GlobalEntry | None) -> GlobalEntry:
            if current is None:
                merged = local_postings
                contributors = {source_id}
                global_df = local_df
            else:
                merged = current.postings.union(local_postings)
                contributors = current.contributors | {source_id}
                global_df = current.global_df + local_df
            if global_df > params.df_max:
                status = KeyStatus.NON_DISCRIMINATIVE
                stored = merged.truncate_top(
                    params.df_max, params.ndk_truncation
                )
            else:
                status = KeyStatus.DISCRIMINATIVE
                stored = merged
            entry = GlobalEntry(
                key=key,
                postings=stored,
                global_df=global_df,
                status=status,
                contributors=contributors,
            )
            if (
                current is not None
                and current.status is KeyStatus.DISCRIMINATIVE
                and status is KeyStatus.NON_DISCRIMINATIVE
            ):
                transition.append(entry)
            elif current is None and status is KeyStatus.NON_DISCRIMINATIVE:
                transition.append(entry)
            return entry

        # With replication installed the merge runs once per live
        # replica (each produces its own GlobalEntry) and ``origin``
        # tags the op for idempotent redelivery; ``transition`` then
        # collects one entry per replica, but the truthy check and the
        # single notification below are unaffected.
        entry = self.network.apply_insert(
            key, merge, origin=source_id, key_id=staged.key_id
        )
        if transition:
            self._notify_contributors(entry)
            self._transition_log.append(
                (entry.key, frozenset(entry.contributors))
            )
        return entry.status

    def drain_transitions(
        self,
    ) -> list[tuple[frozenset[str], frozenset[int]]]:
        """Return and clear the DK->NDK transitions recorded since the
        last drain: (key, contributor overlay ids at transition time).

        The incremental join protocol consumes these to drive key
        expansion at the contributing peers — the synchronous-simulation
        counterpart of the asynchronous NDK notifications (whose messages
        are already logged by :meth:`insert`).
        """
        drained = self._transition_log
        self._transition_log = []
        return drained

    def _notify_contributors(self, entry: GlobalEntry) -> None:
        """Send an NDK notification to every contributor of ``entry``."""
        responsible = self.network.responsible_peer_for(entry.key)
        for contributor in sorted(entry.contributors):
            self.network.notify(responsible, contributor, key=entry.key)

    # -- retrieval-side API -----------------------------------------------------------

    def lookup(
        self, source_peer_name: str, key: frozenset[str]
    ) -> GlobalEntry | None:
        """Fetch the global entry for ``key`` (retrieval-phase traffic).

        The response payload counts the stored postings, which is exactly
        the per-key transfer of Figure 6.
        """
        return self.network.lookup(source_peer_name, key, _response_size)

    def status_of(
        self, source_peer_name: str, key: frozenset[str]
    ) -> KeyStatus | None:
        """Fetch only the DK/NDK status (a metadata-sized message).

        Used by peers during key generation to check sub-key statuses they
        did not learn through notifications.
        """
        entry = self.network.lookup(
            source_peer_name,
            key,
            lambda value: 0,  # status responses carry no postings
        )
        return entry.status if entry is not None else None

    # -- term statistics directory ------------------------------------------------------

    def publish_term_stats(
        self,
        source_peer_name: str,
        term_frequencies: dict[str, tuple[int, int]],
        num_documents: int,
        total_doc_length: int,
    ) -> None:
        """Publish a peer's local term statistics: term -> (df, cf).

        Aggregated into the global directory; one STATS_PUBLISH message per
        term batch is logged (metadata, zero postings).  Composition of
        :meth:`aggregate_term_stats` (directory mutation) and
        :meth:`send_term_stats` (the message) — the indexing pipeline
        drives the phases separately, sending every peer's statistics
        before aggregating them in deterministic peer order.
        """
        self.aggregate_term_stats(
            term_frequencies, num_documents, total_doc_length
        )
        self.send_term_stats(source_peer_name, term_frequencies)

    def send_term_stats(
        self,
        source_peer_name: str,
        term_frequencies: dict[str, tuple[int, int]],
    ) -> None:
        """Transmission phase of a statistics publication: log/pay the
        STATS_PUBLISH message without touching the directory."""
        if term_frequencies:
            self.network.publish_stats(
                source_peer_name, next(iter(term_frequencies)), postings=0
            )

    def aggregate_term_stats(
        self,
        term_frequencies: dict[str, tuple[int, int]],
        num_documents: int,
        total_doc_length: int,
    ) -> None:
        """Aggregation phase of a statistics publication: fold a peer's
        local statistics into the global directory (no message).  The
        sums are commutative, but the directory's iteration order — and
        therefore snapshot bytes — follows aggregation order, so the
        pipeline aggregates in peer order.

        The document totals grow before any term's frequency does, so a
        search reading a term's frequency and then the totals (as
        :class:`~repro.retrieval.hdk_engine.HDKRetrievalEngine` does)
        never sees a frequency above the document count."""
        self._num_documents += num_documents
        self._total_doc_length += total_doc_length
        for term, (df, cf) in term_frequencies.items():
            existing = self._term_stats.get(term)
            if existing is None:
                self._term_stats[term] = TermStats(
                    term=term, document_frequency=df, collection_frequency=cf
                )
            else:
                self._term_stats[term] = TermStats(
                    term=term,
                    document_frequency=existing.document_frequency + df,
                    collection_frequency=(
                        existing.collection_frequency + cf
                    ),
                )

    def term_stats(self, term: str) -> TermStats | None:
        """Global statistics of ``term`` (None when never published)."""
        return self._term_stats.get(term)

    def export_statistics(
        self,
    ) -> tuple[dict[str, TermStats], int, int]:
        """Snapshot the statistics directory:
        ``(term stats, num_documents, total_doc_length)`` — the ranking
        state a persisted index must carry alongside its entries."""
        return dict(self._term_stats), self._num_documents, self._total_doc_length

    def restore_statistics(
        self,
        term_stats: dict[str, TermStats],
        num_documents: int,
        total_doc_length: int,
    ) -> None:
        """Install a previously exported statistics directory (snapshot
        load; replaces, does not aggregate, and logs no traffic)."""
        self._term_stats = dict(term_stats)
        self._num_documents = num_documents
        self._total_doc_length = total_doc_length

    def term_document_frequency(self, term: str) -> int:
        stats = self._term_stats.get(term)
        return stats.document_frequency if stats is not None else 0

    def term_collection_frequency(self, term: str) -> int:
        stats = self._term_stats.get(term)
        return stats.collection_frequency if stats is not None else 0

    def very_frequent_terms(self) -> set[str]:
        """Terms whose global collection frequency exceeds ``F_f`` — the
        collection-dependent stop words excluded from the key vocabulary."""
        ff = self.params.ff
        return {
            term
            for term, stats in self._term_stats.items()
            if stats.collection_frequency > ff
        }

    @property
    def num_documents(self) -> int:
        """Global document count (from published statistics)."""
        return self._num_documents

    @property
    def average_document_length(self) -> float:
        if self._num_documents == 0:
            return 0.0
        return self._total_doc_length / self._num_documents

    # -- inspection (figures) --------------------------------------------------------------

    def stored_postings_total(self) -> int:
        """Total postings stored across all peers (Figure 3 numerator)."""
        return self.network.stored_value_total(
            lambda value: len(value.postings)
            if isinstance(value, GlobalEntry)
            else 0
        )

    def stored_postings_per_peer(self) -> dict[str, int]:
        """Postings stored at each named peer (crashed peers omitted —
        their storage no longer exists)."""
        result: dict[str, int] = {}
        for name in self.network.peer_names():
            peer_id = self.network.id_of(name)
            if not self.network.is_live(peer_id):
                continue
            storage = self.network.storage_by_id(peer_id)
            result[name] = storage.total_value_size(
                lambda value: len(value.postings)
                if isinstance(value, GlobalEntry)
                else 0
            )
        return result

    def key_count(self) -> int:
        """Number of stored key entries network-wide.  With replication
        installed every key is stored at R live replicas, so this counts
        each key up to R times — it measures *storage*, not vocabulary
        (the same way :meth:`stored_postings_total` measures the R-fold
        storage overhead replication pays)."""
        return self.network.stored_entry_count()

    def entries(self) -> list[GlobalEntry]:
        """All stored entries (inspection/tests; order unspecified).
        With replication installed each key appears once per live
        replica — callers that need one entry per key (e.g. the snapshot
        writer) must dedupe by key."""
        found: list[GlobalEntry] = []
        for storage in self.network.storages():
            for stored in storage:
                if isinstance(stored.value, GlobalEntry):
                    found.append(stored.value)
        return found
