"""The distributed HDK indexing driver.

Runs the per-peer generation rounds against the global index: every peer
publishes its term statistics, then — round by round, size 1 through
``s_max`` — proposes candidate keys with local posting lists, learns from
the acknowledgements/notifications which keys are globally
non-discriminative, and expands those in the next round.

The driver operates on *sets of peers* (the paper's peers index
collaboratively): statuses discovered globally in round ``s`` feed every
peer's round ``s+1``, exactly like the prototype's NDK notification flow.

Each protocol step a peer takes is split into three phases, which the
indexing pipeline (:mod:`repro.indexing`) runs as barriered stages:

- **extract** (:meth:`PeerIndexer.extract_statistics`,
  :meth:`PeerIndexer.extract_round`) — pure CPU over the peer's local
  documents; touches neither the network nor shared state;
- **stage** (:meth:`PeerIndexer.send_statistics`,
  :meth:`PeerIndexer.stage_round`) — transmission: logs and counts the
  routed messages, without mutating the index;
- **apply** (:meth:`PeerIndexer.aggregate_statistics`,
  :meth:`PeerIndexer.apply_round`) — the order-sensitive part (merges,
  NDK transitions, notification fan-out), always executed in the
  sequential protocol's deterministic peer order.

The classic one-shot surfaces (:meth:`PeerIndexer.publish_statistics`,
:meth:`PeerIndexer.run_round`, :func:`run_distributed_indexing`,
:func:`run_incremental_join`) compose the phases in place and remain the
reference sequential protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..config import HDKParameters
from ..corpus.collection import DocumentCollection
from ..errors import KeyGenerationError
from ..index.global_index import GlobalKeyIndex, KeyStatus, StagedInsert
from ..index.postings import PostingList
from ..net.accounting import Phase, TrafficSnapshot, merge_snapshots
from .generator import LocalHDKGenerator
from .semantic import filter_candidates_by_pmi

__all__ = [
    "IndexingReport",
    "PeerIndexer",
    "PeerStatistics",
    "run_distributed_indexing",
    "run_incremental_join",
]


@dataclass(frozen=True)
class PeerStatistics:
    """One peer's extracted local statistics (the stats-publication
    payload): term -> (df, cf), plus document count and total length."""

    term_stats: dict[str, tuple[int, int]]
    num_documents: int
    total_doc_length: int


@dataclass
class IndexingReport:
    """Per-peer accounting of one full indexing run.

    Attributes:
        peer_name: the reporting peer.
        inserted_postings_by_size: key size -> local postings inserted into
            the global index (the *indexing cost*, Figures 4-5).
        candidate_keys_by_size: key size -> number of proposed keys.
        ndk_keys_by_size: key size -> how many of the peer's proposals were
            (or became) globally non-discriminative.
        traffic: the per-phase traffic this peer's publication activity
            generated (statistics publication, key inserts with their
            transition notifications, and any NDK-expansion cascades) —
            counted by the INDEXING charges the driver opens around each
            of the peer's steps.  ``None`` until a driver
            (:mod:`repro.indexing`) attaches it.
    """

    peer_name: str
    inserted_postings_by_size: dict[int, int] = field(default_factory=dict)
    candidate_keys_by_size: dict[int, int] = field(default_factory=dict)
    ndk_keys_by_size: dict[int, int] = field(default_factory=dict)
    traffic: TrafficSnapshot | None = None

    @property
    def total_inserted_postings(self) -> int:
        return sum(self.inserted_postings_by_size.values())

    @property
    def total_candidate_keys(self) -> int:
        return sum(self.candidate_keys_by_size.values())

    def add_traffic(self, snapshot: TrafficSnapshot) -> None:
        """Fold another charge's traffic into this report's."""
        if self.traffic is None:
            self.traffic = snapshot
        else:
            self.traffic = merge_snapshots(self.traffic, snapshot)


class PeerIndexer:
    """One peer's side of the distributed indexing protocol.

    Args:
        peer_name: the peer's registered network name.
        collection: the peer's local documents ``D(P_i)``.
        global_index: the shared global index facade.
        params: the HDK model parameters.
    """

    def __init__(
        self,
        peer_name: str,
        collection: DocumentCollection,
        global_index: GlobalKeyIndex,
        params: HDKParameters,
    ) -> None:
        self.peer_name = peer_name
        self.collection = collection
        self.global_index = global_index
        self.params = params
        self.generator = LocalHDKGenerator(collection, params)
        # Global statuses this peer has learned (acks + notifications).
        # Written only through _learn(), which keeps the NDK views below
        # in step with it.
        self._known_status: dict[frozenset[str], KeyStatus] = {}
        # Key size -> how many learned keys of that size are NDK.
        self._ndk_counts: dict[int, int] = {}
        # Term -> whether its single-term key is NDK, for every learned
        # single-term key, in _known_status order; and the NDK terms
        # among them, rebuilt after one changes (see _ndk_terms).
        self._single_is_ndk: dict[str, bool] = {}
        self._ndk_term_set: frozenset[str] | None = frozenset()
        # Keys this peer has already inserted (idempotence for the
        # incremental expansion cascade).
        self._submitted: set[frozenset[str]] = set()
        # Local term document frequencies (for the optional PMI filter).
        self._local_term_dfs: dict[str, int] = {}
        for doc in collection:
            for term in doc.distinct_terms:
                self._local_term_dfs[term] = (
                    self._local_term_dfs.get(term, 0) + 1
                )
        self.report = IndexingReport(peer_name=peer_name)

    def charged(self, step: Callable[..., Any], *args: Any) -> Any:
        """Run one of this peer's protocol steps under an INDEXING
        charge and add the traffic it sent to :attr:`report`."""
        accounting = self.global_index.network.accounting
        with accounting.charge(Phase.INDEXING) as charge:
            result = step(*args)
        self.report.add_traffic(charge.snapshot())
        return result

    def _apply_semantic_filter(
        self, candidates: dict[frozenset[str], PostingList]
    ) -> dict[frozenset[str], PostingList]:
        """Drop low-PMI multi-term candidates when the model asks for it."""
        threshold = self.params.semantic_pmi_threshold
        if threshold is None or len(self.collection) == 0:
            return candidates
        return filter_candidates_by_pmi(
            candidates,
            self._local_term_dfs,
            num_documents=len(self.collection),
            threshold=threshold,
        )

    # -- statistics publication --------------------------------------------------

    def extract_statistics(self) -> PeerStatistics:
        """Compute local term df/cf plus document-count statistics (pure
        CPU; no network, no shared state)."""
        term_stats: dict[str, tuple[int, int]] = {}
        total_length = 0
        for doc in self.collection:
            total_length += len(doc)
            for term, tf in doc.term_frequencies().items():
                df, cf = term_stats.get(term, (0, 0))
                term_stats[term] = (df + 1, cf + tf)
        return PeerStatistics(
            term_stats=term_stats,
            num_documents=len(self.collection),
            total_doc_length=total_length,
        )

    def send_statistics(self, statistics: PeerStatistics) -> None:
        """Transmission phase: log/pay the STATS_PUBLISH message."""
        self.global_index.send_term_stats(
            self.peer_name, statistics.term_stats
        )

    def aggregate_statistics(self, statistics: PeerStatistics) -> None:
        """Application phase: fold the statistics into the global
        directory (run in deterministic peer order by the pipeline)."""
        self.global_index.aggregate_term_stats(
            statistics.term_stats,
            num_documents=statistics.num_documents,
            total_doc_length=statistics.total_doc_length,
        )

    def publish_statistics(self) -> None:
        """Publish local term df/cf plus document-count statistics (the
        one-shot sequential composition of the three phases)."""
        statistics = self.extract_statistics()
        self.aggregate_statistics(statistics)
        self.send_statistics(statistics)

    # -- indexing rounds --------------------------------------------------------------

    def extract_round(
        self, key_size: int
    ) -> dict[frozenset[str], PostingList]:
        """Run one round's candidate generation (pure CPU).

        Reads only this peer's own learned statuses and the global
        statistics directory (stable between rounds); returns the
        semantically filtered candidate -> local posting list map.
        """
        if key_size == 1:
            very_frequent = frozenset(self.global_index.very_frequent_terms())
            round_ = self.generator.round_one(very_frequent)
        else:
            previous_ndk = frozenset(
                key
                for key, status in self._known_status.items()
                if len(key) == key_size - 1
                and status is KeyStatus.NON_DISCRIMINATIVE
            )
            round_ = self.generator.next_round(
                key_size, self._ndk_terms(), previous_ndk
            )
        return self._apply_semantic_filter(round_.candidates)

    def stage_round(
        self, candidates: dict[frozenset[str], PostingList]
    ) -> list[StagedInsert]:
        """Transmission phase: log/pay one INSERT message per candidate
        (NDK posting-list policy applied) without touching the index."""
        return [
            self.global_index.stage_insert(
                self.peer_name,
                key,
                self._insertion_payload(posting_list),
                local_df=len(posting_list),
            )
            for key, posting_list in candidates.items()
        ]

    def apply_round(
        self, key_size: int, staged: list[StagedInsert]
    ) -> dict[frozenset[str], KeyStatus]:
        """Application phase: merge the staged inserts (in staging
        order), learn the acknowledged statuses, and update the report.
        Order-sensitive — the pipeline serializes calls across peers."""
        statuses: dict[frozenset[str], KeyStatus] = {}
        inserted_postings = 0
        for staged_insert in staged:
            status = self.global_index.apply_staged(staged_insert)
            statuses[staged_insert.key] = status
            self._learn(staged_insert.key, status)
            self._submitted.add(staged_insert.key)
            inserted_postings += len(staged_insert.payload)
        self.report.candidate_keys_by_size[key_size] = len(staged)
        self.report.inserted_postings_by_size[key_size] = (
            self.report.inserted_postings_by_size.get(key_size, 0)
            + inserted_postings
        )
        return statuses

    def run_round(self, key_size: int) -> dict[frozenset[str], KeyStatus]:
        """Run one generation+insertion round; returns the statuses of the
        keys this peer proposed in the round."""
        return self.apply_round(
            key_size, self.stage_round(self.extract_round(key_size))
        )

    def _insertion_payload(self, posting_list: PostingList) -> PostingList:
        """Locally non-discriminative keys only publish their local
        top-``DF_max`` postings (the paper's NDK posting-list policy)."""
        if len(posting_list) <= self.params.df_max:
            return posting_list
        return posting_list.truncate_top(
            self.params.df_max, self.params.ndk_truncation
        )

    # -- incremental expansion (NDK notifications) ----------------------------------------

    def expand_transitioned_key(
        self, key: frozenset[str]
    ) -> dict[frozenset[str], KeyStatus]:
        """React to an NDK notification for ``key``: generate and insert
        the one-term expansions this peer's local collection supports.

        Returns the statuses of the *newly submitted* expansions (keys the
        peer had already submitted are skipped); callers cascade on the
        expansions that come back non-discriminative.
        """
        self._learn(key, KeyStatus.NON_DISCRIMINATIVE)
        ndk_terms = self._ndk_terms()

        status_of = self._known_status.get

        def subkey_is_ndk(subkey: frozenset[str]) -> bool:
            return status_of(subkey) is KeyStatus.NON_DISCRIMINATIVE

        candidates = self._apply_semantic_filter(
            self.generator.expansion_candidates(
                key, ndk_terms, subkey_is_ndk
            )
        )
        statuses: dict[frozenset[str], KeyStatus] = {}
        inserted_postings = 0
        for candidate, posting_list in candidates.items():
            if candidate in self._submitted:
                continue
            payload = self._insertion_payload(posting_list)
            status = self.global_index.insert(
                self.peer_name,
                candidate,
                payload,
                local_df=len(posting_list),
            )
            statuses[candidate] = status
            self._learn(candidate, status)
            self._submitted.add(candidate)
            inserted_postings += len(payload)
        size = len(key) + 1
        self.report.inserted_postings_by_size[size] = (
            self.report.inserted_postings_by_size.get(size, 0)
            + inserted_postings
        )
        self.report.candidate_keys_by_size[size] = (
            self.report.candidate_keys_by_size.get(size, 0)
            + len(statuses)
        )
        return statuses

    def _ndk_terms(self) -> frozenset[str]:
        """The terms whose single-term key this peer knows to be NDK (the
        expansion vocabulary).

        ``expansion_candidates`` intersects proximity windows with this
        set, and a set's iteration order depends on the order its
        members were inserted.  Building it in ``_known_status`` order,
        as a scan of ``_known_status`` would, keeps the candidate order,
        and with it the insert order, what that scan produced.  Rebuilt
        only after a single-term key's status changed.
        """
        if self._ndk_term_set is None:
            self._ndk_term_set = frozenset(
                term for term, ndk in self._single_is_ndk.items() if ndk
            )
        return self._ndk_term_set

    @property
    def overlay_id(self) -> int:
        """This peer's overlay id (contributor matching in cascades)."""
        return self.global_index.network.id_of(self.peer_name)

    # -- notification intake -------------------------------------------------------------

    def learn_status(self, key: frozenset[str], status: KeyStatus) -> None:
        """Record a status learned outside this peer's own inserts (e.g.
        an NDK notification for a key that transitioned after another
        peer's insert)."""
        self._learn(key, status)

    def _learn(self, key: frozenset[str], status: KeyStatus) -> None:
        """The one write to ``_known_status``: records ``status`` and
        keeps the NDK counts and the single-term view in step."""
        known = self._known_status
        previous = known.get(key)
        known[key] = status
        if status is previous:
            return
        ndk = status is KeyStatus.NON_DISCRIMINATIVE
        size = len(key)
        if size == 1:
            # Re-assigning a term keeps its place, as in _known_status.
            (term,) = key
            self._single_is_ndk[term] = ndk
        if ndk != (previous is KeyStatus.NON_DISCRIMINATIVE):
            self._ndk_counts[size] = self._ndk_counts.get(size, 0) + (
                1 if ndk else -1
            )
            if size == 1:
                self._ndk_term_set = None

    def known_ndk_count(self, key_size: int) -> int:
        """How many size-``key_size`` keys this peer knows to be NDK."""
        return self._ndk_counts.get(key_size, 0)


def run_incremental_join(
    existing_indexers: list[PeerIndexer],
    joining_indexers: list[PeerIndexer],
    params: HDKParameters,
) -> list[IndexingReport]:
    """Index newly joined peers into an already-built global index.

    This is the paper's actual growth protocol ("peers joining the
    network and increasing the document collection"): the joining peers
    run the normal generation rounds over their local documents, and any
    existing key their inserts push over ``DF_max`` triggers NDK
    notifications — the contributing peers then *expand* the key with
    additional co-occurring terms, which may cascade into further
    transitions until the index is quiescent.

    Because document frequencies only grow, the NDK set is monotone and
    the cascade terminates; the resulting global index is identical to a
    fresh rebuild over the union collection with the same peer partition
    (verified by the integration tests) — with one documented exception:
    when a term's collection frequency crosses ``F_f`` *during* growth, a
    rebuild excludes it from the key vocabulary (the paper's
    collection-dependent stop words "increase with l"), while the live
    system retains the keys indexed before the crossing and existing
    peers keep expanding with them.  The incremental index is then a
    strict superset of the rebuilt one; every common key still agrees
    exactly on status, df, and postings.  Retiring such keys is the
    "adaptive parameters" future work the paper's conclusion sketches.

    Delegates to :class:`repro.indexing.IndexingPipeline` (the shared
    build path).

    Returns the reports of the joining peers.
    """
    from ..indexing.pipeline import IndexingPipeline

    return IndexingPipeline().join(
        existing_indexers, joining_indexers, params
    )


def run_expansion_cascade(
    indexers: list[PeerIndexer],
    global_index: GlobalKeyIndex,
    params: HDKParameters,
) -> None:
    """Process DK->NDK transitions until quiescent.

    Each batch: first every contributor *learns* all transitioned
    statuses (so expansions within the batch see each other's updates),
    then each contributor expands its transitioned keys.  Expansions that
    come back NDK enter the next batch implicitly through the index's
    transition log; already-NDK acks are cascaded explicitly.

    Ordered work by construction: within a batch one peer's expansion
    extraction can depend on its own earlier expansions (same-size
    sub-key checks across mixed-size batches) — and it is small, since
    only transitioned keys enter it.  Each expansion runs under an
    INDEXING charge attributed to the expanding peer's report.
    """
    by_overlay_id = {indexer.overlay_id: indexer for indexer in indexers}
    pending = global_index.drain_transitions()
    # Acked-NDK expansions that never transition (inserted already-NDK).
    extra: list[tuple[frozenset[str], frozenset[int]]] = []
    guard = 0
    while pending or extra:
        guard += 1
        if guard > 10_000:
            raise KeyGenerationError(
                "expansion cascade failed to converge"
            )  # pragma: no cover - safety net
        batch = pending + extra
        extra = []
        # Phase 1: disseminate statuses.
        for key, contributors in batch:
            for overlay_id in contributors:
                indexer = by_overlay_id.get(overlay_id)
                if indexer is not None:
                    indexer.learn_status(
                        key, KeyStatus.NON_DISCRIMINATIVE
                    )
        # Phase 2: expansions.
        for key, contributors in batch:
            if len(key) >= params.s_max:
                continue
            for overlay_id in sorted(contributors):
                indexer = by_overlay_id.get(overlay_id)
                if indexer is None:
                    continue
                statuses = indexer.charged(
                    indexer.expand_transitioned_key, key
                )
                for candidate, status in statuses.items():
                    if status is KeyStatus.NON_DISCRIMINATIVE:
                        extra.append(
                            (candidate, frozenset((overlay_id,)))
                        )
        pending = global_index.drain_transitions()


def run_distributed_indexing(
    indexers: list[PeerIndexer],
    params: HDKParameters,
) -> list[IndexingReport]:
    """Execute the full collaborative indexing protocol.

    Phase order matches the prototype: statistics publication first (so
    very frequent terms are known globally), then rounds of increasing key
    size with a *global status reconciliation* after each round — peers
    whose proposed key became NDK through a later peer's insert are brought
    up to date, standing in for asynchronous NDK notifications.

    Delegates to :class:`repro.indexing.IndexingPipeline` (the shared
    build path).

    Returns each peer's :class:`IndexingReport`.
    """
    from ..indexing.pipeline import IndexingPipeline

    return IndexingPipeline().build(indexers, params)


def entry_of(global_index: GlobalKeyIndex, key: frozenset[str]):
    """Read a stored entry without logging retrieval traffic (round
    reconciliation piggybacks on the already-logged notifications)."""
    network = global_index.network
    target = network.responsible_peer_for(key)
    for storage in network.storages():
        if storage.peer_id == target:
            return storage.get(key)
    return None
