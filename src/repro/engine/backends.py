"""Pluggable retrieval backends.

The engine used to hard-code its two retrieval models as an enum with
``if/else`` branches; every new routing/caching substrate (the super-peer
and DHT-caching directions in PAPERS.md) would have meant touching the
core again.  This module turns the seam into a first-class API:

- :class:`RetrievalBackend` — the protocol every backend implements
  (``index`` / ``add_peers`` / ``search`` / ``stats``), all returning the
  shared :class:`SearchResponse` shape;
- :class:`BackendRegistry` and the module-level :data:`registry` — a
  string-keyed factory map (``registry.create("hdk", context)``);
- six registered implementations:

  ==================  ====================================================
  ``hdk``             the paper's model (bounded per-key transfers)
  ``hdk_disk``        the paper's model over the disk-backed
                      :class:`repro.store.SpillingGlobalKeyIndex`
                      (cold posting lists live in segment files under a
                      RAM budget; identical results to ``hdk``)
  ``hdk_super``       the paper's model routed through the super-peer
                      hierarchy (:mod:`repro.overlay`): bounded-hop
                      paths, Bloom cluster summaries, and in-network
                      DHT-path result caches at super-peers (identical
                      results to ``hdk``; hops and traffic only improve)
  ``single_term``     naive distributed single-term baseline (Figure 6)
  ``single_term_bloom``  Bloom pre-intersection over the single-term
                      index (Reynolds & Vahdat's conjunctive protocol)
  ``topk``            distributed top-k via the Threshold Algorithm
                      (Balke et al.) over the single-term index
  ``centralized``     single-node BM25 oracle (the Terrier stand-in)
  ==================  ====================================================

Backends are constructed from a :class:`BackendContext` (network +
parameters + deployment knobs) and own their indexers/engines; the
:class:`repro.engine.service.SearchService` facade owns everything above
(query pipeline, cache, traffic charges, batching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from ..config import HDKParameters, ServiceConfig
from ..corpus.collection import DocumentCollection
from ..corpus.querylog import Query
from ..errors import ConfigurationError, RetrievalError
from ..hdk.indexer import IndexingReport, PeerIndexer
from ..index.global_index import GlobalKeyIndex
from ..indexing.pipeline import IndexingPipeline
from ..net.accounting import TrafficSnapshot
from ..net.network import P2PNetwork
from ..overlay import HierarchicalRouter, SuperPeerTopology
from ..retrieval.centralized import CentralizedBM25Engine
from ..retrieval.hdk_engine import HDKRetrievalEngine
from ..retrieval.ranking import RankedResult
from ..retrieval.single_term import (
    SingleTermIndexer,
    SingleTermRetrievalEngine,
)
from ..retrieval.single_term_bloom import BloomSingleTermEngine
from ..retrieval.topk import DistributedTopKEngine
from ..store.spill import SpillingGlobalKeyIndex
from .peer import Peer

__all__ = [
    "BackendContext",
    "BackendRegistry",
    "CentralizedBackend",
    "DistributedTopKBackend",
    "HDKBackend",
    "HDKDiskBackend",
    "HDKSuperBackend",
    "RetrievalBackend",
    "SearchResponse",
    "SingleTermBackend",
    "SingleTermBloomBackend",
    "registry",
]


@dataclass
class SearchResponse:
    """The uniform response every backend returns for one query.

    Attributes:
        query: the executed (processed) query.
        backend: name of the backend that answered it.
        results: top-k ranked documents.
        k: the requested result depth.
        keys_looked_up: index lookups issued by this call (``n_k`` for
            HDK, one per probed term for the single-term family, term
            count for centralized; zero when served from the cache).
        keys_found: lookups that returned a *non-empty* indexed entry.
        postings_transferred: network traffic in postings (the paper's
            cost unit); zero for the centralized oracle and for cache
            hits.
        dk_keys / ndk_keys: HDK lattice classification counts (zero for
            the other backends).
        cache_hit: True when the service answered from its result cache.
        elapsed_ms: wall-clock service time for this query.
        traffic: the per-phase traffic the query generated
            (``None`` until the service attaches it; cached responses
            carry an all-zero snapshot).
        detail: backend-specific extras (e.g. the Bloom protocol's
            filter/candidate/false-positive breakdown).
    """

    query: Query
    backend: str
    results: list[RankedResult] = field(default_factory=list)
    k: int = 20
    keys_looked_up: int = 0
    keys_found: int = 0
    postings_transferred: int = 0
    dk_keys: int = 0
    ndk_keys: int = 0
    cache_hit: bool = False
    elapsed_ms: float = 0.0
    traffic: TrafficSnapshot | None = None
    detail: dict[str, int] = field(default_factory=dict)

    def clipped(self, k: int) -> "SearchResponse":
        """A copy truncated to depth ``k`` (deep-enough cached rankings
        prefix-match shallower requests)."""
        return SearchResponse(
            query=self.query,
            backend=self.backend,
            results=self.results[:k],
            k=k,
            keys_looked_up=self.keys_looked_up,
            keys_found=self.keys_found,
            postings_transferred=self.postings_transferred,
            dk_keys=self.dk_keys,
            ndk_keys=self.ndk_keys,
            cache_hit=self.cache_hit,
            elapsed_ms=self.elapsed_ms,
            traffic=self.traffic,
            detail=dict(self.detail),
        )


@dataclass
class BackendContext:
    """Everything a backend needs to build itself.

    Attributes:
        network: the shared simulated network (overlay + storage +
            traffic accounting).
        params: HDK model parameters (backends that don't use them may
            ignore them).
        config: the deployment knobs (:class:`~repro.config.ServiceConfig`);
            each backend reads the ones it understands.  ``replication``
            is informational at this layer — the service installs the
            :class:`~repro.replication.ReplicationManager` on the
            network; backends see its effects only through the network
            primitives they already use.
    """

    network: P2PNetwork
    params: HDKParameters
    config: ServiceConfig


@runtime_checkable
class RetrievalBackend(Protocol):
    """The protocol every pluggable backend implements.

    Lifecycle: construct from a :class:`BackendContext` (via the
    registry), :meth:`index` the initial peers once, optionally
    :meth:`add_peers` as the network grows, then :meth:`search` freely.
    """

    #: Registry key; also stamped on every :class:`SearchResponse`.
    name: str

    def index(self, peers: list[Peer]) -> list[IndexingReport]:
        """Run the backend's indexing protocol over ``peers``."""
        ...

    def add_peers(self, new_peers: list[Peer]) -> list[IndexingReport]:
        """Index newly joined peers incrementally."""
        ...

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> SearchResponse:
        """Answer ``query`` issued from ``source_peer_name``."""
        ...

    def stats(self) -> dict[str, Any]:
        """Backend-specific index statistics (sizes, key counts, ...)."""
        ...

    def stored_postings_total(self) -> int:
        """Total postings held by the backend's index."""
        ...


BackendFactory = Callable[[BackendContext], "RetrievalBackend"]


class BackendRegistry:
    """String-keyed registry of backend factories.

    The default instance (:data:`registry`) has the four built-in
    backends; extensions register their own::

        @registry.backend("super_peer")
        class SuperPeerBackend: ...
    """

    def __init__(self) -> None:
        self._factories: dict[str, BackendFactory] = {}

    def register(self, name: str, factory: BackendFactory) -> None:
        """Register ``factory`` under ``name`` (must be unused)."""
        if not name:
            raise ConfigurationError("backend name must be non-empty")
        if name in self._factories:
            raise ConfigurationError(
                f"backend {name!r} is already registered"
            )
        self._factories[name] = factory

    def backend(self, name: str) -> Callable[[type], type]:
        """Class-decorator form of :meth:`register`; also stamps the
        class's ``name`` attribute."""

        def decorate(cls: type) -> type:
            cls.name = name
            self.register(name, cls)
            return cls

        return decorate

    def create(
        self, name: str, context: BackendContext
    ) -> "RetrievalBackend":
        """Instantiate the backend registered under ``name``.

        Raises:
            ConfigurationError: unknown name (the message lists the
                registered backends).
        """
        factory = self._factories.get(name)
        if factory is None:
            known = ", ".join(self.names())
            raise ConfigurationError(
                f"unknown backend {name!r}; registered backends: {known}"
            )
        return factory(context)

    def names(self) -> list[str]:
        """Registered backend names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


#: The default registry holding the built-in backends.
registry = BackendRegistry()


def _guard_double_index(
    backend: "RetrievalBackend", indexed: bool
) -> None:
    """Make double-build explicit: ``index()`` *starts* at most once per
    backend instance.  Re-running it — after success or after a failed
    attempt — would replay the publication protocol into an already
    (partially) populated index: duplicate inserts, double-counted
    statistics, silent corruption.  Growth goes through ``add_peers()``;
    recovery from a failed build goes through a fresh backend."""
    if indexed:
        raise ConfigurationError(
            f"backend {backend.name!r} already ran index(); it runs once "
            "per backend (even a failed run leaves partial state) — grow "
            "the population with add_peers(), or construct a fresh "
            "backend to rebuild"
        )


# -- HDK ------------------------------------------------------------------------


@registry.backend("hdk")
class HDKBackend:
    """The paper's model: distributed HDK indexing + lattice retrieval."""

    def __init__(self, context: BackendContext) -> None:
        self.context = context
        self.global_index = self._make_index(context)
        #: The shared build path: initial builds and incremental joins
        #: both run through this pipeline.
        self.pipeline = IndexingPipeline()
        self._indexers: list[PeerIndexer] = []
        self._engine: HDKRetrievalEngine | None = None
        self._index_started = False

    def _make_index(self, context: BackendContext) -> GlobalKeyIndex:
        return GlobalKeyIndex(context.network, context.params)

    def index(self, peers: list[Peer]) -> list[IndexingReport]:
        # Guard on *started*, not succeeded: a failed build leaves
        # partial state a retry would double-publish into.
        _guard_double_index(self, self._index_started)
        self._index_started = True
        params = self.context.params
        self._indexers = [
            PeerIndexer(peer.name, peer.collection, self.global_index, params)
            for peer in peers
        ]
        reports = self.pipeline.build(self._indexers, params)
        self._engine = HDKRetrievalEngine(self.global_index, params)
        return reports

    def add_peers(self, new_peers: list[Peer]) -> list[IndexingReport]:
        params = self.context.params
        joining = [
            PeerIndexer(peer.name, peer.collection, self.global_index, params)
            for peer in new_peers
        ]
        reports = self.pipeline.join(self._indexers, joining, params)
        self._indexers.extend(joining)
        return reports

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> SearchResponse:
        if self._engine is None:
            raise RetrievalError("call index() before search()")
        result = self._engine.search(source_peer_name, query, k)
        return SearchResponse(
            query=query,
            backend=self.name,
            results=result.results,
            k=k,
            keys_looked_up=result.keys_looked_up,
            keys_found=result.keys_found,
            postings_transferred=result.postings_transferred,
            dk_keys=result.dk_keys,
            ndk_keys=result.ndk_keys,
        )

    def restore(self) -> None:
        """Mark the backend queryable after its global index was
        populated externally (snapshot load): builds the retrieval
        engine without running the indexing protocol."""
        self._index_started = True  # index() must not replay onto it
        self._engine = HDKRetrievalEngine(
            self.global_index, self.context.params
        )

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "keys": self.global_index.key_count(),
            "stored_postings": self.stored_postings_total(),
            "num_documents": self.global_index.num_documents,
        }

    def stored_postings_total(self) -> int:
        return self.global_index.stored_postings_total()


@registry.backend("hdk_super")
class HDKSuperBackend(HDKBackend):
    """The paper's model served through a super-peer hierarchy.

    Storage placement, the indexing protocol, and the lattice walk are
    byte-identical to ``hdk`` — only *routing* changes: the backend
    clusters the network's peers under super-peers
    (:class:`repro.overlay.SuperPeerTopology`, ``overlay_fanout`` leaves
    per cluster) and installs a
    :class:`repro.overlay.HierarchicalRouter`, so every DHT message
    takes a bounded-hop path (leaf → super-peer → home super-peer →
    owner) instead of the flat O(log N) overlay walk, and the home
    super-peer answers repeated term-sets from its bounded in-network
    result cache (``path_cache_capacity`` keys, invalidated on insert)
    and definitely-absent keys from its Bloom cluster summary.

    With ``overlay_adaptive`` the overlay additionally balances itself
    under skew: super-peer election weighs observed load, hot clusters
    split at their median member (and merge back after a cool-down),
    and responses fill a path cache at *every* super-peer they retrace
    through, with scoped invalidation fan-out on insert.  Results stay
    byte-identical to ``hdk`` either way.

    Membership changes re-cluster and rebuild the routing state; that
    traffic is accounted under the MAINTENANCE phase alongside the key
    handoffs themselves.  Crash/respawn events repair only the affected
    cluster (the fault model keeps ring positions), preserving the
    other clusters' path caches.

    Concurrency note: results and posting counts are deterministic at
    any worker count, but per-query *hop* counts can vary with thread
    interleaving — concurrent first lookups of a shared key may both
    miss the path cache where a sequential run would hit on the second.
    """

    def __init__(self, context: BackendContext) -> None:
        super().__init__(context)
        config = context.config
        topology = SuperPeerTopology(
            context.network, fanout=config.overlay_fanout
        )
        self.router = HierarchicalRouter(
            topology,
            path_cache_capacity=config.path_cache_capacity,
            adaptive=config.overlay_adaptive,
            split_threshold=config.overlay_split_threshold,
            merge_threshold=config.overlay_merge_threshold,
        )
        self.router.install(context.network)

    def restore(self) -> None:
        # Snapshot loads place entries directly into storages without
        # routing them, so the cluster summaries must be rebuilt before
        # the first query can consult them.
        self.router.refresh()
        super().restore()

    def stats(self) -> dict[str, Any]:
        stats = super().stats()
        stats["overlay"] = self.router.describe()
        return stats


@registry.backend("hdk_disk")
class HDKDiskBackend(HDKBackend):
    """The paper's model over the disk-backed spilling index.

    The indexing and retrieval protocols (and therefore the results and
    the traffic accounting) are identical to ``hdk``; the difference is
    residency: cold posting lists live in append-only segment files
    (:class:`repro.store.SegmentStore`) and only a bounded hot set plus
    a bounded block cache stay in RAM, so the collection can exceed
    memory.  Configure via :class:`~repro.config.ServiceConfig`
    (``store_dir``, ``memory_budget_bytes``, ``wal``, ``sync``).
    """

    global_index: SpillingGlobalKeyIndex

    def _make_index(self, context: BackendContext) -> GlobalKeyIndex:
        config = context.config
        kwargs: dict[str, Any] = {}
        if config.memory_budget_bytes is not None:
            kwargs["memory_budget_bytes"] = config.memory_budget_bytes
        if config.wal is not None:
            kwargs["wal"] = config.wal
        return SpillingGlobalKeyIndex(
            context.network,
            context.params,
            store_dir=config.store_dir,
            sync=config.sync,
            **kwargs,
        )

    def stats(self) -> dict[str, Any]:
        stats = super().stats()
        stats["spill"] = self.global_index.spill_stats()
        return stats


# -- single-term family ---------------------------------------------------------


class _SingleTermIndexedBackend:
    """Shared indexing side of the two single-term backends.

    Both insert full per-term posting lists via
    :class:`SingleTermIndexer`; they differ only in the query protocol,
    supplied by :meth:`_make_engine`.  Global BM25 statistics
    (document count, average length) are recomputed from the full peer
    population in one place — :meth:`_rebuild_engine` — for both the
    initial build and every incremental join.
    """

    name = "single_term_base"

    def __init__(self, context: BackendContext) -> None:
        self.context = context
        self._peers: list[Peer] = []
        self._indexers: list[SingleTermIndexer] = []
        self._engine: Any = None
        self._index_started = False

    # -- indexing (shared) ------------------------------------------------------

    def index(self, peers: list[Peer]) -> list[IndexingReport]:
        _guard_double_index(self, self._index_started)
        self._index_started = True
        return self._index_new(peers)

    def add_peers(self, new_peers: list[Peer]) -> list[IndexingReport]:
        return self._index_new(new_peers)

    def _index_new(self, peers: list[Peer]) -> list[IndexingReport]:
        reports: list[IndexingReport] = []
        for peer in peers:
            indexer = SingleTermIndexer(
                peer.name, peer.collection, self.context.network
            )
            indexer.index()
            self._indexers.append(indexer)
            report = IndexingReport(peer_name=peer.name)
            report.inserted_postings_by_size[1] = indexer.inserted_postings
            reports.append(report)
        self._peers.extend(peers)
        self._rebuild_engine()
        return reports

    def _rebuild_engine(self) -> None:
        """Recompute global BM25 statistics and rebuild the query engine
        (the logic previously copy-pasted between ``index()`` and
        ``add_peers()``)."""
        total_docs = sum(p.num_documents for p in self._peers)
        total_tokens = sum(p.sample_size for p in self._peers)
        self._engine = self._make_engine(
            num_documents=max(1, total_docs),
            average_doc_length=(
                total_tokens / total_docs if total_docs else 1.0
            ),
        )

    def _make_engine(
        self, num_documents: int, average_doc_length: float
    ) -> Any:
        raise NotImplementedError

    # -- shared inspection ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "stored_postings": self.stored_postings_total(),
            "num_documents": sum(p.num_documents for p in self._peers),
        }

    def stored_postings_total(self) -> int:
        return self.context.network.stored_value_total(
            lambda value: value.posting_count()
            if hasattr(value, "posting_count")
            else 0
        )


@registry.backend("single_term")
class SingleTermBackend(_SingleTermIndexedBackend):
    """Naive distributed single-term retrieval (full posting lists)."""

    def _make_engine(
        self, num_documents: int, average_doc_length: float
    ) -> SingleTermRetrievalEngine:
        return SingleTermRetrievalEngine(
            self.context.network,
            num_documents=num_documents,
            average_doc_length=average_doc_length,
        )

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> SearchResponse:
        if self._engine is None:
            raise RetrievalError("call index() before search()")
        outcome = self._engine.search_outcome(source_peer_name, query, k)
        return SearchResponse(
            query=query,
            backend=self.name,
            results=outcome.results,
            k=k,
            keys_looked_up=len(query.terms),
            keys_found=outcome.terms_found,
            postings_transferred=outcome.postings_transferred,
        )


@registry.backend("single_term_bloom")
class SingleTermBloomBackend(_SingleTermIndexedBackend):
    """Bloom-filter pre-intersection over the single-term index
    (conjunctive semantics; Reynolds & Vahdat's protocol)."""

    def _make_engine(
        self, num_documents: int, average_doc_length: float
    ) -> BloomSingleTermEngine:
        return BloomSingleTermEngine(
            self.context.network,
            num_documents=num_documents,
            average_doc_length=average_doc_length,
        )

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> SearchResponse:
        if self._engine is None:
            raise RetrievalError("call index() before search()")
        outcome = self._engine.search(source_peer_name, query, k)
        return SearchResponse(
            query=query,
            backend=self.name,
            results=outcome.results,
            k=k,
            # The AND protocol stops probing at the first unknown term,
            # so the lookup count can be below len(query.terms).
            keys_looked_up=outcome.terms_probed,
            keys_found=outcome.terms_found,
            postings_transferred=outcome.postings_transferred,
            detail={
                "filter_posting_equivalents": (
                    outcome.filter_posting_equivalents
                ),
                "candidate_postings": outcome.candidate_postings,
                "false_positives_removed": outcome.false_positives_removed,
            },
        )


@registry.backend("topk")
class DistributedTopKBackend(_SingleTermIndexedBackend):
    """Distributed top-k (Threshold Algorithm, Balke et al. ICDE 2005)
    over the single-term index: sorted access in score order plus random
    access to complete candidates, stopping at the exact BM25 top-k."""

    #: Postings fetched per term per round of sorted access.
    batch_size = 10

    def _make_engine(
        self, num_documents: int, average_doc_length: float
    ) -> DistributedTopKEngine:
        return DistributedTopKEngine(
            self.context.network,
            num_documents=num_documents,
            average_doc_length=average_doc_length,
            batch_size=self.batch_size,
        )

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> SearchResponse:
        if self._engine is None:
            raise RetrievalError("call index() before search()")
        outcome = self._engine.search(source_peer_name, query, k)
        return SearchResponse(
            query=query,
            backend=self.name,
            results=outcome.results,
            k=k,
            keys_looked_up=len(query.terms),
            keys_found=outcome.terms_found,
            postings_transferred=outcome.postings_transferred,
            detail={
                "sorted_accesses": outcome.sorted_accesses,
                "random_accesses": outcome.random_accesses,
                "rounds": outcome.rounds,
            },
        )


# -- centralized oracle ---------------------------------------------------------


@registry.backend("centralized")
class CentralizedBackend:
    """Single-node BM25 over the whole collection — the zero-network
    oracle baseline (the paper's Terrier stand-in for Figure 7)."""

    def __init__(self, context: BackendContext) -> None:
        self.context = context
        self._peers: list[Peer] = []
        self._engine: CentralizedBM25Engine | None = None
        self._index_started = False

    def index(self, peers: list[Peer]) -> list[IndexingReport]:
        _guard_double_index(self, self._index_started)
        self._index_started = True
        return self._absorb(peers)

    def add_peers(self, new_peers: list[Peer]) -> list[IndexingReport]:
        return self._absorb(new_peers)

    def _absorb(self, peers: list[Peer]) -> list[IndexingReport]:
        """Pull the peers' documents into the central index (rebuilt from
        scratch — a centralized engine has no incremental protocol)."""
        self._peers.extend(peers)
        merged = DocumentCollection()
        for peer in self._peers:
            merged.extend(peer.collection)
        self._engine = CentralizedBM25Engine(merged)
        reports: list[IndexingReport] = []
        for peer in peers:
            report = IndexingReport(peer_name=peer.name)
            report.inserted_postings_by_size[1] = sum(
                len(doc.distinct_terms) for doc in peer.collection
            )
            reports.append(report)
        return reports

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> SearchResponse:
        if self._engine is None:
            raise RetrievalError("call index() before search()")
        results = self._engine.search(query, k)
        found = sum(
            1 for term in query.terms if term in self._engine.index
        )
        return SearchResponse(
            query=query,
            backend=self.name,
            results=results,
            k=k,
            keys_looked_up=len(query.terms),
            keys_found=found,
            postings_transferred=0,  # answered locally, no network
        )

    def stats(self) -> dict[str, Any]:
        index = self._engine.index if self._engine else None
        return {
            "backend": self.name,
            "stored_postings": self.stored_postings_total(),
            "num_documents": index.num_documents() if index else 0,
            "distinct_terms": len(index) if index else 0,
        }

    def stored_postings_total(self) -> int:
        if self._engine is None:
            return 0
        return self._engine.index.total_postings()
