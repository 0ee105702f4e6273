"""The search-service facade.

:class:`SearchService` is the public entry point of the redesigned API:
it owns the text/query pipeline, a pluggable :class:`RetrievalBackend`
(chosen by name from the backend registry), an LRU query-result cache,
and per-query traffic accounting, and exposes three query surfaces:

- :meth:`SearchService.search` — one query, returning a
  :class:`~repro.engine.backends.SearchResponse` with timing, cache-hit
  flag, and the per-phase traffic it generated;
- :meth:`SearchService.search_batch` — a query batch (the heavy-traffic
  scenario): repeated term sets inside the batch are amortized through
  the cache and the report aggregates traffic, lookups, and hit rates;
- :meth:`SearchService.run_querylog` — replay a generated query log,
  returning the same per-query + aggregate report.

Typical use::

    from repro import SearchService
    from repro.corpus import SyntheticCorpusGenerator

    collection = SyntheticCorpusGenerator(seed=1).generate(600)
    service = SearchService.build(collection, num_peers=8, backend="hdk")
    service.index()
    response = service.search("t00042 t00137", k=10)
    report = service.search_batch(["t00042 t00137"] * 50)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..config import HDKParameters, ServiceConfig
from ..corpus.collection import DocumentCollection
from ..corpus.querylog import Query
from ..errors import ConfigurationError, RetrievalError
from ..hdk.indexer import IndexingReport
from ..index.global_index import GlobalKeyIndex
from ..net.accounting import (
    Phase,
    TrafficAccounting,
    TrafficSnapshot,
    empty_snapshot,
    merge_snapshots,
)
from ..net.chord import ChordOverlay, Overlay
from ..net.network import P2PNetwork
from ..net.pgrid import PGridOverlay
from ..obs.metrics import LatencyHistogram
from ..obs.trace import current_span, get_tracer
from ..replication import (
    AntiEntropyRepairer,
    RepairReport,
    ReplicaFailoverRouter,
    ReplicationManager,
)
from ..retrieval.cache import CacheStats, QueryResultCache
from ..retrieval.query import QueryProcessor
from ..store import snapshot as snapshot_io
from ..store.spill import SpillingGlobalKeyIndex
from ..text.pipeline import PipelineConfig, TextPipeline
from .backends import (
    BackendContext,
    BackendRegistry,
    RetrievalBackend,
    SearchResponse,
    registry as default_registry,
)
from .peer import Peer

__all__ = [
    "BatchSearchReport",
    "SearchService",
    "make_overlay",
    "spawn_peers",
]


def make_overlay(overlay: str) -> Overlay:
    """Resolve an overlay name (``"chord"`` or ``"pgrid"``)."""
    if overlay == "chord":
        return ChordOverlay()
    if overlay == "pgrid":
        return PGridOverlay()
    raise ConfigurationError(
        f"unknown overlay {overlay!r}; use 'chord' or 'pgrid'"
    )


def spawn_peers(
    network: P2PNetwork,
    collection: DocumentCollection,
    num_peers: int,
    start: int = 0,
) -> list[Peer]:
    """Split ``collection`` across ``num_peers`` new peers registered
    with ``network``, named ``peer-NNN`` from index ``start``."""
    peers: list[Peer] = []
    # One router rebuild for the whole wave, not one per joiner.
    with network.membership_batch():
        for offset, slice_ in enumerate(collection.split(num_peers)):
            name = f"peer-{start + offset:03d}"
            network.add_peer(name)
            peers.append(Peer(name=name, collection=slice_))
    return peers


class _InFlightQuery:
    """A single-flight slot: one in-progress backend resolution that
    concurrent identical queries (same term set, depth <= ``k``) wait
    on instead of hitting the index again."""

    __slots__ = ("k", "done")

    def __init__(self, k: int) -> None:
        self.k = k
        self.done = threading.Event()


@dataclass
class BatchSearchReport:
    """Per-query responses plus batch-level aggregates.

    Attributes:
        responses: one :class:`SearchResponse` per query, in order.
        traffic: the merge of the responses' per-phase traffic (cache
            hits generate none).
        elapsed_ms: wall-clock time for the whole batch.
        cache_hits / cache_misses: cache outcomes inside this batch.
    """

    responses: list[SearchResponse] = field(default_factory=list)
    traffic: TrafficSnapshot | None = None
    elapsed_ms: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def num_queries(self) -> int:
        return len(self.responses)

    @property
    def total_postings_transferred(self) -> int:
        """Network traffic of the batch in postings (cache hits count
        zero — they were served locally)."""
        return sum(r.postings_transferred for r in self.responses)

    @property
    def mean_postings_per_query(self) -> float:
        if not self.responses:
            return 0.0
        return self.total_postings_transferred / len(self.responses)

    @property
    def total_keys_looked_up(self) -> int:
        """Index lookups actually issued (cache hits issue none)."""
        return sum(r.keys_looked_up for r in self.responses)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_elapsed_ms(self) -> float:
        if not self.responses:
            return 0.0
        return sum(r.elapsed_ms for r in self.responses) / len(
            self.responses
        )


class SearchService:
    """The facade tying pipeline, backend, cache, and accounting together.

    Build via :meth:`build` (which also constructs the simulated
    network), or construct directly around an existing network and peer
    split.  Then :meth:`index` once and query via :meth:`search`,
    :meth:`search_batch`, or :meth:`run_querylog`.

    Args:
        peers: the initial peer population with their local collections.
        network: the shared simulated network.
        params: HDK model parameters (forwarded to the backend).
        backend: a backend *name* resolved through ``backend_registry``,
            or an already-constructed :class:`RetrievalBackend` instance.
        pipeline: the text pipeline queries are processed with; must
            match the one used to build the collections.
        backend_registry: the registry names are resolved against
            (defaults to the module-level registry with the built-in
            backends).
        config: the deployment knobs (cache, store, overlay,
            replication, ...), declared and documented once in
            :class:`~repro.config.ServiceConfig`; defaults when omitted.
        **knobs: individual :class:`~repro.config.ServiceConfig` fields
            by name, overriding ``config`` (``cache_capacity=None``,
            ``overlay_fanout=4``, ...); an unknown name is a
            :class:`TypeError`, an out-of-range value a
            :class:`ConfigurationError`, both before anything is built.
    """

    def __init__(
        self,
        peers: list[Peer],
        network: P2PNetwork,
        params: HDKParameters | None = None,
        backend: str | RetrievalBackend = "hdk",
        pipeline: TextPipeline | None = None,
        backend_registry: BackendRegistry | None = None,
        config: ServiceConfig | None = None,
        **knobs: Any,
    ) -> None:
        config = replace(config or ServiceConfig(), **knobs)
        if not peers:
            raise ConfigurationError("service needs at least one peer")
        self.config = config
        self.peers = list(peers)
        self.network = network
        self.params = params or HDKParameters()
        self.pipeline = pipeline or TextPipeline(PipelineConfig())
        self.query_processor = QueryProcessor(self.pipeline)
        #: The effective replica count (the config's ``None`` resolved).
        self.replication = replication = config.replication or 1
        # The manager must exist before the backend is constructed so
        # snapshot population and backend-internal placement see it; the
        # failover wrapper is installed after, so it can wrap whatever
        # routing policy the backend installs (hdk_super's hierarchy).
        self.replication_manager: ReplicationManager | None = (
            ReplicationManager(network, replication).install()
            if replication > 1
            else None
        )
        reg = backend_registry or default_registry
        if isinstance(backend, str):
            context = BackendContext(network, self.params, config)
            self.backend: RetrievalBackend = reg.create(backend, context)
        else:
            self.backend = backend
        if self.replication_manager is not None:
            network.router = ReplicaFailoverRouter(
                self.replication_manager, inner=network.router
            )
            self._repairer: AntiEntropyRepairer | None = AntiEntropyRepairer(
                network, self.replication_manager
            )
        else:
            self._repairer = None
        self.cache: QueryResultCache | None = (
            QueryResultCache(config.cache_capacity)
            if config.cache_capacity
            else None
        )
        self._indexed = False
        self._reports: list[IndexingReport] = []
        # Concurrency design (short critical sections): only the cache
        # lookup/fill and the single-flight table are serialized, under
        # this fine-grained lock; the backend section of a query runs
        # fully concurrent, with its own RETRIEVAL charge keeping its
        # traffic exact (see repro.net.accounting).
        self._cache_lock = threading.Lock()
        #: In-flight backend computations by term set (single-flight:
        #: concurrent identical queries wait for one resolution).
        self._inflight: dict[frozenset[str], _InFlightQuery] = {}
        #: Service-side latency distribution over every search() call
        #: (hits and misses alike); :meth:`stats` exposes its state so
        #: the serving gateway can merge the per-worker histograms.
        self._latency_lock = threading.Lock()
        self._latency = LatencyHistogram()

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        collection: DocumentCollection,
        num_peers: int,
        backend: str = "hdk",
        params: HDKParameters | None = None,
        overlay: str = "chord",
        pipeline: TextPipeline | None = None,
        accounting: TrafficAccounting | None = None,
        backend_registry: BackendRegistry | None = None,
        config: ServiceConfig | None = None,
        **knobs: Any,
    ) -> "SearchService":
        """Build a service over ``collection`` split across ``num_peers``.

        Args:
            collection: the global document collection.
            num_peers: how many peers share it (round-robin split).
            backend: backend *name* (``hdk``, ``hdk_disk``,
                ``single_term``, ``single_term_bloom``, ``topk``,
                ``centralized``).  An instance is rejected here: a
                pre-constructed backend is bound to the network it was
                built with, which cannot be the one this method creates —
                construct :class:`SearchService` directly around that
                network instead.
            params: HDK model parameters (paper defaults when omitted).
            overlay: ``"chord"`` or ``"pgrid"``.
            pipeline: the query text pipeline.
            accounting: shared traffic counters (created when omitted).
            backend_registry: custom registry for name resolution.
            config / **knobs: deployment knobs, as for the constructor
                (see :class:`~repro.config.ServiceConfig`).
        """
        config = replace(config or ServiceConfig(), **knobs)
        if not isinstance(backend, str):
            raise ConfigurationError(
                "build() creates its own network, so it only accepts a "
                "backend name; pass a backend instance to SearchService() "
                "together with the network it was constructed for"
            )
        if num_peers < 1:
            raise ConfigurationError(
                f"num_peers must be >= 1, got {num_peers}"
            )
        network = P2PNetwork(
            overlay=make_overlay(overlay), accounting=accounting
        )
        peers = spawn_peers(network, collection, num_peers)
        return cls(
            peers,
            network,
            params=params,
            backend=backend,
            pipeline=pipeline,
            backend_registry=backend_registry,
            config=config,
        )

    # -- indexing ----------------------------------------------------------------

    def index(self) -> list[IndexingReport]:
        """Run the backend's indexing protocol over the initial peers.

        Runs exactly once per service: a second call would replay the
        whole publication protocol into the already-populated index
        (duplicate inserts, double-counted statistics), so double-build
        is an explicit :class:`ConfigurationError` — both here and at
        the backend seam — rather than a silent re-run.  Grow an indexed
        service with :meth:`add_peers`.
        """
        if self._indexed:
            raise ConfigurationError(
                "service is already indexed; index() runs once — grow "
                "with add_peers() or build a fresh service to rebuild"
            )
        self._reports = self.backend.index(self.peers)
        self._indexed = True
        return self._reports

    def add_peers(
        self, new_collection: DocumentCollection, num_new_peers: int
    ) -> list[IndexingReport]:
        """Grow the network: new peers join with new documents and index
        them incrementally; the query cache is invalidated."""
        if not self._indexed:
            raise ConfigurationError(
                "index() the initial network before add_peers()"
            )
        if num_new_peers < 1:
            raise ConfigurationError(
                f"num_new_peers must be >= 1, got {num_new_peers}"
            )
        new_peers = spawn_peers(
            self.network, new_collection, num_new_peers, start=len(self.peers)
        )
        reports = self.backend.add_peers(new_peers)
        self.peers.extend(new_peers)
        self._reports.extend(reports)
        if self.cache is not None:
            self.cache.invalidate()
        return reports

    # -- querying ----------------------------------------------------------------

    def search(
        self,
        raw_query: str | Query,
        k: int = 20,
        source_peer: str | None = None,
    ) -> SearchResponse:
        """Execute one query through cache + backend.

        Args:
            raw_query: a raw query string (processed through the
                service's pipeline) or an already-processed
                :class:`Query`.
            k: result depth.
            source_peer: the querying peer's name; defaults to the first
                peer.

        Returns a :class:`SearchResponse` carrying the ranked results,
        the traffic the query generated, wall-clock timing, and
        whether it was served from the cache.

        Thread-safe, and concurrent calls genuinely overlap: only the
        cache lookup/fill runs under a lock; the backend section runs
        outside it under the query's own RETRIEVAL charge, so each
        response's ``traffic`` is exactly the messages its own backend
        call generated.  Concurrent calls for the *same* term set are
        de-duplicated (single-flight): one caller resolves against the
        index, the others wait and are served as cache hits.

        When tracing is active (see :mod:`repro.obs`) the call records a
        ``service.search`` span with cache-hit / single-flight
        attribution and a ``service.backend`` child covering the backend
        section; the no-trace path adds only a guard check and one
        histogram observation.
        """
        tracer = get_tracer()
        if not tracer.active:
            response = self._search_impl(raw_query, k, source_peer)
            self._observe_latency(response.elapsed_ms)
            return response
        with tracer.span("service.search", k=k) as span:
            response = self._search_impl(raw_query, k, source_peer)
            span.set_attrs(
                backend=self.backend.name,
                cache_hit=response.cache_hit,
                query=" ".join(sorted(response.query.term_set))
                if response.query is not None
                else "",
                postings_transferred=response.postings_transferred,
            )
        self._observe_latency(response.elapsed_ms)
        return response

    def _observe_latency(self, elapsed_ms: float) -> None:
        with self._latency_lock:
            self._latency.observe(elapsed_ms)

    def _search_impl(
        self,
        raw_query: str | Query,
        k: int,
        source_peer: str | None,
    ) -> SearchResponse:
        if not self._indexed:
            raise RetrievalError("call index() before search()")
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        query = self._process(raw_query)  # pipeline work outside the lock
        source = source_peer or self.peers[0].name
        started = time.perf_counter()
        if self.cache is None:
            # No cache, no single-flight: every call pays the backend.
            return self._backend_search(source, query, k, started)
        while True:
            with self._cache_lock:
                cached = self.cache.try_hit(query, k)
                if cached is None:
                    flight = self._inflight.get(query.term_set)
                    if flight is None or flight.k < k:
                        # Become the leader for this term set (a deeper
                        # request supersedes a shallower in-flight one).
                        self.cache.note_miss()
                        flight = _InFlightQuery(k)
                        self._inflight[query.term_set] = flight
                        break
            if cached is not None:
                # Shape the hit outside the lock: clipping copies the
                # result list, and concurrent lookups must not queue
                # behind per-hit copies (cached payloads are never
                # mutated, so no lock is needed to read one).
                return self._hit_response(cached, query, k, started)
            # Follower: an identical term set is already resolving.
            # Wait outside the lock, then retry the cache (the leader
            # fills it before signalling; on leader failure or eviction
            # the retry simply becomes the new leader).
            span = current_span()
            if span is not None:
                span.set_attr("flight", "follower")
            flight.done.wait()
        span = current_span()
        if span is not None:
            span.set_attr("flight", "leader")
        try:
            response = self._backend_search(source, query, k, started)
            # Cache a copy, not the object handed to the caller: a
            # caller mutating response.results must not poison hits.
            # The cache is internally locked and followers only read it
            # after flight.done below, so the fill runs outside
            # _cache_lock — other queries' lookups must not queue
            # behind this clip-and-insert.
            self.cache.put(
                query,
                k,
                response.clipped(k),
                response.postings_transferred,
            )
            return response
        finally:
            with self._cache_lock:
                if self._inflight.get(query.term_set) is flight:
                    del self._inflight[query.term_set]
            flight.done.set()

    def _backend_search(
        self, source: str, query: Query, k: int, started: float
    ) -> SearchResponse:
        """The concurrent section: backend resolution under the query's
        RETRIEVAL charge (no service lock held)."""
        tracer = get_tracer()
        if not tracer.active:
            with self.network.accounting.charge(Phase.RETRIEVAL) as charge:
                response = self.backend.search(source, query, k)
            response.traffic = charge.snapshot()
            response.elapsed_ms = _ms_since(started)
            return response
        with tracer.span(
            "service.backend", backend=self.backend.name, source=source
        ) as span:
            with self.network.accounting.charge(Phase.RETRIEVAL) as charge:
                response = self.backend.search(source, query, k)
            response.traffic = charge.snapshot()
            span.set_attrs(
                keys_looked_up=response.keys_looked_up,
                keys_found=response.keys_found,
                postings=response.postings_transferred,
            )
        response.elapsed_ms = _ms_since(started)
        return response

    @staticmethod
    def _hit_response(
        cached: SearchResponse, query: Query, k: int, started: float
    ) -> SearchResponse:
        """Shape a cached payload into this call's response."""
        response = cached.clipped(k)
        response.query = query  # the caller's query object
        response.cache_hit = True
        # Cost fields describe THIS call: a hit is served locally,
        # issuing zero lookups and zero transfers.
        response.postings_transferred = 0
        response.keys_looked_up = 0
        response.keys_found = 0
        response.dk_keys = 0
        response.ndk_keys = 0
        response.traffic = empty_snapshot()
        response.elapsed_ms = _ms_since(started)
        return response

    def search_batch(
        self,
        queries: Sequence[str | Query],
        k: int = 20,
        source_peer: str | None = None,
    ) -> BatchSearchReport:
        """Execute a batch of queries, amortizing repeats via the cache.

        This is the heavy-traffic surface: identical term sets inside
        the batch resolve against the index only once (when the cache is
        enabled — the first occurrence pays the backend, every repeat is
        a cache hit), and the report aggregates traffic, index lookups,
        timing, and cache outcomes across the batch.  Responses keep the
        input order, and each carries its own per-query traffic.

        Args:
            queries: raw strings or processed :class:`Query` objects.
            k: result depth.
            source_peer: the querying peer (defaults to the first).
        """
        if not self._indexed:
            raise RetrievalError("call index() before search_batch()")
        started = time.perf_counter()
        hits_before, misses_before = self._cache_counters()
        report = BatchSearchReport()
        for raw in queries:
            report.responses.append(
                self.search(raw, k=k, source_peer=source_peer)
            )
        report.traffic = merge_snapshots(
            *(response.traffic for response in report.responses)
        )
        report.elapsed_ms = _ms_since(started)
        hits_after, misses_after = self._cache_counters()
        report.cache_hits = hits_after - hits_before
        report.cache_misses = misses_after - misses_before
        return report

    def run_querylog(
        self,
        querylog: Iterable[Query],
        k: int = 20,
        source_peer: str | None = None,
    ) -> BatchSearchReport:
        """Replay a generated query log (see
        :class:`repro.corpus.querylog.QueryLogGenerator`); returns the
        same per-query + aggregate report as :meth:`search_batch`."""
        return self.search_batch(list(querylog), k=k, source_peer=source_peer)

    # -- fault tolerance ---------------------------------------------------------

    def kill_peer(self, peer_name: str) -> None:
        """Crash a peer: its storage is destroyed without handoff (see
        :meth:`P2PNetwork.kill_peer`).  With ``replication >= 2`` reads
        fail over to the surviving replicas; the query cache is dropped
        so post-crash responses reflect the degraded network."""
        self.network.kill_peer(peer_name)
        if self.cache is not None:
            self.cache.invalidate()

    def respawn_peer(self, peer_name: str) -> None:
        """Revive a crashed peer with empty storage; run
        :meth:`run_anti_entropy` to re-converge it from its replica
        peers."""
        self.network.respawn_peer(peer_name)
        if self.cache is not None:
            self.cache.invalidate()

    def run_anti_entropy(self) -> RepairReport:
        """One anti-entropy pass: replicas of every key range exchange
        Merkle digests (MAINTENANCE-phase traffic) and ship only their
        divergent keys.  The service-level repair cadence: call after
        crashes/respawns, or periodically under churn.

        Raises:
            ConfigurationError: the service runs unreplicated.
        """
        if self._repairer is None:
            raise ConfigurationError(
                "anti-entropy repair needs replication >= 2; this "
                "service was built with replication=1"
            )
        report = self._repairer.run()
        if self.cache is not None:
            # Repair may have refreshed entries a failover read would
            # now see differently.
            self.cache.invalidate()
        return report

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path, sync: bool | None = None) -> None:
        """Persist the indexed collection as a snapshot directory.

        The snapshot (manifest + ranking statistics + a compacted
        segment store of every global-index entry) is self-contained:
        :meth:`load` rebuilds a queryable service from it without
        re-running the indexing protocol — the build-once / serve-many
        workflow.  Only the HDK-family backends (``hdk``, ``hdk_disk``,
        ``hdk_super``) persist; the baselines raise.

        Args:
            path: the snapshot directory (must not hold one already).
            sync: fsync the snapshot's segment files as they close and
                the manifest after it is written, so the completed save
                survives power loss; ``None`` inherits the service's
                construction-time ``sync`` setting.

        Raises:
            ConfigurationError: unindexed service or a backend without a
                global key index.
            StoreError: ``path`` already holds a snapshot.
        """
        if not self._indexed:
            raise ConfigurationError(
                "index() (or load()) the service before save()"
            )
        global_index = getattr(self.backend, "global_index", None)
        if not isinstance(global_index, GlobalKeyIndex):
            raise ConfigurationError(
                f"backend {self.backend_name!r} does not support "
                f"persistence; use 'hdk', 'hdk_disk', or 'hdk_super'"
            )
        overlay_name = (
            "pgrid"
            if isinstance(self.network.overlay, PGridOverlay)
            else "chord"
        )
        snapshot_io.save_index_snapshot(
            path,
            backend_name=self.backend_name,
            overlay_name=overlay_name,
            peer_names=[peer.name for peer in self.peers],
            params=self.params.as_dict(),
            global_index=global_index,
            sync=self.config.sync if sync is None else sync,
            replication=self.replication,
            replication_state=(
                self.replication_manager.export_state()
                if self.replication_manager is not None
                else {}
            ),
        )

    @classmethod
    def load(
        cls,
        path: str | Path,
        backend: str | None = None,
        pipeline: TextPipeline | None = None,
        backend_registry: BackendRegistry | None = None,
        config: ServiceConfig | None = None,
        **knobs: Any,
    ) -> "SearchService":
        """Rebuild a queryable service from a :meth:`save` snapshot.

        The network (overlay type, peer names), parameters, entries, and
        ranking statistics all come from the snapshot; no indexing
        traffic is generated.  With the ``hdk_disk`` backend the
        snapshot's segment files are served *in place*: startup rebuilds
        the offset directory from each segment's ``.idx`` sidecar —
        O(segments) metadata reads, no record bodies touched.  Legacy
        generation-1 snapshots (no sidecars) are checksum-scanned once
        and self-heal their sidecars where the directory is writable;
        either way no posting-list objects are decoded until queried.  Auto-compaction is disabled on the snapshot-backed
        store so serving (and even later inserts, which only append)
        never deletes the snapshot's segment files.

        Args:
            path: the snapshot directory.
            backend: override the backend recorded in the manifest
                (``hdk`` and ``hdk_super`` load eagerly into RAM,
                ``hdk_disk`` lazily).
            pipeline: query text pipeline (must match the one the
                collection was built with).
            backend_registry: custom registry for name resolution.
            config / **knobs: deployment knobs of the loaded service, as
                for the constructor (see
                :class:`~repro.config.ServiceConfig`): ``sync`` and
                ``wal`` govern its own later writes, and
                ``replication=None`` keeps the degree recorded in the
                manifest.

        Raises:
            ConfigurationError: ``store_dir`` is set — the snapshot's
                own ``segments/`` directory is the store.

        Note: peers of a loaded service carry empty local collections
        (the snapshot persists the *index*, not the documents), so a
        later :meth:`add_peers` indexes only the joining peers' documents
        and cannot replay NDK-expansion at pre-snapshot contributors.
        With ``hdk_disk``, :meth:`add_peers` also appends spilled
        entries into the snapshot's ``segments/`` directory — treat a
        snapshot that keeps growing as owned by one service, and
        :meth:`save` a fresh copy to publish it.
        """
        config = replace(config or ServiceConfig(), **knobs)
        if config.store_dir is not None:
            raise ConfigurationError(
                f"store_dir cannot be set when loading ({config.store_dir}): "
                "a snapshot is served from its own segments/ directory"
            )
        manifest = snapshot_io.read_manifest(path)
        params = HDKParameters.from_dict(manifest.params)
        network = P2PNetwork(overlay=make_overlay(manifest.overlay))
        peers: list[Peer] = []
        for name in manifest.peer_names:
            network.add_peer(name)
            peers.append(Peer(name=name, collection=DocumentCollection()))
        backend_name = backend or manifest.backend
        service = cls(
            peers,
            network,
            params=params,
            backend=backend_name,
            pipeline=pipeline,
            backend_registry=backend_registry,
            config=replace(
                config,
                store_dir=snapshot_io.segments_dir(path),
                replication=config.replication or manifest.replication,
            ),
        )
        global_index = getattr(service.backend, "global_index", None)
        restore = getattr(service.backend, "restore", None)
        if restore is None or not isinstance(global_index, GlobalKeyIndex):
            raise ConfigurationError(
                f"backend {backend_name!r} cannot serve snapshots; "
                f"use 'hdk', 'hdk_disk', or 'hdk_super'"
            )
        if isinstance(global_index, SpillingGlobalKeyIndex):
            # Never let compaction unlink the snapshot's own segment
            # files (a concurrent reader of the same snapshot would
            # lose them); writes, if any, only append.
            global_index.store.compact_dead_ratio = 1.0
            snapshot_io.populate_lazy(path, global_index)
        else:
            snapshot_io.populate_eager(path, global_index)
        restore()
        manager = service.replication_manager
        if manager is not None:
            # Resume replication where the saved service left off: the
            # persisted sequence numbers/vectors (when the snapshot was
            # replicated) plus uniform per-key versions for the freshly
            # placed — convergent by construction — replica copies, so a
            # first anti-entropy pass ships nothing.
            if (
                manifest.replication_state
                and manifest.replication == service.replication
            ):
                manager.restore_state(manifest.replication_state)
            manager.seed_versions_from_storage()
        service._indexed = True
        return service

    # -- inspection --------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def indexing_reports(self) -> list[IndexingReport]:
        return list(self._reports)

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative cache counters (zeros when caching is disabled)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    def stats(self) -> dict[str, object]:
        """Service-level statistics: backend index stats, peer count,
        cache counters, and the cumulative traffic snapshot.

        Returns *plain data only* — scalars, strings, and nested dicts
        of the same — snapshotting every counter instead of exposing
        live internals.  That keeps the call cheap and the result
        picklable/JSON-able as-is, which is what lets the serving
        workers (:mod:`repro.serving.pool`) report service statistics
        across the process boundary and the gateway publish them
        verbatim on ``GET /stats``.
        """
        stats: dict[str, object] = dict(self.backend.stats())
        stats["num_peers"] = len(self.peers)
        stats["cache_hits"] = self.cache_stats.hits
        stats["cache_misses"] = self.cache_stats.misses
        with self._latency_lock:
            stats["latency"] = self._latency.as_dict()
            # Lossless twin of "latency": the serving gateway rebuilds
            # per-worker histograms from this and merges them into one
            # fleet-wide distribution on GET /stats.
            stats["latency_state"] = self._latency.to_state()
        stats["traffic"] = self.network.accounting.snapshot().as_dict()
        stats["replication"] = self.replication
        if self.replication_manager is not None:
            stats["replication_detail"] = (
                self.replication_manager.describe()
            )
        return stats

    def stored_postings_total(self) -> int:
        return self.backend.stored_postings_total()

    # -- figure measurements -------------------------------------------------------
    # The per-peer / per-size aggregations the Section-5 growth
    # experiment plots.

    def stored_postings_per_peer(self) -> float:
        """Average postings stored per peer (Figure 3's y-axis)."""
        return self.stored_postings_total() / max(1, len(self.peers))

    def inserted_postings_total(self) -> int:
        """Total postings inserted during indexing (Figure 4 numerator,
        from the network's INDEXING-phase accounting)."""
        return self.network.accounting.postings(Phase.INDEXING)

    def inserted_postings_per_peer(self) -> float:
        """Average postings inserted per peer (Figure 4's y-axis)."""
        return self.inserted_postings_total() / max(1, len(self.peers))

    def inserted_postings_by_key_size(self) -> dict[int, int]:
        """Key size -> postings inserted across all peers (Figure 5)."""
        totals: dict[int, int] = {}
        for report in self._reports:
            for size, postings in report.inserted_postings_by_size.items():
                totals[size] = totals.get(size, 0) + postings
        return totals

    def collection_sample_size(self) -> int:
        """Global sample size ``D`` (Figure 5's denominator)."""
        return sum(peer.sample_size for peer in self.peers)

    # -- internals ---------------------------------------------------------------

    def _process(self, raw_query: str | Query) -> Query:
        if isinstance(raw_query, Query):
            return raw_query
        return self.query_processor.process(raw_query)

    def _cache_counters(self) -> tuple[int, int]:
        if self.cache is None:
            return 0, 0
        return self.cache.stats.hits, self.cache.stats.misses


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0
