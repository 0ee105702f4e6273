"""repro — reproduction of "Scalable Peer-to-Peer Web Retrieval with
Highly Discriminative Keys" (Podnar, Rajman, Luu, Klemm, Aberer;
ICDE 2007).

The package implements the paper's HDK indexing/retrieval model and every
substrate it runs on: the text pipeline, a synthetic Wikipedia-like corpus
and query log, the structured P2P overlay simulators (Chord ring and
P-Grid trie) with posting-level traffic accounting, the distributed global
key index, the HDK generator, and the Section-4 scalability analysis.

Retrieval is organized around a pluggable backend seam: the
:class:`repro.engine.backends.RetrievalBackend` protocol with a
string-keyed registry (``hdk``, ``hdk_disk``, ``single_term``,
``single_term_bloom``, ``topk``, ``centralized``), fronted by
:class:`SearchService` — the facade owning the query pipeline, an LRU
result cache, and traffic accounting, with single, batch, and
query-log search surfaces, plus ``save``/``load``
snapshots backed by the :mod:`repro.store` segmented disk store.

Every tier is observable through :mod:`repro.obs`: a contextvars-based
:class:`Tracer` follows a query from the HTTP gateway through the
worker pool, the service, each overlay hop, and the disk store (one
span per hop the traffic accounting charges), and a process-wide
:class:`MetricsHub` unifies counters, gauges, and mergeable latency
histograms.  Tracing is off by default and costs nothing when off.

Quickstart::

    from repro import HDKParameters, SearchService
    from repro.corpus import SyntheticCorpusGenerator

    collection = SyntheticCorpusGenerator(seed=1).generate(600)
    params = HDKParameters(df_max=12, window_size=8, s_max=3, ff=4_000)
    service = SearchService.build(
        collection, num_peers=8, backend="hdk", params=params)
    service.index()
    response = service.search("t00042 t00137", k=10)
    for ranked in response.results:
        print(ranked.doc_id, f"{ranked.score:.3f}")
    report = service.search_batch(["t00042 t00137", "t00003 t00104"])
    print(report.total_postings_transferred, report.cache_hit_rate)
"""

from .config import (
    ExperimentParameters,
    HDKParameters,
    PAPER_PARAMETERS,
    SMALL_SCALE_PARAMETERS,
)
from .engine.backends import (
    BackendContext,
    BackendRegistry,
    RetrievalBackend,
    SearchResponse,
    registry,
)
from .engine.experiment import GrowthExperiment, GrowthStepResult
from .engine.service import BatchSearchReport, SearchService
from .errors import (
    AnalysisError,
    ConfigurationError,
    CorpusError,
    KeyGenerationError,
    NetworkError,
    ReproError,
    RetrievalError,
    StoreError,
)
from .indexing import IndexingPipeline
from .obs import (
    LatencyHistogram,
    MetricsHub,
    Tracer,
    get_hub,
    get_tracer,
    set_global_tracer,
)
from .overlay import HierarchicalRouter, SuperPeerTopology
from .replication import (
    AntiEntropyRepairer,
    MerkleTree,
    RepairReport,
    ReplicaFailoverRouter,
    ReplicaPlacement,
    ReplicationManager,
    VersionVector,
)
from .store import SegmentStore, SpillingGlobalKeyIndex

__version__ = "2.0.0"

__all__ = [
    "ExperimentParameters",
    "HDKParameters",
    "PAPER_PARAMETERS",
    "SMALL_SCALE_PARAMETERS",
    "BackendContext",
    "BackendRegistry",
    "BatchSearchReport",
    "GrowthExperiment",
    "GrowthStepResult",
    "HierarchicalRouter",
    "IndexingPipeline",
    "LatencyHistogram",
    "MetricsHub",
    "Tracer",
    "get_hub",
    "get_tracer",
    "set_global_tracer",
    "RetrievalBackend",
    "AntiEntropyRepairer",
    "MerkleTree",
    "RepairReport",
    "ReplicaFailoverRouter",
    "ReplicaPlacement",
    "ReplicationManager",
    "VersionVector",
    "SuperPeerTopology",
    "SearchResponse",
    "SearchService",
    "SegmentStore",
    "SpillingGlobalKeyIndex",
    "StoreError",
    "registry",
    "AnalysisError",
    "ConfigurationError",
    "CorpusError",
    "KeyGenerationError",
    "NetworkError",
    "ReproError",
    "RetrievalError",
    "__version__",
]
