"""Retrieval engines and evaluation metrics.

- :mod:`repro.retrieval.query` — query processing (the same pipeline as
  indexing, Section 3.2 treats a query as a one-document collection),
- :mod:`repro.retrieval.centralized` — the centralized BM25 baseline
  (the paper's Terrier stand-in for Figure 7),
- :mod:`repro.retrieval.single_term` — the distributed single-term
  baseline whose retrieval traffic grows with the collection (Figure 6),
- :mod:`repro.retrieval.hdk_engine` — HDK retrieval: the query-lattice
  walk with bounded per-key transfers,
- :mod:`repro.retrieval.ranking` — distributed BM25-style result ranking
  from fetched posting payloads,
- :mod:`repro.retrieval.metrics` — top-k overlap and related measures.
"""

from .cache import CacheStats, QueryResultCache
from .centralized import CentralizedBM25Engine
from .hdk_engine import HDKRetrievalEngine, HDKSearchResult
from .metrics import precision_at_k, top_k_overlap
from .query import QueryProcessor
from .ranking import DistributedRanker, RankedResult
from .single_term import (
    STSearchOutcome,
    SingleTermIndexer,
    SingleTermRetrievalEngine,
)
from .single_term_bloom import BloomSearchOutcome, BloomSingleTermEngine
from .topk import DistributedTopKEngine, TopKOutcome

__all__ = [
    "DistributedTopKEngine",
    "TopKOutcome",
    "CacheStats",
    "QueryResultCache",
    "STSearchOutcome",
    "CentralizedBM25Engine",
    "HDKRetrievalEngine",
    "HDKSearchResult",
    "precision_at_k",
    "top_k_overlap",
    "QueryProcessor",
    "DistributedRanker",
    "RankedResult",
    "SingleTermIndexer",
    "SingleTermRetrievalEngine",
    "BloomSearchOutcome",
    "BloomSingleTermEngine",
]
