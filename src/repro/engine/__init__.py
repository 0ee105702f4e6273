"""The assembled P2P retrieval engine and the Section-5 experiments.

- :mod:`repro.engine.peer` — a peer bundling its local collection with its
  indexing role,
- :mod:`repro.engine.backends` — the pluggable :class:`RetrievalBackend`
  protocol, the string-keyed backend registry, and the four built-in
  backends (``hdk``, ``single_term``, ``single_term_bloom``,
  ``centralized``),
- :mod:`repro.engine.service` — :class:`SearchService`, the public
  facade (pipeline + backend + query cache + traffic accounting) with
  single, batch, and query-log search surfaces,
- :mod:`repro.engine.experiment` — the peer-growth experiment protocol
  (4 -> 28 peers) producing the data series of Figures 3-7,
- :mod:`repro.engine.reporting` — typed result rows and text rendering.
"""

from .backends import (
    BackendContext,
    BackendRegistry,
    CentralizedBackend,
    HDKBackend,
    RetrievalBackend,
    SearchResponse,
    SingleTermBackend,
    SingleTermBloomBackend,
    registry,
)
from .experiment import GrowthExperiment, GrowthStepResult
from .peer import Peer
from .reporting import render_growth_table
from .service import BatchSearchReport, SearchService, make_overlay

__all__ = [
    "BackendContext",
    "BackendRegistry",
    "BatchSearchReport",
    "CentralizedBackend",
    "GrowthExperiment",
    "GrowthStepResult",
    "HDKBackend",
    "Peer",
    "RetrievalBackend",
    "SearchResponse",
    "SearchService",
    "SingleTermBackend",
    "SingleTermBloomBackend",
    "make_overlay",
    "registry",
    "render_growth_table",
]
