"""Index construction (`repro.indexing`).

The distributed HDK build protocol as one deterministic three-stage
pipeline per round (extract → stage transmission → apply merges in peer
order).  See :mod:`repro.indexing.pipeline` for the stage contract and
:mod:`repro.indexing.verify` for the fingerprints that pin its outcome
— index contents, statistics directory, per-peer reports, traffic
totals.
"""

from .pipeline import IndexingPipeline
from .verify import (
    build_fingerprint,
    entries_fingerprint,
    postings_fingerprint,
    reports_fingerprint,
    termstats_fingerprint,
    traffic_fingerprint,
)

__all__ = [
    "IndexingPipeline",
    "build_fingerprint",
    "entries_fingerprint",
    "postings_fingerprint",
    "reports_fingerprint",
    "termstats_fingerprint",
    "traffic_fingerprint",
]
