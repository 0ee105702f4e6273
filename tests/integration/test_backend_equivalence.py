"""Cross-backend differential equivalence.

One parametrized suite (through ``tests/harness/equivalence.py``)
replacing the ad-hoc pairwise checks previously scattered across the
backend tests:

- a rebuild of the reference world, and ``replication=1`` on every
  backend, must be *byte-identical* (index contents, statistics
  directory, per-peer reports incl. traffic windows, global traffic
  counters, top-k, per-query traffic);
- across backends (``hdk`` vs ``hdk_disk`` vs ``hdk_super``) the
  routing-independent view must be identical: entries, statistics,
  report posting costs, indexing/retrieval posting totals, top-k, and
  per-query posting transfers.
"""

from __future__ import annotations

import pytest

from harness.equivalence import (
    assert_crash_tolerant,
    assert_fingerprints_equal,
    build_indexed_service,
    make_querylog,
    query_fingerprint,
    service_fingerprint,
)
from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)

PARAMS = HDKParameters(df_max=8, window_size=8, s_max=3, ff=3_000, fr=3)

NUM_PEERS = 6

#: Per-backend build kwargs; hdk_disk gets a tight budget so the run
#: genuinely exercises spilled entries, hdk_super a small fanout so the
#: hierarchy has several clusters.
BACKENDS: dict[str, dict] = {
    "hdk": {},
    "hdk_disk": {"memory_budget_bytes": 2_800},
    "hdk_super": {"overlay_fanout": 2},
}


@pytest.fixture(scope="module")
def collection():
    config = SyntheticCorpusConfig(
        vocabulary_size=600,
        mean_doc_length=40,
        num_topics=8,
        zipf_skew=1.2,
    )
    return SyntheticCorpusGenerator(config, seed=5).generate(150)


@pytest.fixture(scope="module")
def querylog(collection):
    return make_querylog(collection, PARAMS, num_queries=12)


@pytest.fixture(scope="module")
def reference(collection, querylog):
    """The canonical world: ``hdk``."""
    service = build_indexed_service(collection, "hdk", PARAMS, NUM_PEERS)
    return {
        "strict": service_fingerprint(service, strict=True),
        "results": service_fingerprint(service, strict=False),
        "queries_strict": query_fingerprint(
            service, querylog, strict=True
        ),
        "queries": query_fingerprint(service, querylog, strict=False),
    }


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_cross_backend_equivalence(reference, collection, querylog, backend):
    """Every backend against the canonical ``hdk`` world: the
    routing-independent view must be identical."""
    service = build_indexed_service(
        collection, backend, PARAMS, NUM_PEERS, **BACKENDS[backend]
    )
    assert_fingerprints_equal(
        reference["results"],
        service_fingerprint(service, strict=False),
        context=f"{backend} vs hdk",
    )
    assert_fingerprints_equal(
        reference["queries"],
        query_fingerprint(service, querylog, strict=False),
        context=f"{backend} queries vs hdk",
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_replication_one_is_byte_identical(collection, querylog, backend):
    """``replication=1`` must run the unreplicated stack verbatim: same
    build bytes, same query rows, same traffic counters — no manager, no
    failover wrapper, no replica messages."""
    implicit = build_indexed_service(
        collection, backend, PARAMS, NUM_PEERS, **BACKENDS[backend]
    )
    explicit = build_indexed_service(
        collection,
        backend,
        PARAMS,
        NUM_PEERS,
        replication=1,
        **BACKENDS[backend],
    )
    assert explicit.replication_manager is None
    assert_fingerprints_equal(
        service_fingerprint(implicit, strict=True),
        service_fingerprint(explicit, strict=True),
        context=f"{backend} replication=1 build",
    )
    assert_fingerprints_equal(
        query_fingerprint(implicit, querylog, strict=True),
        query_fingerprint(explicit, querylog, strict=True),
        context=f"{backend} replication=1 queries",
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_any_single_crash_is_invisible_at_r2(
    reference, collection, querylog, backend
):
    """The kill-peer fault-injection level: with ``replication=2`` the
    healthy replicated world matches the canonical unreplicated ``hdk``
    results, and *any* single peer crash leaves every query row
    byte-identical; each victim then respawns empty and re-converges
    through one anti-entropy pass."""
    service = build_indexed_service(
        collection,
        backend,
        PARAMS,
        NUM_PEERS,
        replication=2,
        **BACKENDS[backend],
    )
    healthy = assert_crash_tolerant(service, querylog, k=10)
    assert_fingerprints_equal(
        reference["queries"],
        healthy,
        context=f"{backend} replication=2 vs hdk",
    )


def test_strict_equals_itself_across_runs(collection, querylog, reference):
    """Rebuilding the reference world from scratch reproduces it bit
    for bit (the corpus/seed contract the harness rests on)."""
    service = build_indexed_service(collection, "hdk", PARAMS, NUM_PEERS)
    assert_fingerprints_equal(
        reference["strict"], service_fingerprint(service, strict=True)
    )
    assert_fingerprints_equal(
        reference["queries_strict"],
        query_fingerprint(service, querylog, strict=True),
    )
