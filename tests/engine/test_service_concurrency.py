"""The query path's accounting claims, on one caller.

One caller drives a service at a time (parallelism is by process, see
``repro.serving.pool``).  Each query's backend section runs under its
own RETRIEVAL charge (see ``repro.net.accounting``), so each response's
``traffic`` is exactly the messages its own backend call generated, a
batch's traffic is the merge of its responses', and a join between two
batches carries exactly the traffic of a join with no searches around
it.
"""

from __future__ import annotations

import pytest

from repro.corpus.querylog import QueryLogGenerator
from repro.engine.service import SearchService
from repro.net.accounting import Phase, merge_snapshots
from tests.conftest import SMALL_PARAMS

BUDGET_BYTES = 1_750  # ~250 postings


def build(collection, backend, cache_capacity=None, **kwargs):
    service = SearchService.build(
        collection,
        num_peers=4,
        backend=backend,
        params=SMALL_PARAMS,
        cache_capacity=cache_capacity,
        **kwargs,
    )
    service.index()
    return service


def build_kwargs(backend):
    return (
        {"memory_budget_bytes": BUDGET_BYTES}
        if backend == "hdk_disk"
        else {}
    )


@pytest.fixture(scope="module")
def querylog(small_collection):
    """15 distinct queries plus repeats — the dedup-relevant shape."""
    distinct = QueryLogGenerator(
        small_collection,
        window_size=SMALL_PARAMS.window_size,
        min_hits=3,
        seed=17,
    ).generate(15)
    return distinct + [distinct[2], distinct[7], distinct[2]]


class TestBatchDeterminism:
    @pytest.mark.parametrize("case", ["hdk", "hdk_disk", "hdk+join"])
    def test_per_query_deltas_sum_to_batch_window(
        self, small_collection, querylog, case
    ):
        """A batch's traffic is the merge of its responses': no message
        is lost and none is counted twice.  With ``+join`` a join runs
        between two batches: none of its messages leaks into either
        batch, and its reports carry exactly the traffic of a join with
        no searches around it."""
        backend, _, join = case.partition("+")
        if not join:
            service = build(
                small_collection, backend, cache_capacity=64,
                **build_kwargs(backend),
            )
            report = service.search_batch(querylog, k=10)
            assert report.traffic == merge_snapshots(
                *(response.traffic for response in report.responses)
            )
            assert report.traffic.retrieval_postings > 0
            return
        ids = small_collection.doc_ids()
        initial = small_collection.subset(ids[:-4])
        held_out = small_collection.subset(ids[-4:])
        service = build(initial, backend)  # no cache: every query pays
        before = service.search_batch(querylog, k=10)
        joined = service.add_peers(held_out, 1)
        after = service.search_batch(querylog, k=10)
        for report in (before, after):
            assert report.traffic == merge_snapshots(
                *(response.traffic for response in report.responses)
            )
            assert Phase.INDEXING not in report.traffic.messages_by_phase
            assert report.traffic.retrieval_postings > 0
        alone = build(initial, backend).add_peers(held_out, 1)
        assert [r.traffic for r in joined] == [r.traffic for r in alone]

    def test_repeats_hit_cache(self, small_collection, querylog):
        service = build(small_collection, "hdk", cache_capacity=64)
        report = service.search_batch(querylog, k=10)
        # 15 distinct term sets miss, the 3 appended repeats hit.
        assert report.cache_misses == 15
        assert report.cache_hits == 3
        assert report.cache_hits + report.cache_misses == len(querylog)
        for resp in report.responses[15:]:
            assert resp.cache_hit
            assert resp.traffic.total_postings == 0


class _CountingBackend:
    """Delegating proxy that counts backend searches."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def search(self, source, query, k):
        self.calls += 1
        return self._inner.search(source, query, k)


class TestCacheDepth:
    def test_deeper_request_supersedes_shallower_entry(
        self, small_collection
    ):
        """A k=20 call after a cached k=5 must hit the backend again and
        upgrade the cached depth."""
        service = build(small_collection, "hdk", cache_capacity=64)
        probe = _CountingBackend(service.backend)
        service.backend = probe
        service.search("t00042 t00137", k=5)
        service.search("t00042 t00137", k=20)
        assert probe.calls == 2
        # The deeper entry now serves both depths.
        assert service.search("t00042 t00137", k=5).cache_hit
        assert service.search("t00042 t00137", k=20).cache_hit
        assert probe.calls == 2
