"""Tests for the disk-backed backend, snapshots, topk, and query batches."""

from __future__ import annotations

import pytest

from repro.corpus.querylog import QueryLogGenerator
from repro.engine.service import SearchService
from repro.errors import ConfigurationError, StoreError
from repro.net.pgrid import PGridOverlay
from repro.store.spill import SpillingGlobalKeyIndex
from tests.conftest import SMALL_PARAMS

#: Residency budget in encoded bytes: ~250 postings at the ~7 B a
#: posting costs here, a small fraction of the index.
BUDGET_BYTES = 1_750


def build(collection, backend, **kwargs):
    service = SearchService.build(
        collection,
        num_peers=4,
        backend=backend,
        params=SMALL_PARAMS,
        cache_capacity=None,
        **kwargs,
    )
    service.index()
    return service


@pytest.fixture(scope="module")
def querylog(small_collection):
    return QueryLogGenerator(
        small_collection,
        window_size=SMALL_PARAMS.window_size,
        min_hits=3,
        seed=17,
    ).generate(15)


@pytest.fixture(scope="module")
def hdk_service(small_collection):
    return build(small_collection, "hdk")


@pytest.fixture(scope="module")
def disk_service(small_collection):
    return build(
        small_collection, "hdk_disk", memory_budget_bytes=BUDGET_BYTES
    )


def rankings(service, queries, k=10):
    return [
        [(r.doc_id, round(r.score, 9)) for r in service.search(q, k=k).results]
        for q in queries
    ]


class TestDiskBackendParity:
    """Acceptance: hdk_disk == hdk results under a bounded RAM budget.

    Pairwise result/traffic parity goes through the shared differential
    harness (``tests/harness/equivalence.py``); the budget-specific
    checks below are what this file still owns.
    """

    def test_rankings_traffic_and_lookups_identical(
        self, hdk_service, disk_service, querylog
    ):
        from harness.equivalence import (
            assert_fingerprints_equal,
            query_fingerprint,
        )

        assert_fingerprints_equal(
            query_fingerprint(hdk_service, querylog, strict=True),
            query_fingerprint(disk_service, querylog, strict=True),
            context="hdk vs hdk_disk",
        )

    def test_memory_budget_held(self, disk_service, querylog):
        index = disk_service.backend.global_index
        assert isinstance(index, SpillingGlobalKeyIndex)
        for query in querylog:
            disk_service.search(query, k=10)
            assert index.spill_stats()["hot_charge"] <= BUDGET_BYTES
            assert index.store.cache.held_bytes <= BUDGET_BYTES

    def test_budget_is_a_fraction_of_stored(self, disk_service):
        # A posting encodes to at least two bytes (doc-id delta + tf).
        stored_bytes = 2 * disk_service.stored_postings_total()
        assert stored_bytes > 4 * BUDGET_BYTES  # the bound is binding

    def test_stats_expose_spill_counters(self, disk_service):
        stats = disk_service.stats()
        assert stats["backend"] == "hdk_disk"
        spill = stats["spill"]
        assert spill["memory_budget"] == BUDGET_BYTES
        assert spill["budget_unit"] == "bytes"
        assert spill["hot_charge"] <= BUDGET_BYTES
        assert spill["store"]["keys"] > 0


class TestSnapshotRoundTrip:
    def test_disk_save_load_identical(
        self, disk_service, hdk_service, querylog, tmp_path
    ):
        disk_service.save(tmp_path / "snap")
        loaded = SearchService.load(
            tmp_path / "snap",
            memory_budget_bytes=BUDGET_BYTES,
            cache_capacity=None,
        )
        assert loaded.backend_name == "hdk_disk"
        assert rankings(loaded, querylog) == rankings(hdk_service, querylog)

    def test_load_does_not_reindex(self, disk_service, tmp_path):
        disk_service.save(tmp_path / "snap")
        loaded = SearchService.load(tmp_path / "snap")
        snapshot = loaded.network.accounting.snapshot()
        assert snapshot.indexing_postings == 0
        assert loaded.stored_postings_total() == (
            disk_service.stored_postings_total()
        )
        # queryable immediately: no index() call, no error
        response = loaded.search("t00042 t00137", k=5)
        assert response.backend == "hdk_disk"

    def test_memory_backend_save_load(
        self, hdk_service, querylog, tmp_path
    ):
        hdk_service.save(tmp_path / "snap")
        loaded = SearchService.load(tmp_path / "snap", cache_capacity=None)
        assert loaded.backend_name == "hdk"
        assert rankings(loaded, querylog) == rankings(hdk_service, querylog)

    def test_cross_backend_load(self, disk_service, querylog, tmp_path):
        """A snapshot written by hdk_disk can be served by hdk and back."""
        disk_service.save(tmp_path / "snap")
        eager = SearchService.load(
            tmp_path / "snap", backend="hdk", cache_capacity=None
        )
        assert eager.backend_name == "hdk"
        assert rankings(eager, querylog) == rankings(disk_service, querylog)

    def test_manifest_metadata(self, disk_service, tmp_path):
        from repro.store import snapshot as snapshot_io

        disk_service.save(tmp_path / "snap")
        manifest = snapshot_io.read_manifest(tmp_path / "snap")
        assert manifest.backend == "hdk_disk"
        assert manifest.overlay == "chord"
        assert manifest.peer_names == [p.name for p in disk_service.peers]
        assert manifest.key_count > 0
        assert manifest.params["df_max"] == SMALL_PARAMS.df_max

    def test_pgrid_overlay_preserved(self, small_collection, tmp_path):
        service = SearchService.build(
            small_collection,
            num_peers=2,
            backend="hdk",
            params=SMALL_PARAMS,
            overlay="pgrid",
        )
        service.index()
        service.save(tmp_path / "snap")
        loaded = SearchService.load(tmp_path / "snap")
        assert isinstance(loaded.network.overlay, PGridOverlay)

    def test_loaded_snapshot_segments_never_deleted(
        self, disk_service, small_collection, querylog, tmp_path
    ):
        """Serving (and even post-load growth) must not compact away
        the snapshot's original segment files — a second service
        reading the same snapshot depends on them."""
        disk_service.save(tmp_path / "snap")
        segments = sorted(
            (tmp_path / "snap" / "segments").glob("segment-*.seg")
        )
        loaded = SearchService.load(
            tmp_path / "snap", memory_budget_bytes=350
        )
        store = loaded.backend.global_index.store
        assert store.compact_dead_ratio == 1.0
        for query in querylog[:5]:
            loaded.search(query, k=10)
        ids = small_collection.doc_ids()
        loaded.add_peers(small_collection.subset(ids[:40]), 1)
        for path in segments:
            assert path.exists()

    def test_save_refuses_overwrite(self, disk_service, tmp_path):
        disk_service.save(tmp_path / "snap")
        with pytest.raises(StoreError):
            disk_service.save(tmp_path / "snap")

    def test_save_requires_index(self, small_collection, tmp_path):
        service = SearchService.build(
            small_collection, num_peers=2, backend="hdk"
        )
        with pytest.raises(ConfigurationError):
            service.save(tmp_path / "snap")

    def test_baseline_backends_cannot_save(
        self, small_collection, tmp_path
    ):
        service = build(small_collection, "single_term")
        with pytest.raises(ConfigurationError):
            service.save(tmp_path / "snap")

    def test_load_missing_snapshot(self, tmp_path):
        with pytest.raises(StoreError):
            SearchService.load(tmp_path / "nothing-here")

    def test_incomplete_manifest_raises_store_error(
        self, disk_service, tmp_path
    ):
        import json

        disk_service.save(tmp_path / "snap")
        manifest_path = tmp_path / "snap" / "manifest.json"
        data = json.loads(manifest_path.read_text())
        del data["backend"]
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(StoreError):
            SearchService.load(tmp_path / "snap")

    def test_load_rejects_non_persisting_backend(
        self, disk_service, tmp_path
    ):
        disk_service.save(tmp_path / "snap")
        with pytest.raises(ConfigurationError):
            SearchService.load(tmp_path / "snap", backend="single_term")


class TestTopKBackend:
    def test_registered_and_searchable(self, small_collection, querylog):
        service = build(small_collection, "topk")
        response = service.search(querylog[0], k=10)
        assert response.backend == "topk"
        assert response.results
        assert response.keys_looked_up == len(querylog[0].terms)
        assert 0 < response.keys_found <= response.keys_looked_up
        assert response.detail["rounds"] >= 1
        assert response.postings_transferred == (
            response.detail["sorted_accesses"]
            + response.detail["random_accesses"]
        )

    def test_exact_topk_matches_centralized_set(
        self, small_collection, querylog
    ):
        """TA guarantees the exact BM25 top-k over the distributed
        single-term index; the centralized oracle over the same
        collection must surface the same document set."""
        topk = build(small_collection, "topk")
        oracle = build(small_collection, "centralized")
        for query in querylog[:5]:
            a = {r.doc_id for r in topk.search(query, k=5).results}
            b = {r.doc_id for r in oracle.search(query, k=5).results}
            assert a == b


class TestBatch:
    def test_per_query_windows_partition_the_batch(
        self, small_collection, querylog
    ):
        """Each response's traffic must equal its own transfer count,
        and the responses' traffic sums to the batch's."""
        service = build(small_collection, "hdk")
        report = service.search_batch(querylog, k=10)
        for response in report.responses:
            assert response.traffic is not None
            assert (
                response.traffic.retrieval_postings
                == response.postings_transferred
            )
        assert report.traffic.retrieval_postings == sum(
            r.postings_transferred for r in report.responses
        )

    def test_responses_keep_input_order(self, small_collection, querylog):
        service = build(small_collection, "hdk")
        report = service.search_batch(querylog, k=10)
        assert [r.query.query_id for r in report.responses] == [
            q.query_id for q in querylog
        ]

    def test_cache_amortizes_repeats(self, small_collection):
        service = SearchService.build(
            small_collection,
            num_peers=4,
            backend="hdk",
            params=SMALL_PARAMS,
            cache_capacity=64,
        )
        service.index()
        report = service.search_batch(["t00042 t00137"] * 12, k=5)
        assert report.cache_hits == 11
        assert report.cache_misses == 1

    def test_disk_backend_batch_matches_hdk(
        self, small_collection, querylog, hdk_service
    ):
        disk = build(
            small_collection, "hdk_disk", memory_budget_bytes=BUDGET_BYTES
        )
        report = disk.search_batch(querylog, k=10)
        reference = hdk_service.search_batch(querylog, k=10)
        assert [
            [r.doc_id for r in resp.results] for resp in report.responses
        ] == [
            [r.doc_id for r in resp.results]
            for resp in reference.responses
        ]
        spill = disk.backend.global_index.spill_stats()
        assert spill["hot_charge"] <= BUDGET_BYTES
