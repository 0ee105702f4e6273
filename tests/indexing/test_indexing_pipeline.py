"""Unit tests for the indexing pipeline (`repro.indexing`)."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService, spawn_peers
from repro.errors import ConfigurationError, KeyGenerationError
from repro.hdk.indexer import PeerIndexer, run_distributed_indexing
from repro.index.global_index import GlobalKeyIndex
from repro.indexing import IndexingPipeline, build_fingerprint
from repro.net.accounting import Phase
from repro.net.chord import ChordOverlay
from repro.net.network import P2PNetwork

PARAMS = HDKParameters(df_max=6, window_size=8, s_max=3, ff=2_000, fr=2)


@pytest.fixture(scope="module")
def collection():
    config = SyntheticCorpusConfig(
        vocabulary_size=400, mean_doc_length=35, num_topics=6, zipf_skew=1.2
    )
    return SyntheticCorpusGenerator(config, seed=21).generate(80)


def _world(collection, num_peers=4):
    network = P2PNetwork(overlay=ChordOverlay())
    peers = spawn_peers(network, collection, num_peers)
    global_index = GlobalKeyIndex(network, PARAMS)
    indexers = [
        PeerIndexer(peer.name, peer.collection, global_index, PARAMS)
        for peer in peers
    ]
    return network, global_index, indexers


class TestPipelineConstruction:
    def test_rejects_empty_build(self):
        with pytest.raises(KeyGenerationError):
            IndexingPipeline().build([], PARAMS)

    def test_rejects_empty_join(self):
        with pytest.raises(KeyGenerationError):
            IndexingPipeline().join([], [], PARAMS)


class TestPipelineExecution:
    def test_wrapper_is_single_worker_pipeline(self, collection):
        """The classic entry point and an explicit pipeline are the
        same execution."""
        net_a, index_a, indexers_a = _world(collection)
        reports_a = run_distributed_indexing(indexers_a, PARAMS)
        net_b, index_b, indexers_b = _world(collection)
        reports_b = IndexingPipeline().build(indexers_b, PARAMS)
        assert build_fingerprint(
            index_a, reports_a, net_a.accounting.snapshot()
        ) == build_fingerprint(
            index_b, reports_b, net_b.accounting.snapshot()
        )

    def test_per_peer_traffic_partitions_indexing_totals(self, collection):
        """Every INDEXING-phase message is attributed to exactly one
        peer's report window — the per-stage windows neither drop nor
        double-count messages."""
        network, _, indexers = _world(collection)
        reports = IndexingPipeline().build(indexers, PARAMS)
        assert all(report.traffic is not None for report in reports)
        assert sum(
            report.traffic.postings_by_phase.get(Phase.INDEXING, 0)
            for report in reports
        ) == network.accounting.postings(Phase.INDEXING)
        assert sum(
            report.traffic.messages_by_phase.get(Phase.INDEXING, 0)
            for report in reports
        ) == network.accounting.messages(Phase.INDEXING)
        assert sum(
            report.traffic.hops_by_phase.get(Phase.INDEXING, 0)
            for report in reports
        ) == network.accounting.hops(Phase.INDEXING)
        # Reports never absorb maintenance traffic (spawn handoffs).
        assert all(
            report.traffic.maintenance_postings == 0 for report in reports
        )


class TestDoubleBuildIsExplicit:
    @pytest.mark.parametrize(
        "backend", ("hdk", "single_term", "centralized")
    )
    def test_backend_double_index_raises(self, collection, backend):
        service = SearchService.build(
            collection, num_peers=3, backend=backend, params=PARAMS
        )
        service.index()
        with pytest.raises(ConfigurationError, match="already ran"):
            service.backend.index(service.peers)

    def test_failed_index_cannot_be_retried_in_place(self, collection):
        """Even a *failed* build claims the backend: a retry would
        re-publish statistics and re-insert into the partial index, so
        it must raise instead of silently corrupting."""
        service = SearchService.build(
            collection, num_peers=3, backend="hdk", params=PARAMS
        )
        original_build = service.backend.pipeline.build

        def exploding_build(indexers, params):
            original_build(indexers, params)  # leave partial-ish state
            raise RuntimeError("injected post-build fault")

        service.backend.pipeline.build = exploding_build
        with pytest.raises(RuntimeError, match="injected"):
            service.index()
        service.backend.pipeline.build = original_build
        with pytest.raises(ConfigurationError, match="already ran"):
            service.backend.index(service.peers)

    def test_service_double_index_raises(self, collection):
        service = SearchService.build(
            collection, num_peers=3, backend="hdk", params=PARAMS
        )
        service.index()
        with pytest.raises(ConfigurationError, match="add_peers"):
            service.index()

    def test_add_peers_still_grows(self, collection):
        service = SearchService.build(
            collection, num_peers=3, backend="hdk", params=PARAMS
        )
        service.index()
        growth = SyntheticCorpusGenerator(
            SyntheticCorpusConfig(
                vocabulary_size=400,
                mean_doc_length=35,
                num_topics=6,
                zipf_skew=1.2,
            ),
            seed=77,
        ).generate(20)
        reports = service.add_peers(growth, 1)
        assert len(reports) == 1

    def test_loaded_service_rejects_index(self, collection, tmp_path):
        service = SearchService.build(
            collection, num_peers=3, backend="hdk", params=PARAMS
        )
        service.index()
        service.save(tmp_path / "snap")
        loaded = SearchService.load(tmp_path / "snap")
        with pytest.raises(ConfigurationError, match="already indexed"):
            loaded.index()
