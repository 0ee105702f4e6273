"""The ``hdk_super`` backend: byte-identical results, improving traffic."""

from __future__ import annotations

import random

import pytest

from repro.config import HDKParameters, ServiceConfig
from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.engine.backends import registry
from repro.engine.service import SearchService
from repro.errors import ConfigurationError
from repro.net.accounting import Phase

PARAMS = HDKParameters(df_max=8, window_size=6, s_max=3, ff=3_000, fr=3)

CORPUS = SyntheticCorpusConfig(
    vocabulary_size=700, mean_doc_length=40, num_topics=8
)

NUM_PEERS = 12


@pytest.fixture(scope="module")
def collection():
    return SyntheticCorpusGenerator(CORPUS, seed=5).generate(240)


@pytest.fixture(scope="module")
def queries(collection):
    return QueryLogGenerator(
        collection, window_size=6, min_hits=3, seed=9
    ).generate(20)


@pytest.fixture(scope="module")
def zipf_log(queries):
    """The query log replayed with Zipf-skewed repeats, so lookups reach
    the path caches."""
    weights = [1.0 / rank for rank in range(1, len(queries) + 1)]
    return random.Random(3).choices(queries, weights, k=120)


def build(collection, backend: str, **kwargs) -> SearchService:
    service = SearchService.build(
        collection,
        num_peers=NUM_PEERS,
        backend=backend,
        params=PARAMS,
        cache_capacity=None,
        **kwargs,
    )
    service.index()
    return service


def run_queries(service: SearchService, queries, k: int = 10):
    """(rankings, cost fields, retrieval hops) over a query log."""
    rankings, costs, hops = [], [], 0
    for query in queries:
        response = service.search(query, k=k)
        rankings.append(
            [(r.doc_id, round(r.score, 12)) for r in response.results]
        )
        costs.append(
            (
                response.postings_transferred,
                response.keys_looked_up,
                response.keys_found,
                response.dk_keys,
                response.ndk_keys,
            )
        )
        hops += response.traffic.hops_by_phase.get(Phase.RETRIEVAL, 0)
    return rankings, costs, hops


@pytest.fixture(scope="module")
def flat_run(collection, queries):
    service = build(collection, "hdk")
    return service, run_queries(service, queries)


class TestParity:
    @pytest.mark.parametrize("fanout", [1, 3, 8, NUM_PEERS])
    def test_results_and_costs_identical_at_every_fanout(
        self, collection, queries, flat_run, fanout
    ):
        _, (flat_rankings, flat_costs, _) = flat_run
        service = build(collection, "hdk_super", overlay_fanout=fanout)
        rankings, costs, _ = run_queries(service, queries)
        assert rankings == flat_rankings
        assert costs == flat_costs

    def test_stored_postings_identical(self, collection, flat_run):
        flat_service, _ = flat_run
        service = build(collection, "hdk_super", overlay_fanout=4)
        assert (
            service.stored_postings_total()
            == flat_service.stored_postings_total()
        )

    def test_indexing_postings_identical(self, collection, flat_run):
        # Routing changes hops, never payloads: the paper's indexing
        # cost unit is untouched.
        flat_service, _ = flat_run
        service = build(collection, "hdk_super", overlay_fanout=4)
        assert service.inserted_postings_total() == (
            flat_service.inserted_postings_total()
        )

    def test_parity_holds_on_pgrid_overlay(self, collection, queries):
        # The topology derives a key's home cluster from the overlay's
        # actual responsible peer, so it is overlay-agnostic.
        runs = {}
        for backend in ("hdk", "hdk_super"):
            service = SearchService.build(
                collection,
                num_peers=NUM_PEERS,
                backend=backend,
                params=PARAMS,
                overlay="pgrid",
                cache_capacity=None,
                overlay_fanout=4,
            )
            service.index()
            runs[backend] = run_queries(service, queries)
        assert runs["hdk"][0] == runs["hdk_super"][0]
        assert runs["hdk"][1] == runs["hdk_super"][1]

    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize(
        "adaptive", [False, True], ids=["static", "adaptive"]
    )
    def test_hop_counts_deterministic(
        self, collection, zipf_log, adaptive, replication
    ):
        """Two fresh services replaying one Zipf log send the same
        messages over the same hops and rank the same, query by query —
        path-cache hits and, when adaptive, cluster splits included."""
        knobs = {"overlay_fanout": 4, "replication": replication}
        if adaptive:
            knobs.update(
                overlay_adaptive=True,
                overlay_split_threshold=8,
                overlay_merge_threshold=2,
            )
        runs = []
        for _ in range(2):
            service = build(collection, "hdk_super", **knobs)
            runs.append(
                [
                    (
                        response.traffic,
                        [(r.doc_id, r.score) for r in response.results],
                    )
                    for response in (
                        service.search(query, k=10) for query in zipf_log
                    )
                ]
            )
            assert service.backend.router.stats.cache_hits > 0
        assert runs[0] == runs[1]

    def test_incremental_join_stays_identical(self, queries):
        whole = SyntheticCorpusGenerator(CORPUS, seed=5).generate(300)
        first_ids = whole.doc_ids()[:240]
        rest_ids = whole.doc_ids()[240:]
        grown = {}
        for backend in ("hdk", "hdk_super"):
            service = build(whole.subset(first_ids), backend)
            service.add_peers(whole.subset(rest_ids), 3)
            grown[backend] = run_queries(service, queries)
        assert grown["hdk"][0] == grown["hdk_super"][0]
        assert grown["hdk"][1] == grown["hdk_super"][1]


class TestRoutingWins:
    def test_fewer_retrieval_hops_than_flat(
        self, collection, queries, flat_run
    ):
        # Already true at this small scale; the overlay bench asserts it
        # again at 256 peers.
        _, (_, _, flat_hops) = flat_run
        service = build(collection, "hdk_super", overlay_fanout=4)
        _, _, hops = run_queries(service, queries)
        assert hops < flat_hops

    def test_repeated_queries_hit_the_path_cache(
        self, collection, queries
    ):
        service = build(collection, "hdk_super", overlay_fanout=4)
        for query in queries[:5]:
            service.search(query, k=10)
            service.search(query, k=10)
        overlay = service.backend.stats()["overlay"]
        assert overlay["path_cache_hits"] > 0
        assert overlay["path_cache_hit_rate"] > 0.0


class TestBackendSurface:
    def test_registered(self):
        assert "hdk_super" in registry

    def test_stats_carry_overlay_block(self, collection, queries):
        service = build(collection, "hdk_super", overlay_fanout=4)
        service.search(queries[0], k=10)
        overlay = service.stats()["overlay"]
        assert overlay["clusters"] == 3
        assert overlay["fanout"] == 4
        assert overlay["lookups"] > 0  # the query's lattice probes

    def test_one_hierarchy_per_network(self, collection):
        service = build(collection, "hdk_super", overlay_fanout=4)
        from repro.engine.backends import BackendContext, HDKSuperBackend

        with pytest.raises(ConfigurationError):
            HDKSuperBackend(
                BackendContext(service.network, PARAMS, ServiceConfig())
            )

    def test_service_cache_composes_with_path_cache(
        self, collection, queries
    ):
        service = SearchService.build(
            collection,
            num_peers=NUM_PEERS,
            backend="hdk_super",
            params=PARAMS,
            cache_capacity=64,
            overlay_fanout=4,
        )
        service.index()
        first = service.search(queries[0], k=10)
        second = service.search(queries[0], k=10)
        assert second.cache_hit
        assert [r.doc_id for r in second.results] == [
            r.doc_id for r in first.results
        ]


class TestSnapshots:
    def test_save_load_roundtrip(self, collection, queries, tmp_path):
        service = build(collection, "hdk_super", overlay_fanout=4)
        expected, costs, _ = run_queries(service, queries)
        service.save(tmp_path / "snap")
        loaded = SearchService.load(
            tmp_path / "snap", cache_capacity=None, overlay_fanout=4
        )
        assert loaded.backend_name == "hdk_super"
        rankings, loaded_costs, _ = run_queries(loaded, queries)
        assert rankings == expected
        assert loaded_costs == costs
