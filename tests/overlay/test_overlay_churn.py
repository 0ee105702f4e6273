"""Churn under an active super-peer overlay (satellite: re-clustering
keeps results identical and maintenance traffic is attributed via the
thread-local phase scope)."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.engine.service import SearchService
from repro.errors import PeerNotFoundError
from repro.net.accounting import Phase
from repro.net.messages import MessageKind

PARAMS = HDKParameters(df_max=8, window_size=6, s_max=3, ff=3_000, fr=3)

CORPUS = SyntheticCorpusConfig(
    vocabulary_size=600, mean_doc_length=35, num_topics=6
)


@pytest.fixture(scope="module")
def collection():
    return SyntheticCorpusGenerator(CORPUS, seed=11).generate(180)


@pytest.fixture(scope="module")
def queries(collection):
    return QueryLogGenerator(
        collection, window_size=6, min_hits=3, seed=13
    ).generate(12)


def build(collection, backend, **kwargs):
    service = SearchService.build(
        collection,
        num_peers=9,
        backend=backend,
        params=PARAMS,
        cache_capacity=None,
        **kwargs,
    )
    service.index()
    return service


def rankings_of(service, queries, source_peer):
    return [
        [
            (r.doc_id, round(r.score, 12))
            for r in service.search(
                q, k=10, source_peer=source_peer
            ).results
        ]
        for q in queries
    ]


def churn(network):
    """One leave + one empty join, mirroring real membership turnover."""
    network.remove_peer("peer-003")
    network.add_peer("late-joiner")


class TestChurnParity:
    def test_results_identical_to_flat_after_churn(
        self, collection, queries
    ):
        flat = build(collection, "hdk")
        sup = build(collection, "hdk_super", overlay_fanout=3)
        churn(flat.network)
        churn(sup.network)
        assert rankings_of(sup, queries, "peer-000") == rankings_of(
            flat, queries, "peer-000"
        )

    def test_results_unchanged_by_churn(self, collection, queries):
        # Handoff moves every key to its new owner, so the same data is
        # reachable from a surviving peer before and after.
        service = build(collection, "hdk_super", overlay_fanout=3)
        before = rankings_of(service, queries, "peer-000")
        churn(service.network)
        assert rankings_of(service, queries, "peer-000") == before

    def test_reclustering_tracks_membership(self, collection):
        service = build(collection, "hdk_super", overlay_fanout=3)
        router = service.backend.router
        rebuilds = router.topology.rebuilds
        churn(service.network)
        assert router.topology.rebuilds == rebuilds + 2  # leave + join
        members = {
            m for c in router.topology.clusters for m in c.members
        }
        assert members == set(service.network.peer_ids())
        assert service.network.id_of("late-joiner") in members


class TestChurnAccounting:
    def test_churn_traffic_is_maintenance_only(self, collection):
        service = build(collection, "hdk_super", overlay_fanout=3)
        with service.network.accounting.measure() as window:
            churn(service.network)
        delta = window.delta
        assert delta.messages_by_phase.get(Phase.MAINTENANCE, 0) > 0
        assert delta.messages_by_phase.get(Phase.INDEXING, 0) == 0
        assert delta.messages_by_phase.get(Phase.RETRIEVAL, 0) == 0
        by_kind = delta.messages_by_kind
        assert by_kind.get(MessageKind.HANDOFF, 0) >= 1
        assert by_kind.get(MessageKind.CLUSTER_JOIN, 0) > 0
        assert by_kind.get(MessageKind.ROUTING_UPDATE, 0) > 0

    def test_retrieval_costs_unaffected_by_maintenance(
        self, collection, queries
    ):
        # The paper excludes maintenance from its per-query numbers;
        # verify a post-churn query window carries no maintenance.
        service = build(collection, "hdk_super", overlay_fanout=3)
        churn(service.network)
        response = service.search(
            queries[0], k=10, source_peer="peer-000"
        )
        assert response.traffic.maintenance_postings == 0
        assert (
            response.traffic.messages_by_phase.get(Phase.MAINTENANCE, 0)
            == 0
        )


class TestJoinWhilePeerDown:
    """A join re-clusters the live population, which leaves a crashed
    peer out of the map — yet its indexer still expands keys in the
    join's cascade (and may still query), so its messages must route."""

    VICTIM = "peer-004"

    @pytest.fixture(scope="class")
    def worlds(self):
        full = SyntheticCorpusGenerator(CORPUS, seed=11).generate(200)
        ids = full.doc_ids()
        return full.subset(ids[:180]), full.subset(ids[180:])

    def kill_then_join(self, worlds, backend, **kwargs):
        initial, held_out = worlds
        service = build(initial, backend, replication=2, **kwargs)
        service.kill_peer(self.VICTIM)
        service.add_peers(held_out, 2)
        return service

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_join_succeeds_and_matches_flat(
        self, worlds, queries, adaptive
    ):
        flat = self.kill_then_join(worlds, "hdk")
        sup = self.kill_then_join(
            worlds, "hdk_super", overlay_fanout=3, overlay_adaptive=adaptive
        )
        # The join re-clustered without the crashed peer, whose
        # messages now enter through the cluster spanning its position.
        victim_id = sup.network.id_of(self.VICTIM)
        topology = sup.backend.router.topology
        assert victim_id not in {
            m for c in topology.clusters for m in c.members
        }
        assert topology.access_cluster(victim_id) in topology.clusters
        for source in ("peer-000", self.VICTIM):
            assert rankings_of(sup, queries, source) == rankings_of(
                flat, queries, source
            )
        assert rankings_of(sup, queries, "peer-000") == rankings_of(
            sup, queries, self.VICTIM
        )

    def test_unknown_peer_still_rejected(self, worlds):
        sup = self.kill_then_join(worlds, "hdk_super", overlay_fanout=3)
        with pytest.raises(PeerNotFoundError):
            sup.backend.router.topology.access_cluster(12345)
