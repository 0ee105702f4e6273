"""Tests for the hierarchical router (paths, caches, summaries)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from harness.messages import recorded_messages

from repro.errors import ConfigurationError
from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork, RoutingPolicy
from repro.overlay import HierarchicalRouter, SuperPeerTopology


def make_routed_network(
    num_peers: int = 12,
    fanout: int = 4,
    path_cache_capacity: int = 64,
    use_summaries: bool = True,
) -> tuple[P2PNetwork, HierarchicalRouter]:
    network = P2PNetwork()
    for i in range(num_peers):
        network.add_peer(f"peer-{i:03d}")
    router = HierarchicalRouter(
        SuperPeerTopology(network, fanout=fanout),
        path_cache_capacity=path_cache_capacity,
        use_summaries=use_summaries,
    )
    router.install(network)
    return network, router


def insert(network: P2PNetwork, source: str, key: frozenset, value: list):
    """Insert a list value under ``key`` (appends to any existing)."""
    return network.insert(
        source,
        key,
        lambda current: (current or []) + value,
        payload_postings=len(value),
    )


class TestInstall:
    def test_router_satisfies_the_protocol(self):
        _, router = make_routed_network(4, fanout=2)
        assert isinstance(router, RoutingPolicy)

    def test_install_on_foreign_network_rejected(self):
        network, _ = make_routed_network(4, fanout=2)
        other = P2PNetwork()
        other.add_peer("peer-x")
        router = HierarchicalRouter(SuperPeerTopology(other, fanout=2))
        with pytest.raises(ConfigurationError):
            router.install(network)

    def test_second_policy_rejected(self):
        network, _ = make_routed_network(4, fanout=2)
        second = HierarchicalRouter(SuperPeerTopology(network, fanout=2))
        with pytest.raises(ConfigurationError):
            second.install(network)

    def test_reinstalling_same_router_is_idempotent(self):
        network, router = make_routed_network(4, fanout=2)
        router.install(network)
        assert network.router is router

    def test_negative_cache_capacity_rejected(self):
        network, _ = make_routed_network(4, fanout=2)
        with pytest.raises(ConfigurationError):
            HierarchicalRouter(
                SuperPeerTopology(network, fanout=2),
                path_cache_capacity=-1,
            )


class TestRoutedLookups:
    def test_lookup_returns_stored_value(self):
        network, _ = make_routed_network()
        key = frozenset({"alpha", "beta"})
        insert(network, "peer-000", key, [1, 2, 3])
        value = network.lookup("peer-005", key, lambda v: len(v or []))
        assert value == [1, 2, 3]

    def test_absent_key_returns_none(self):
        network, router = make_routed_network()
        key = frozenset({"missing"})
        owner = network.responsible_peer_for(key)
        # A source that does not own the key, so the lookup actually
        # routes through the hierarchy (self-owned lookups answer
        # locally without consulting the summary).
        source = next(
            name
            for name in network.peer_names()
            if network.id_of(name) != owner
        )
        value = network.lookup(source, key, lambda v: 0)
        assert value is None
        assert router.stats.summary_skips >= 1

    def test_request_hops_bounded_by_hierarchy_depth(self):
        network, router = make_routed_network(num_peers=24, fanout=5)
        key = frozenset({"gamma"})
        insert(network, "peer-000", key, [7])
        for i in range(24):
            with network.accounting.charge(Phase.RETRIEVAL) as charge:
                network.lookup(
                    f"peer-{i:03d}", key, lambda v: len(v or [])
                )
            for kind, count in charge.snapshot().messages_by_kind.items():
                assert count <= 1, kind
            # request <= 3 hops, response <= 2: never more than 5 total.
            assert charge.snapshot().total_hops <= 5

    def test_path_hops_bounded_for_all_pairs(self):
        network, router = make_routed_network(num_peers=20, fanout=4)
        from repro.net.node_id import hash_to_id

        for source in network.peer_ids():
            for i in range(20):
                hops = router.path_hops(source, hash_to_id(f"k{i}"))
                assert 1 <= hops <= 3


class TestPathCache:
    def test_repeat_lookup_hits_cache_and_skips_owner(self):
        network, router = make_routed_network()
        key = frozenset({"delta", "epsilon"})
        insert(network, "peer-000", key, [1, 2])
        first = network.lookup("peer-007", key, lambda v: len(v or []))
        hits_before = router.stats.cache_hits
        with network.accounting.charge(Phase.RETRIEVAL) as charge:
            second = network.lookup(
                "peer-007", key, lambda v: len(v or [])
            )
        assert second == first
        assert router.stats.cache_hits == hits_before + 1
        # Answered at the home super-peer: response is a single hop and
        # still carries the full payload.
        response = charge.snapshot().messages_by_kind[MessageKind.RESPONSE]
        assert response == 1
        assert charge.snapshot().total_postings == len(first)

    def test_absence_is_cached(self):
        network, router = make_routed_network(use_summaries=False)
        key = frozenset({"never-inserted"})
        assert network.lookup("peer-002", key, lambda v: 0) is None
        hits_before = router.stats.cache_hits
        assert network.lookup("peer-003", key, lambda v: 0) is None
        assert router.stats.cache_hits == hits_before + 1

    def test_insert_invalidates_cached_entry(self):
        network, router = make_routed_network()
        key = frozenset({"zeta"})
        insert(network, "peer-000", key, [1])
        assert network.lookup("peer-004", key, lambda v: len(v or [])) == [1]
        # Grow the value: the cached answer must not survive.
        insert(network, "peer-001", key, [2])
        assert network.lookup(
            "peer-004", key, lambda v: len(v or [])
        ) == [1, 2]

    def test_capacity_zero_disables_caching(self):
        network, router = make_routed_network(path_cache_capacity=0)
        key = frozenset({"eta"})
        insert(network, "peer-000", key, [5])
        for _ in range(3):
            network.lookup("peer-006", key, lambda v: len(v or []))
        assert router.stats.cache_hits == 0
        assert router.stats.cache_misses == 0


class TestSummaries:
    def test_summary_skip_answers_at_home_super_peer(self):
        network, router = make_routed_network(path_cache_capacity=0)
        key = frozenset({"absent"})
        owner = network.responsible_peer_for(key)
        source = next(
            name
            for name in network.peer_names()
            if network.id_of(name) != owner
        )
        with network.accounting.charge(Phase.RETRIEVAL) as charge:
            value = network.lookup(source, key, lambda v: 0)
        assert value is None
        assert router.stats.summary_skips == 1
        assert charge.snapshot().total_postings == 0
        assert charge.snapshot().total_hops <= 3  # <= 2 request + 1 response

    def test_inserted_keys_never_summary_skipped(self):
        network, router = make_routed_network(path_cache_capacity=0)
        keys = [frozenset({f"term-{i}"}) for i in range(50)]
        for i, key in enumerate(keys):
            insert(network, f"peer-{i % 12:03d}", key, [i])
        for i, key in enumerate(keys):
            value = network.lookup(
                "peer-000", key, lambda v: len(v or [])
            )
            assert value == [i]

    def test_repeated_inserts_of_same_key_count_once(self):
        # Every HDK key is inserted once per contributing peer; the
        # summary must track distinct keys, not insert volume, or it
        # saturates and triggers pointless rebuilds.
        from repro.overlay import ClusterSummary

        summary = ClusterSummary(capacity=8)
        for _ in range(100):
            summary.add(42)
        assert len(summary) == 1
        assert not summary.saturated
        assert 42 in summary

    def test_refresh_rebuilds_summaries_from_storage(self):
        network, router = make_routed_network(path_cache_capacity=0)
        key = frozenset({"theta"})
        insert(network, "peer-000", key, [9])
        router.refresh()
        assert network.lookup(
            "peer-005", key, lambda v: len(v or [])
        ) == [9]


class TestStatsAndDescribe:
    def test_lookup_and_insert_counters(self):
        network, router = make_routed_network()
        key = frozenset({"iota"})
        insert(network, "peer-000", key, [1])
        network.lookup("peer-001", key, lambda v: len(v or []))
        assert router.stats.inserts == 1
        assert router.stats.lookups == 1

    def test_describe_merges_topology_and_cache_stats(self):
        network, router = make_routed_network()
        info = router.describe()
        for field in (
            "clusters",
            "fanout",
            "path_cache_hits",
            "path_cache_hit_rate",
            "summary_skips",
            "lookups",
        ):
            assert field in info

    def test_membership_batch_coalesces_rebuilds(self):
        network, router = make_routed_network(8, fanout=3)
        rebuilds = router.topology.rebuilds
        with network.membership_batch():
            for name in ("wave-a", "wave-b", "wave-c"):
                network.add_peer(name)
            assert router.topology.rebuilds == rebuilds  # deferred
        assert router.topology.rebuilds == rebuilds + 1
        members = {m for c in router.topology.clusters for m in c.members}
        assert network.id_of("wave-c") in members

    def test_refresh_traffic_is_maintenance(self):
        network, router = make_routed_network()
        insert(network, "peer-000", frozenset({"kappa"}), [1, 2, 3])
        with network.accounting.charge(Phase.INDEXING) as charge:
            router.refresh()
        delta = charge.snapshot()
        assert delta.messages_by_phase.get(Phase.MAINTENANCE, 0) > 0
        assert delta.messages_by_phase.get(Phase.RETRIEVAL, 0) == 0
        assert delta.messages_by_phase.get(Phase.INDEXING, 0) == 0


class TestPathHopsIsTheLookupPath:
    @settings(max_examples=60, deadline=None)
    @given(
        num_peers=st.integers(2, 24),
        fanout=st.integers(1, 6),
        adaptive=st.booleans(),
        capacity=st.sampled_from([0, 8]),
        crashed=st.sets(st.integers(0, 23), max_size=3),
        lookups=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 10_000)),
            min_size=1,
            max_size=12,
            unique_by=lambda pair: pair[1],
        ),
    )
    def test_path_hops_equals_cold_lookup_hops(
        self, num_peers, fanout, adaptive, capacity, crashed, lookups
    ):
        # Inserts are priced by path_hops, lookups by route_lookup; the
        # two must read the same path.  Summaries off and every key
        # looked up once, so no lookup is answered mid-path; crashes
        # make some ranges dark and some sources mapless.
        network = P2PNetwork()
        for i in range(num_peers):
            network.add_peer(f"peer-{i:03d}")
        router = HierarchicalRouter(
            SuperPeerTopology(network, fanout=fanout),
            path_cache_capacity=capacity,
            use_summaries=False,
            adaptive=adaptive,
            decision_interval=4,
            split_threshold=2,
            merge_threshold=0,
        )
        router.install(network)
        for index in sorted(crashed):
            if index < num_peers and len(network.live_peer_ids()) > 1:
                network.kill_peer(f"peer-{index:03d}")
        for source_index, term in lookups:
            source = f"peer-{source_index % num_peers:03d}"
            key = frozenset({f"term-{term}"})
            expected = router.path_hops(
                network.id_of(source), network.key_id(key)
            )
            with recorded_messages() as seen:
                network.lookup(source, key, lambda v: 0)
            requests = [
                m for m in seen if m["kind"] == MessageKind.LOOKUP.name
            ]
            assert [m["hops"] for m in requests] == [expected]
