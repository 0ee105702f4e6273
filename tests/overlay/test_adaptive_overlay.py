"""Tests for the adaptive overlay: load-aware election, cluster
split/merge with hysteresis, multi-level path caching with invalidation
fan-out, scoped crash/respawn repair, summary rebuilds on saturation,
and per-super-peer attribution."""

from __future__ import annotations

import pytest

from harness.equivalence import (
    assert_crash_tolerant,
    assert_fingerprints_equal,
    build_indexed_service,
    make_querylog,
    query_fingerprint,
)
from repro.errors import ConfigurationError
from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from repro.obs.metrics import get_hub
from repro.overlay import HierarchicalRouter, SuperPeerTopology
from repro.overlay.summaries import ClusterSummary
from repro.serving.gateway import _aggregate_worker_stats


def make_network(num_peers: int) -> P2PNetwork:
    network = P2PNetwork()
    for i in range(num_peers):
        network.add_peer(f"peer-{i:03d}")
    return network


def make_adaptive(
    num_peers: int = 16,
    fanout: int = 4,
    path_cache_capacity: int = 64,
    split_threshold: int = 8,
    merge_threshold: int = 2,
    decision_interval: int = 16,
    merge_cool_down: int = 2,
    **kwargs,
) -> tuple[P2PNetwork, HierarchicalRouter]:
    network = make_network(num_peers)
    router = HierarchicalRouter(
        SuperPeerTopology(network, fanout=fanout),
        path_cache_capacity=path_cache_capacity,
        adaptive=True,
        split_threshold=split_threshold,
        merge_threshold=merge_threshold,
        decision_interval=decision_interval,
        merge_cool_down=merge_cool_down,
        **kwargs,
    )
    router.install(network)
    return network, router


def make_static(
    num_peers: int = 12, fanout: int = 4, **kwargs
) -> tuple[P2PNetwork, HierarchicalRouter]:
    network = make_network(num_peers)
    router = HierarchicalRouter(
        SuperPeerTopology(network, fanout=fanout), **kwargs
    )
    router.install(network)
    return network, router


def insert(network: P2PNetwork, source: str, key: frozenset, value: list):
    return network.insert(
        source,
        key,
        lambda current: (current or []) + value,
        payload_postings=len(value),
    )


def lookup(network: P2PNetwork, source: str, key: frozenset):
    return network.lookup(source, key, lambda v: len(v or []))


def keys_homed_in(
    network: P2PNetwork,
    members: tuple[int, ...],
    count: int,
    tag: str = "key",
) -> list[frozenset]:
    """``count`` distinct keys whose responsible peer lies in
    ``members`` (deterministic: probes ``{tag}-0``, ``{tag}-1``, ...)."""
    member_set = set(members)
    keys: list[frozenset] = []
    probe = 0
    while len(keys) < count:
        key = frozenset({f"{tag}-{probe}"})
        if network.responsible_peer_for(key) in member_set:
            keys.append(key)
        probe += 1
        assert probe < 200_000, "could not find enough keys in range"
    return keys


def keys_homed_outside(
    network: P2PNetwork,
    excluded: set[int],
    count: int,
    tag: str = "cold",
) -> list[frozenset]:
    """``count`` distinct keys whose responsible peer is NOT in
    ``excluded``."""
    keys: list[frozenset] = []
    probe = 0
    while len(keys) < count:
        key = frozenset({f"{tag}-{probe}"})
        if network.responsible_peer_for(key) not in excluded:
            keys.append(key)
        probe += 1
        assert probe < 200_000
    return keys


def name_of(network: P2PNetwork, peer_id: int) -> str:
    for name in network.peer_names():
        if network.id_of(name) == peer_id:
            return name
    raise AssertionError(f"no registered name for peer id {peer_id}")


def peer_outside(network: P2PNetwork, members: tuple[int, ...]) -> str:
    """Name of a live peer that is not in ``members``."""
    member_set = set(members)
    for name in network.peer_names():
        peer_id = network.id_of(name)
        if peer_id not in member_set and network.is_live(peer_id):
            return name
    raise AssertionError("no peer outside the cluster")


class TestKnobValidation:
    def test_split_threshold_validated(self):
        network = make_network(4)
        with pytest.raises(ConfigurationError):
            HierarchicalRouter(
                SuperPeerTopology(network, fanout=2), split_threshold=0
            )

    def test_merge_threshold_must_be_below_split(self):
        network = make_network(4)
        with pytest.raises(ConfigurationError):
            HierarchicalRouter(
                SuperPeerTopology(network, fanout=2),
                split_threshold=8,
                merge_threshold=8,
            )

    def test_decision_interval_and_cool_down_validated(self):
        network = make_network(4)
        with pytest.raises(ConfigurationError):
            HierarchicalRouter(
                SuperPeerTopology(network, fanout=2), decision_interval=0
            )
        with pytest.raises(ConfigurationError):
            HierarchicalRouter(
                SuperPeerTopology(network, fanout=2), merge_cool_down=0
            )


class TestLoadAwareElection:
    def test_cold_start_elects_lowest_id(self):
        # No load history: the static lowest-id choice is reproduced
        # exactly, keeping unloaded topologies byte-reproducible.
        _, router = make_static(num_peers=12, fanout=4)
        for cluster in router.topology.clusters:
            assert cluster.super_peer == min(cluster.members)

    def test_election_prefers_least_loaded_member(self):
        network, router = make_static(num_peers=12, fanout=4)
        topology = router.topology
        cluster = topology.clusters[0]
        # Load every member except the highest-id one.
        for member in cluster.members[:-1]:
            topology.observe_load(member, 10.0)
        topology.rebuild()
        rebuilt = topology.clusters[0]
        assert rebuilt.super_peer == rebuilt.members[-1]

    def test_identical_load_histories_elect_identically(self):
        # Two worlds with the same peers, inserts, lookups, and a
        # membership change must converge on the same cluster map —
        # the determinism the paper-grade reproducibility rides on.
        maps = []
        for _ in range(2):
            network, router = make_adaptive(num_peers=16, fanout=4)
            hot = router.topology.clusters[0]
            keys = keys_homed_in(network, hot.members, 20)
            source = peer_outside(network, hot.members)
            for key in keys:
                insert(network, source, key, [1])
            for key in keys:
                lookup(network, source, key)
            network.add_peer("late-joiner")
            maps.append(
                tuple(
                    (c.super_peer, c.members)
                    for c in router.topology.clusters
                )
            )
        assert maps[0] == maps[1]


class TestSplitMerge:
    def heat_and_split(self):
        network, router = make_adaptive(num_peers=16, fanout=4)
        hot = router.topology.clusters[0]
        keys = keys_homed_in(network, hot.members, 24)
        source = peer_outside(network, hot.members)
        for key in keys:
            insert(network, source, key, [1])
        for key in keys:
            lookup(network, source, key)
        return network, router, hot, keys, source

    def test_hot_cluster_splits(self):
        network, router, hot, keys, source = self.heat_and_split()
        topology = router.topology
        assert topology.splits >= 1
        assert len(topology.clusters) >= 5  # 4 base clusters + a split
        # The split halves cover exactly the original member run.
        by_start = {c.start: c for c in topology.clusters}
        lower = by_start[hot.start]
        assert len(lower.members) < len(hot.members)
        # Lookups still return every stored value after the split.
        for key in keys:
            assert lookup(network, source, key) == [1]

    def test_split_pair_merges_after_cool_down(self):
        network, router, hot, keys, source = self.heat_and_split()
        topology = router.topology
        splits = topology.splits
        assert splits >= 1
        # Calm traffic: absent keys homed outside the split range, so
        # the pair's windowed score is 0 for merge_cool_down windows.
        cold = keys_homed_outside(
            network, set(hot.members), 3 * router.controller.decision_interval
        )
        for key in cold:
            lookup(network, source, key)
        assert topology.merges >= 1
        for key in keys:
            assert lookup(network, source, key) == [1]

    def test_hysteresis_prevents_flapping(self):
        network, router, hot, keys, source = self.heat_and_split()
        topology = router.topology
        interval = router.controller.decision_interval
        merges_before = topology.merges
        # Alternate windows: warm-on-the-pair (score above the merge
        # threshold, below the split threshold), then fully calm.  The
        # warm window resets the calm streak every time, so the pair
        # must never merge.
        for round_index in range(3):
            warm = keys_homed_in(
                network, hot.members, 4, tag=f"warm-{round_index}"
            )
            cold = keys_homed_outside(
                network,
                set(hot.members),
                2 * interval - len(warm),
                tag=f"coldish-{round_index}",
            )
            # Window 1: warm + padding.  Window 2 spills calm only —
            # but window 1's warmth already reset the streak.
            for key in warm:
                lookup(network, source, key)
            for key in cold[: interval - len(warm)]:
                lookup(network, source, key)
            for key in cold[interval - len(warm) :]:
                lookup(network, source, key)
        assert topology.merges == merges_before

    def test_rebuild_clears_split_boundaries(self):
        network, router, hot, keys, source = self.heat_and_split()
        clusters_before = len(router.topology.clusters)
        network.add_peer("fresh-joiner")  # full rebuild
        # Base chunking only: ceil(17 / 4) clusters.
        assert len(router.topology.clusters) == 5
        assert len(router.topology.clusters) <= clusters_before
        for key in keys:
            assert lookup(network, source, key) == [1]


class TestMultiLevelCache:
    def make_quiet_adaptive(self):
        # Huge decision interval: adaptation never fires, isolating the
        # caching behaviour.
        return make_adaptive(
            num_peers=16,
            fanout=4,
            decision_interval=1_000_000,
            split_threshold=1_000_000,
            merge_threshold=10,
        )

    def test_second_lookup_served_by_local_super_peer(self):
        network, router = self.make_quiet_adaptive()
        hot = router.topology.clusters[0]
        key = keys_homed_in(network, hot.members, 1)[0]
        source = peer_outside(network, hot.members)
        insert(network, source, key, [1])
        assert lookup(network, source, key) == [1]  # fills both levels
        local_hits_before = router.stats.local_cache_hits
        with network.accounting.charge(Phase.RETRIEVAL) as charge:
            assert lookup(network, source, key) == [1]
        assert router.stats.local_cache_hits == local_hits_before + 1
        # Answered inside the source's own cluster: at most one hop
        # each way, and the response still carries the full payload.
        assert charge.snapshot().total_hops <= 2
        assert charge.snapshot().total_postings == 1

    def test_insert_invalidates_remote_copy(self):
        network, router = self.make_quiet_adaptive()
        hot = router.topology.clusters[0]
        key = keys_homed_in(network, hot.members, 1)[0]
        source = peer_outside(network, hot.members)
        insert(network, source, key, [1])
        lookup(network, source, key)
        lookup(network, source, key)  # local copy now live
        invalidations_before = router.stats.invalidations
        with network.accounting.charge(Phase.INDEXING) as charge:
            insert(network, source, key, [2])
        fanout = charge.snapshot().messages_by_kind.get(
            MessageKind.CACHE_INVALIDATE, 0
        )
        assert fanout >= 1
        assert router.stats.invalidations == invalidations_before + fanout
        # The stale copy must be gone at *both* levels.
        assert lookup(network, source, key) == [1, 2]
        assert lookup(network, source, key) == [1, 2]

    def test_invalidation_messages_carry_no_postings(self):
        # The paper's cost unit must not move: fan-out is control-plane.
        # An insert that triggers invalidations must cost the same
        # postings as one that doesn't.
        network, router = self.make_quiet_adaptive()
        hot = router.topology.clusters[0]
        cached, control = keys_homed_in(network, hot.members, 2)
        source = peer_outside(network, hot.members)
        insert(network, source, cached, [1])
        lookup(network, source, cached)  # fills home + local caches
        with network.accounting.charge(Phase.INDEXING) as baseline:
            insert(network, source, control, [2])
        with network.accounting.charge(Phase.INDEXING) as charge:
            insert(network, source, cached, [2])
        fanout = charge.snapshot().messages_by_kind.get(
            MessageKind.CACHE_INVALIDATE, 0
        )
        assert fanout >= 1
        assert (
            charge.snapshot().total_postings
            == baseline.snapshot().total_postings
        )

    def test_absence_cached_at_local_level(self):
        network, router = self.make_quiet_adaptive()
        hot = router.topology.clusters[0]
        key = keys_homed_in(network, hot.members, 1, tag="absent")[0]
        source = peer_outside(network, hot.members)
        assert lookup(network, source, key) is None
        local_before = router.stats.local_cache_hits
        assert lookup(network, source, key) is None
        assert router.stats.local_cache_hits == local_before + 1


class TestScopedCrashRepair:
    def prime(self, **kwargs):
        """A static routed network with a warmed path cache: the cached
        key's home cluster and a victim cluster that differ."""
        network, router = make_static(num_peers=12, fanout=4, **kwargs)
        key = frozenset({"crash-scope-key"})
        owner = network.responsible_peer_for(key)
        home = router.topology.cluster_of_peer(owner)
        source = peer_outside(network, home.members)
        insert(network, source, key, [1])
        assert lookup(network, source, key) == [1]  # warm the cache
        victim_cluster = next(
            c
            for c in router.topology.clusters
            if c.start != home.start
            and network.id_of(source) not in c.members
        )
        return network, router, key, source, home, victim_cluster

    def test_crash_elsewhere_preserves_home_path_cache(self):
        # The regression this PR fixes: a single crash used to drop
        # every cluster's path cache and re-cluster the world.
        network, router, key, source, home, victim_cluster = self.prime()
        victim = name_of(network, victim_cluster.members[-1])
        rebuilds_before = router.topology.rebuilds
        network.kill_peer(victim)
        assert router.topology.rebuilds == rebuilds_before
        assert router.stats.scoped_repairs == 1
        hits_before = router.stats.cache_hits
        assert lookup(network, source, key) == [1]
        assert router.stats.cache_hits == hits_before + 1

    def test_respawn_elsewhere_is_scoped_too(self):
        network, router, key, source, home, victim_cluster = self.prime()
        victim = name_of(network, victim_cluster.members[-1])
        rebuilds_before = router.topology.rebuilds
        network.kill_peer(victim)
        network.respawn_peer(victim)
        assert router.topology.rebuilds == rebuilds_before
        assert router.stats.scoped_repairs == 2
        assert lookup(network, source, key) == [1]

    def test_crashed_super_peer_triggers_reelection(self):
        network, router, key, source, home, victim_cluster = self.prime()
        old_sp = victim_cluster.super_peer
        network.kill_peer(name_of(network, old_sp))
        current = next(
            c
            for c in router.topology.clusters
            if c.start == victim_cluster.start
        )
        assert current.super_peer != old_sp
        assert current.super_peer in victim_cluster.members
        # The repaired cluster still answers for its range.
        ranged = keys_homed_in(
            network,
            tuple(
                m
                for m in victim_cluster.members
                if network.is_live(m)
            ),
            1,
            tag="repaired",
        )
        assert lookup(network, source, ranged[0]) is None

    def test_crash_in_home_cluster_drops_its_cache(self):
        network, router, key, source, home, victim_cluster = self.prime()
        victim = next(
            m
            for m in home.members
            if m != network.responsible_peer_for(key)
            and m != network.id_of(source)
        )
        network.kill_peer(name_of(network, victim))
        misses_before = router.stats.cache_misses
        assert lookup(network, source, key) == [1]  # re-routed, not cached
        assert router.stats.cache_misses == misses_before + 1

    def test_join_still_triggers_full_rebuild(self):
        network, router, *_ = self.prime()
        rebuilds_before = router.topology.rebuilds
        network.add_peer("join-after-crash-test")
        assert router.topology.rebuilds == rebuilds_before + 1

    def test_respawn_after_full_rebuild_falls_back_to_refresh(self):
        # Crash, then a join re-clusters the (live) population — the
        # victim is in no cluster.  Its respawn cannot be scoped; the
        # router must fall back to a full refresh, not crash.
        network, router, key, source, home, victim_cluster = self.prime()
        victim = name_of(network, victim_cluster.members[-1])
        network.kill_peer(victim)
        network.remove_peer(
            name_of(network, victim_cluster.members[0])
        )  # full rebuild without the victim
        rebuilds_before = router.topology.rebuilds
        network.respawn_peer(victim)
        assert router.topology.rebuilds == rebuilds_before + 1
        assert lookup(network, source, key) == [1]


class TestSummarySaturation:
    def saturated_summary(self) -> ClusterSummary:
        summary = ClusterSummary(capacity=1)
        summary.add(101)
        summary.add(202)  # 2 > capacity 1
        assert summary.saturated
        return summary

    def test_saturating_insert_rebuilds_once(self):
        network, router = make_static()
        key = frozenset({"saturating"})
        owner = network.responsible_peer_for(key)
        start = router.topology.cluster_of_peer(owner).start
        router._summaries[start] = self.saturated_summary()
        rebuilds_before = router.stats.summary_rebuilds
        insert(network, "peer-000", key, [1])
        assert router.stats.summary_rebuilds == rebuilds_before + 1
        # The rebuilt filter still claims the freshly inserted key.
        assert network._key_id(key) in router._summaries[start]

    def test_saturating_inserts_never_produce_false_negatives(self):
        network, router = make_static(num_peers=8, fanout=4)
        # Tiny summaries, so the inserts keep saturating them.
        for start in list(router._summaries):
            router._summaries[start] = ClusterSummary(capacity=1)
        keys = [frozenset({f"saturating-{i}"}) for i in range(48)]
        for key in keys:
            insert(network, "peer-000", key, [1])
        # Every inserted key must be found — a lost summary add would
        # surface as a summary-skip answering None.
        for key in keys:
            assert lookup(network, "peer-001", key) == [1]


class TestPerSuperPeerAttribution:
    def test_hub_families_keyed_by_super_peer(self):
        hub = get_hub()
        fam_lookups = hub.counter_family("overlay.sp.lookups")
        network, router = make_static()
        key = frozenset({"attributed"})
        owner = network.responsible_peer_for(key)
        home = router.topology.cluster_of_peer(owner)
        source = peer_outside(network, home.members)
        before = fam_lookups.value(home.super_peer)
        insert(network, source, key, [1])
        lookup(network, source, key)
        lookup(network, source, key)
        assert fam_lookups.value(home.super_peer) == before + 2
        inserts_fam = hub.counter_family("overlay.sp.inserts")
        assert inserts_fam.value(home.super_peer) >= 1

    def test_describe_reports_per_super_peer_counters(self):
        network, router = make_static()
        key = frozenset({"described"})
        owner = network.responsible_peer_for(key)
        home = router.topology.cluster_of_peer(owner)
        source = peer_outside(network, home.members)
        insert(network, source, key, [1])
        lookup(network, source, key)
        info = router.describe()
        assert info["adaptive"] is False
        sp_key = str(home.super_peer)
        assert info["per_super_peer"][sp_key]["lookups"] >= 1
        assert info["sp_load"][sp_key] >= 1
        # Totals still present for existing consumers.
        assert info["lookups"] == router.stats.lookups

    def test_unkeyed_totals_still_maintained(self):
        hub = get_hub()
        total = hub.counter("overlay.lookups")
        network, router = make_static()
        key = frozenset({"totals"})
        insert(network, "peer-000", key, [1])
        before = total.value
        lookup(network, "peer-005", key)
        assert total.value == before + 1

    def test_gateway_merges_overlay_stats_per_key(self):
        def worker(sp_load, per_sp, hits, misses):
            return {
                "cache_hits": 0,
                "cache_misses": 0,
                "traffic": {},
                "overlay": {
                    "fanout": 4,
                    "clusters": 3,
                    "peers": 12,
                    "path_cache_capacity": 64,
                    "adaptive": True,
                    "lookups": 10,
                    "path_cache_hits": hits,
                    "path_cache_misses": misses,
                    "path_cache_hit_rate": 0.0,
                    "sp_load": sp_load,
                    "per_super_peer": per_sp,
                },
            }

        workers = [
            worker({"5": 3, "9": 1}, {"5": {"load": 3, "lookups": 2}}, 4, 6),
            worker({"5": 2}, {"5": {"load": 2}, "9": {"lookups": 7}}, 1, 9),
        ]
        merged = _aggregate_worker_stats(workers)["overlay"]
        # Per-key sums — not whole-dict overwrites, not blind totals.
        assert merged["sp_load"] == {"5": 5, "9": 1}
        assert merged["per_super_peer"]["5"] == {"load": 5, "lookups": 2}
        assert merged["per_super_peer"]["9"] == {"lookups": 7}
        # Counters sum, config keys take-first, hit rate recomputed.
        assert merged["lookups"] == 20
        assert merged["fanout"] == 4
        assert merged["clusters"] == 3
        assert merged["path_cache_hit_rate"] == round(5 / 20, 4)

    def test_gateway_aggregate_without_overlay_workers(self):
        workers = [{"cache_hits": 1, "cache_misses": 0, "traffic": {}}]
        assert "overlay" not in _aggregate_worker_stats(workers)


class TestServiceEquivalence:
    @pytest.fixture(scope="class")
    def flat_world(self, small_collection, small_params):
        service = build_indexed_service(
            small_collection, "hdk", small_params, num_peers=12
        )
        queries = make_querylog(small_collection, small_params, 10)
        return service, queries

    def test_adaptive_overlay_matches_flat_across_split_and_merge(
        self, flat_world, small_collection, small_params
    ):
        flat, queries = flat_world
        adaptive = build_indexed_service(
            small_collection,
            "hdk_super",
            small_params,
            num_peers=12,
            overlay_fanout=4,
            overlay_adaptive=True,
            overlay_split_threshold=8,
            overlay_merge_threshold=2,
        )
        router = adaptive.backend.router
        reference = query_fingerprint(flat, queries, k=10, strict=False)
        # Replay until the skewed load has split at least one cluster.
        for _ in range(20):
            rows = query_fingerprint(adaptive, queries, k=10, strict=False)
            assert_fingerprints_equal(reference, rows, context="replay")
            if router.topology.splits:
                break
        assert router.topology.splits >= 1
        assert_fingerprints_equal(
            reference,
            query_fingerprint(adaptive, queries, k=10, strict=False),
            context="post-split",
        )
        # Force the merge path: feed empty (calm) decision windows.
        merges_before = router.topology.merges
        for _ in range(router.controller.merge_cool_down + 1):
            router._adapt({})
        assert router.topology.merges > merges_before
        assert_fingerprints_equal(
            reference,
            query_fingerprint(adaptive, queries, k=10, strict=False),
            context="post-merge",
        )

    def test_adaptive_overlay_is_crash_tolerant(
        self, small_collection, small_params
    ):
        service = build_indexed_service(
            small_collection,
            "hdk_super",
            small_params,
            num_peers=8,
            overlay_fanout=4,
            replication=2,
            overlay_adaptive=True,
            overlay_split_threshold=8,
            overlay_merge_threshold=2,
        )
        queries = make_querylog(small_collection, small_params, 8)
        # Warm until the overlay has actually reshaped itself, so the
        # crash sweep below runs against a split topology.
        router = service.backend.router
        for _ in range(20):
            for query in queries:
                service.search(query, k=10)
            if router.topology.splits:
                break
        assert router.topology.splits >= 1
        assert_crash_tolerant(service, queries, k=10)
