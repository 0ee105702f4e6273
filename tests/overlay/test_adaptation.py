"""The split/merge policy on its own: hand-made scores, a fake
topology, no network."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.overlay.adaptation import LoadController, NullLoadController
from repro.overlay.topology import Cluster


class FakeTopology:
    """Clusters of consecutive ints; records what the policy asks for."""

    def __init__(self, *sizes: int) -> None:
        self.clusters: tuple[Cluster, ...] = ()
        self.loads: list[int] = []
        self.reshapes: list[tuple] = []
        pieces, first = [], 0
        for size in sizes:
            pieces.append(tuple(range(first, first + size)))
            first += 100
        self._install(pieces)

    def _install(self, pieces) -> None:
        self.clusters = tuple(
            Cluster(index=i, super_peer=members[0], members=members)
            for i, members in enumerate(pieces)
        )

    def cluster_starting_at(self, start: int) -> Cluster | None:
        return next((c for c in self.clusters if c.start == start), None)

    def observe_load(self, peer_id: int) -> None:
        self.loads.append(peer_id)

    def split(self, cluster: Cluster):
        members, half = cluster.members, len(cluster.members) // 2
        pieces = [c.members for c in self.clusters]
        pieces[cluster.index : cluster.index + 1] = [
            members[:half],
            members[half:],
        ]
        self._install(pieces)
        self.reshapes.append(("split", cluster.start))
        return self.clusters[cluster.index], self.clusters[cluster.index + 1]

    def merge(self, lower: Cluster, upper: Cluster):
        pieces = [c.members for c in self.clusters]
        pieces[lower.index : upper.index + 1] = [
            lower.members + upper.members
        ]
        self._install(pieces)
        self.reshapes.append(("merge", lower.start, upper.start))
        return self.clusters[lower.index]

    def drop(self, start: int) -> None:
        """A re-cluster the policy did not ask for."""
        self._install(
            [c.members for c in self.clusters if c.start != start]
        )


def controller(topology, **knobs) -> LoadController:
    knobs.setdefault("split_threshold", 10)
    knobs.setdefault("merge_threshold", 2)
    knobs.setdefault("decision_interval", 4)
    knobs.setdefault("merge_cool_down", 2)
    return LoadController(topology, **knobs)


def decide(policy: LoadController, scores: dict[int, int]) -> list[tuple]:
    return list(policy.decide(scores))


class TestKnobs:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"split_threshold": 0},
            {"split_threshold": 8, "merge_threshold": 8},
            {"merge_threshold": -1},
            {"decision_interval": 0},
            {"merge_cool_down": 0},
        ],
    )
    @pytest.mark.parametrize("cls", [LoadController, NullLoadController])
    def test_bad_knob_rejected_by_both_controllers(self, cls, knobs):
        with pytest.raises(ConfigurationError):
            cls(FakeTopology(4), **knobs)


class TestWindow:
    def test_every_nth_lookup_closes_the_window_with_its_scores(self):
        policy = controller(FakeTopology(4, 4), decision_interval=3)
        policy.note(0)  # insert churn counts toward the same score
        assert policy.lookup((), 0) is None
        assert policy.lookup((), 100) is None
        # Dark and self-owned lookups are homed nowhere but still tick.
        assert policy.lookup((), None) == {0: 2, 100: 1}
        # The next window starts empty.
        assert policy.lookup((), None) is None
        assert policy.lookup((), None) is None
        assert policy.lookup((), None) == {}

    def test_reset_forgets_window_and_pairs_but_not_the_tick(self):
        topology = FakeTopology(4)
        policy = controller(topology, decision_interval=2)
        decide(policy, {0: 10})  # split: a pair to forget
        policy.lookup((), 0)
        policy.reset()
        assert policy.lookup((), None) == {}
        assert decide(policy, {}) == decide(policy, {}) == []
        assert topology.reshapes == [("split", 0)]

    def test_lookup_feeds_the_election_signal(self):
        topology = FakeTopology(4)
        controller(topology).lookup({3, 1}, None)
        assert sorted(topology.loads) == [1, 3]


class TestSplit:
    def test_hottest_cluster_splits_and_only_one_per_window(self):
        topology = FakeTopology(4, 4, 4)
        policy = controller(topology)
        reshapes = decide(policy, {0: 11, 100: 30, 200: 12})
        assert topology.reshapes == [("split", 100)]
        (event, retired, produced), = reshapes
        assert event == "splits"
        assert retired == (100, 102)
        assert [c.members for c in produced] == [(100, 101), (102, 103)]
        # The runner-up waits for the next window.
        decide(policy, {0: 11, 200: 12})
        assert topology.reshapes[-1] == ("split", 200)

    def test_tie_breaks_to_the_lowest_start(self):
        topology = FakeTopology(4, 4, 4)
        decide(controller(topology), {200: 15, 0: 15, 100: 15})
        assert topology.reshapes == [("split", 0)]

    def test_below_threshold_or_single_member_never_splits(self):
        topology = FakeTopology(4, 1)
        assert decide(controller(topology), {0: 9, 100: 50}) == []
        assert topology.reshapes == []


class TestMerge:
    def split_pair(self, **knobs):
        topology = FakeTopology(4, 4)
        policy = controller(topology, **knobs)
        decide(policy, {0: 10})
        assert topology.reshapes == [("split", 0)]
        return topology, policy

    def test_merges_after_consecutive_calm_windows(self):
        topology, policy = self.split_pair(merge_cool_down=3)
        assert decide(policy, {0: 1, 2: 1}) == []
        assert decide(policy, {}) == []
        (event, retired, produced), = decide(policy, {2: 2})
        assert event == "merges"
        assert retired == (0, 2)
        assert [c.members for c in produced] == [(0, 1, 2, 3)]
        assert topology.reshapes[-1] == ("merge", 0, 2)
        # The pair is gone: further calm windows merge nothing.
        assert decide(policy, {}) == []

    def test_one_hot_window_resets_the_calm_count(self):
        topology, policy = self.split_pair()
        assert decide(policy, {}) == []
        # Combined score above the merge threshold (each half alone is
        # not), still below the split threshold.
        assert decide(policy, {0: 2, 2: 1}) == []
        assert decide(policy, {}) == []
        assert len(topology.reshapes) == 1
        assert [r[0] for r in decide(policy, {})] == ["merges"]

    def test_vanished_pair_is_dropped(self):
        topology, policy = self.split_pair()
        topology.drop(2)
        assert decide(policy, {}) == []
        assert decide(policy, {}) == []
        assert decide(policy, {}) == []
        assert topology.reshapes == [("split", 0)]

    def test_merges_come_before_the_split_and_apply_lazily(self):
        topology, policy = self.split_pair(merge_cool_down=1)
        steps = policy.decide({100: 40})
        assert next(steps)[0] == "merges"
        # Nothing past the yielded reshape has been applied yet.
        assert topology.reshapes == [("split", 0), ("merge", 0, 2)]
        assert next(steps)[0] == "splits"
        assert topology.reshapes[-1] == ("split", 100)
        assert list(steps) == []


class TestNullController:
    def test_observes_nothing_and_never_closes_a_window(self):
        topology = FakeTopology(4)
        policy = NullLoadController(topology, decision_interval=1)
        assert policy.adaptive is False
        policy.note(0)
        assert [policy.lookup({1}, 0) for _ in range(5)] == [None] * 5
        assert topology.loads == []
