"""Load-aware cluster splitting and merging: the policy, not the plumbing.

:class:`LoadController` sees two things — per-cluster load scores and a
:class:`~repro.overlay.topology.SuperPeerTopology` — and knows nothing
of networks, caches or summaries, so its hysteresis can be tested with
hand-made score dicts and a fake topology.  The router feeds it
(:meth:`~LoadController.lookup`, :meth:`~LoadController.note`) and
follows each reshape that :meth:`~LoadController.decide` yields with
its routing-state repair.
The static overlay is the same router with a
:class:`NullLoadController`: same knobs, nothing observed or decided.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import ConfigurationError
from .topology import Cluster, SuperPeerTopology

__all__ = ["LoadController", "NullLoadController"]


class LoadController:
    """Windowed split/merge decisions with hysteresis.

    Args:
        topology: the cluster map the decisions reshape (and whose
            election signal :meth:`lookup` feeds).
        split_threshold: windowed load score (lookups homed in the
            cluster + its cache churn) at which a cluster splits.
        merge_threshold: score at or below which a split pair counts as
            calm; must be strictly below ``split_threshold`` so a
            cluster hovering between the two neither splits nor merges.
        decision_interval: lookups per decision window.
        merge_cool_down: consecutive calm windows required before a
            split pair merges back (hysteresis).
    """

    adaptive = True

    def __init__(
        self,
        topology: SuperPeerTopology,
        split_threshold: int = 64,
        merge_threshold: int = 16,
        decision_interval: int = 128,
        merge_cool_down: int = 2,
    ) -> None:
        for knob, value in (
            ("split_threshold", split_threshold),
            ("decision_interval", decision_interval),
            ("merge_cool_down", merge_cool_down),
        ):
            if value < 1:
                raise ConfigurationError(f"{knob} must be >= 1, got {value}")
        if not 0 <= merge_threshold < split_threshold:
            raise ConfigurationError(
                "merge_threshold must satisfy 0 <= merge_threshold < "
                f"split_threshold, got {merge_threshold} vs "
                f"{split_threshold}"
            )
        self.topology = topology
        self.split_threshold = split_threshold
        self.merge_threshold = merge_threshold
        self.decision_interval = decision_interval
        self.merge_cool_down = merge_cool_down
        #: cluster start -> load score of the open window.
        self._window: dict[int, int] = {}
        self._ticks = 0
        #: upper-half start of an active split -> [lower-half start,
        #: consecutive calm windows so far].
        self._split_pairs: dict[int, list[int]] = {}

    def note(self, start: int) -> None:
        """One unit of windowed load on the cluster at ``start``: a
        lookup homed there, or an insert churning its cache."""
        self._window[start] = self._window.get(start, 0) + 1

    def lookup(
        self, peers: Iterable[int], start: int | None
    ) -> dict[int, int] | None:
        """Observe one lookup: each of ``peers`` served or forwarded it
        (a unit of the topology's election signal) and the cluster at
        ``start`` (``None``: none) answered it.  Every
        ``decision_interval``-th closes the window and returns its
        scores for :meth:`decide`."""
        for peer_id in peers:
            self.topology.observe_load(peer_id)
        if start is not None:
            self._window[start] = self._window.get(start, 0) + 1
        self._ticks += 1
        if self._ticks < self.decision_interval:
            return None
        self._ticks = 0
        scores, self._window = self._window, {}
        return scores

    def reset(self) -> None:
        """Forget the open window and every split pair: a full
        re-cluster dropped the split boundaries they describe."""
        self._window.clear()
        self._split_pairs.clear()

    def decide(
        self, scores: dict[int, int]
    ) -> Iterator[tuple[str, tuple[int, int], tuple[Cluster, ...]]]:
        """Act on one closed window: merge calm split pairs, then split
        the hottest overloaded cluster.  Yields, for each reshape, the
        counter it feeds (``"merges"``/``"splits"``), the two cluster
        starts whose routing state described the old shape, and the
        clusters produced.  Lazy — a reshape is applied to the topology
        right before it is yielded, and the caller finishes its
        follow-up before the next decision is taken."""
        topology = self.topology
        # Merges first: a pair must stay calm for merge_cool_down
        # *consecutive* windows (one hot window resets the count), so a
        # cluster oscillating around the thresholds never flaps.
        for upper_start in sorted(self._split_pairs):
            pair = self._split_pairs[upper_start]
            lower_start = pair[0]
            lower = topology.cluster_starting_at(lower_start)
            upper = topology.cluster_starting_at(upper_start)
            if (
                lower is None
                or upper is None
                or upper.index != lower.index + 1
            ):
                # The map changed underneath (full rebuild or another
                # reshape); the pair no longer exists.
                del self._split_pairs[upper_start]
                continue
            combined = scores.get(lower_start, 0) + scores.get(upper_start, 0)
            pair[1] = 0 if combined > self.merge_threshold else pair[1] + 1
            if pair[1] < self.merge_cool_down:
                continue
            merged = topology.merge(lower, upper)
            del self._split_pairs[upper_start]
            if merged is not None:
                yield "merges", (lower_start, upper_start), (merged,)
        # One split per window, hottest first (ties to the lowest
        # start, keeping identical histories deterministic).
        candidates = [
            c
            for c in topology.clusters
            if len(c.members) >= 2
            and scores.get(c.start, 0) >= self.split_threshold
        ]
        if not candidates:
            return
        hottest = min(
            candidates, key=lambda c: (-scores.get(c.start, 0), c.start)
        )
        halves = topology.split(hottest)
        if halves is not None:
            lower, upper = halves
            self._split_pairs[upper.start] = [lower.start, 0]
            yield "splits", (lower.start, upper.start), halves


class NullLoadController(LoadController):
    """The static overlay's controller: same knobs (validated all the
    same), no window, no election signal, no decisions — so the
    topology keeps its cold-start lowest-id election and stays
    byte-reproducible."""

    adaptive = False

    def note(self, start: int) -> None:
        pass

    def lookup(self, peers: Iterable[int], start: int | None) -> None:
        return None
