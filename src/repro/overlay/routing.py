"""Hierarchical routing with in-network DHT-path result caching.

:class:`HierarchicalRouter` implements the
:class:`repro.net.network.RoutingPolicy` hook over a
:class:`~repro.overlay.topology.SuperPeerTopology`.  A lookup for key K
issued by leaf S travels::

    S --> SP(S) --> SP(K)  [the *home* super-peer] --> owner(K)

and the response retraces ``owner -> SP(K) -> S`` — the classic
DHT-path-caching shape: the home super-peer sees every response for the
keys in its range and keeps a bounded
:class:`~repro.retrieval.cache.QueryResultCache` of them (*and* of
definitive absences), so repeated term-sets are answered mid-path
without involving the responsible peer.  Freshness is
invalidate-on-insert: every insert for K also routes through SP(K),
which evicts K before the write returns, so a cached answer is never
stale and results stay byte-identical to flat routing.

**One exchange.**  That path is the only one.  A lookup is a request
along a prefix of it, answered by the first node that can: the leaf's
own super-peer (``local_cache``), the home super-peer from its path
cache (``path_cache``) or from its Bloom summary, which proves the key
was never stored in its range (``summary_skip``; no false negatives,
see :mod:`repro.overlay.summaries`), else the owner.  ``self_owned``
and ``dark_range`` (every replica crashed; nobody answers) are the two
degenerate paths.  :meth:`HierarchicalRouter.route_lookup` picks the
answerer, and one helper logs the LOOKUP/RESPONSE pair whose hop counts
are read off the node paths (:func:`_hops`); :meth:`path_hops` prices
inserts from the same path.

**One controller.**  Whether the overlay adapts to load is a matter of
which :class:`~repro.overlay.adaptation.LoadController` is installed:
the router reports the load it sees and follows the splits and merges
the controller applies with its own state repair, and the static
overlay (``adaptive=False``) installs one that observes nothing.
Adaptive routing differs in shape in one way only — *multi-level path
caches*: responses retrace through the querying leaf's own super-peer
too (``owner -> SP(K) -> SP(S) -> S``) and both super-peers cache the
answer, so the next lookup from that cluster is answered one hop away.
Because copies of a key then live at several super-peers, invalidation
fans out: the home super-peer tracks which clusters hold copies (a
bounded registry) and sends each a ``CACHE_INVALIDATE`` on insert, so
freshness is preserved and results stay byte-identical to flat routing.

Every hop count is bounded by the hierarchy depth (≤ 3 request hops,
≤ 3 response hops) instead of Chord's O(log N) walk, and each message's
posting payload is identical to flat routing — traffic in the paper's
cost unit can only improve.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from operator import ne
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError, PeerNotFoundError
from ..index.bloom import optimal_bits_per_element
from ..net.accounting import Phase
from ..net.messages import MessageKind
from ..net.network import MembershipEvent, P2PNetwork
from ..obs.metrics import get_hub
from ..retrieval.cache import QueryResultCache
from .adaptation import LoadController, NullLoadController
from .summaries import ClusterSummary, scan_cluster_key_ids, summary_for_scan
from .topology import Cluster, SuperPeerTopology

__all__ = ["HierarchicalRouter", "RouterStats"]

#: Cached marker for "the responsible peer stores nothing under this
#: key" — distinct from a cache miss (no entry at all).
_ABSENT = object()

#: Default ``owner`` of :meth:`HierarchicalRouter.route_lookup`: no
#: failover wrapper picked the answering peer, so the router asks the
#: network.
_UNRESOLVED: Any = object()

#: Path-cache payloads are depth-independent stored values, so every
#: cache call uses one nominal depth.
_CACHE_DEPTH = 1

#: Positions on the request path ``(leaf, SP(leaf), SP(key), owner)``
#: of the nodes that can answer a routed lookup.
_LOCAL, _HOME, _OWNER = 1, 2, 3

#: event -> (``RouterStats`` field, ``overlay.*`` hub counter,
#: ``per_super_peer`` field, ``overlay.sp.*`` hub family) — every level
#: one occurrence is counted at; ``None`` where it is not.
_EVENTS = {
    # Attributed to the super-peer whose cluster answered, if one did.
    "lookups": ("lookups",) * 4,
    "cache_hits": (
        "cache_hits", "path_cache_hits", "path_cache_hits", "path_cache_hits",
    ),
    "cache_misses": (
        "cache_misses", "path_cache_misses", "path_cache_misses",
        "path_cache_misses",
    ),
    "local_cache_hits": ("local_cache_hits", None, None, None),
    "summary_skips": ("summary_skips",) * 4,
    "inserts": ("inserts",) * 4,
    "load": (None, None, "load", None),
    "invalidations": ("invalidations", "cache_invalidations", None, None),
    "summary_rebuilds": ("summary_rebuilds", None, None, None),
    "scoped_repairs": ("scoped_repairs", None, None, None),
    "splits": (None, "splits", None, None),
    "merges": (None, "merges", None, None),
}


def _hops(*nodes: int | None) -> int:
    """Hops along a node path: one per edge between two *different*
    nodes (a leaf that is its own super-peer, or a super-peer that owns
    the key, forwards to itself for free), and never fewer than one."""
    return sum(map(ne, nodes, nodes[1:])) or 1


class _KeyProbe:
    """Adapter giving a raw DHT key the ``.term_set`` attribute the
    query-result cache keys by."""

    __slots__ = ("term_set",)

    def __init__(self, key: Any) -> None:
        self.term_set = key


@dataclass
class RouterStats:
    """Counters over the router's lifetime (monotonic; survive
    re-clustering even though the caches themselves are dropped)."""

    lookups: int = 0
    inserts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Subset of ``cache_hits`` answered at the querying leaf's *own*
    #: super-peer (adaptive multi-level caching).
    local_cache_hits: int = 0
    summary_skips: int = 0
    #: Summary (re)builds installed — full refreshes, saturation
    #: rebuilds, and per-half rebuilds after splits/merges.
    summary_rebuilds: int = 0
    #: Crash/respawn events absorbed without a full re-cluster.
    scoped_repairs: int = 0
    #: ``CACHE_INVALIDATE`` fan-out messages sent to remote copies.
    invalidations: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class HierarchicalRouter:
    """Routes DHT messages through the super-peer hierarchy.

    Args:
        topology: the cluster map (owns re-clustering + its traffic).
        path_cache_capacity: per-super-peer result-cache size in keys;
            ``0`` disables in-network caching.
        use_summaries: keep Bloom key summaries at super-peers and
            answer definitely-absent keys mid-path.
        adaptive: enable load-aware election feedback, cluster
            splitting/merging, and multi-level path caching.  Off by
            default: the static overlay stays byte-reproducible.
        split_threshold, merge_threshold, decision_interval,
            merge_cool_down: the split/merge policy's knobs (see
            :class:`~repro.overlay.adaptation.LoadController`).

    Install on the topology's network with :meth:`install`; the network
    then delegates every lookup, and hop counts for inserts and stats
    publications, to this object.

    Locking: ``_adapt_lock`` (outer) serializes every topology mutation
    — full refreshes, scoped crash repairs, splits and merges — while
    ``_lock`` (inner) guards the hot-path routing state and the
    controller's open window.  ``_lock`` is never held while acquiring
    ``_adapt_lock``.
    """

    def __init__(
        self,
        topology: SuperPeerTopology,
        path_cache_capacity: int = 128,
        use_summaries: bool = True,
        adaptive: bool = False,
        split_threshold: int = 64,
        merge_threshold: int = 16,
        decision_interval: int = 128,
        merge_cool_down: int = 2,
    ) -> None:
        if path_cache_capacity < 0:
            raise ConfigurationError(
                "path_cache_capacity must be >= 0, got "
                f"{path_cache_capacity}"
            )
        self.topology = topology
        self.path_cache_capacity = path_cache_capacity
        self.use_summaries = use_summaries
        #: The split/merge policy; the static overlay's observes nothing.
        self.controller = (LoadController if adaptive else NullLoadController)(
            topology, split_threshold, merge_threshold, decision_interval,
            merge_cool_down,
        )
        self.stats = RouterStats()
        self._totals = vars(self.stats)  # what _count increments
        # All per-cluster state is keyed by Cluster.start (the lowest
        # member id) — unlike the list index it survives splits and
        # merges of *other* clusters.
        #: cluster start -> bounded result cache at that super-peer.
        self._caches: dict[int, QueryResultCache] = {}
        #: cluster start -> Bloom summary at that super-peer.
        self._summaries: dict[int, ClusterSummary] = {}
        #: cluster start -> insert generation; a fill is valid only if
        #: no insert hit the cluster between the owner read and the
        #: fill (see :meth:`_fill`).
        self._insert_gens: dict[int, int] = {}
        # Single-flight summary rebuilds: a start present in
        # _summary_rebuilding has a rebuild in flight, owned by the
        # recorded epoch; inserts meanwhile append to the pending list,
        # applied when the rebuild installs.  Popping the marker
        # (refresh / split / merge / repair, see _forget) or a newer
        # claim turns the in-flight install into a no-op.
        self._summary_epoch = 0
        self._summary_rebuilding: dict[int, int] = {}
        self._pending_summary_adds: dict[int, list[int]] = {}
        # Copy registry (adaptive mode): which cluster starts hold a
        # path-cache copy of each key, so the home super-peer can
        # invalidate them on insert.  In adaptive mode *every* fill is
        # registered — home-level fills included, because replication
        # failover, respawn, and splits can re-home a key, after which
        # an old home copy is still reachable through the local-level
        # probe.  Bounded and LRU-ordered; overflow evicts the copies
        # themselves (an unregistered copy could go stale silently).
        self._remote_copies: OrderedDict[Any, set[int]] = OrderedDict()
        self._copy_registry_capacity = max(512, 8 * path_cache_capacity)
        #: super-peer id -> attribution counters (load, lookups, ...).
        self._per_sp: dict[int, dict[str, int]] = {}
        # Guards stats, the cache/summary maps, the controller's
        # window, the copy registry, and filter mutation (Bloom add is
        # read-modify-write); the caches themselves are internally
        # locked.
        self._lock = threading.Lock()
        # Serializes topology mutations (refresh / split / merge /
        # scoped repair); always taken before _lock, never after.
        self._adapt_lock = threading.Lock()
        # Process-wide observability counters (repro.obs): the same
        # quantities as RouterStats, but readable by benches and the
        # serving tier without a reference to this router.  The
        # ``overlay.sp.*`` families attribute the same events to the
        # serving super-peer.
        hub = get_hub()
        self._counters = {
            event: (
                stat,
                hub.counter(f"overlay.{total}") if total else None,
                field,
                hub.counter_family(f"overlay.sp.{family}") if family else None,
            )
            for event, (stat, total, field, family) in _EVENTS.items()
        }
        self._m_window_load = hub.gauge_family("overlay.sp.window_load")
        for cluster in topology.clusters:
            self._rebuild_cluster_summary(cluster)

    @property
    def adaptive(self) -> bool:
        """Whether a load-observing controller is installed."""
        return self.controller.adaptive

    def install(self, network: P2PNetwork) -> None:
        """Attach this router to ``network`` (its topology's network).

        Raises:
            ConfigurationError: the network already routes through a
                different policy, or belongs to another topology.
        """
        if network is not self.topology.network:
            raise ConfigurationError(
                "router must be installed on the network its topology "
                "was built over"
            )
        if network.router is not None and network.router is not self:
            raise ConfigurationError(
                "network already has a routing policy installed; one "
                "super-peer hierarchy per network"
            )
        network.router = self

    # -- RoutingPolicy: lookups ----------------------------------------------------

    def route_lookup(
        self,
        network: P2PNetwork,
        source_id: int,
        key: Any,
        key_id: int,
        response_size: Callable[[Any | None], int],
        *,
        owner: int | None = _UNRESOLVED,
    ) -> Any | None:
        # The *effective* owner: the responsible peer, or — with a
        # replication manager installed — the first live replica (the
        # failover wrapper passes the one it picked).  A crashed owner
        # with no live replica leaves the range dark.
        if owner is _UNRESOLVED:
            owner = network.effective_owner(key_id)
        path, home, local = self._request_path(source_id, owner)
        # Copies of a key live at several super-peers only when the
        # leaf's own one caches too, which only pays off when it
        # differs from the home one.
        controller = self.controller
        multi_level = controller.adaptive and self.path_cache_capacity >= 1
        fill_local = (
            multi_level and home is not None and local.start != home.start
        )
        # Off the hierarchy the whole path is the request.  Self-owned
        # key: answered locally, same message shape as flat routing
        # (request + response, one hop each).
        level, payload, generation = len(path) - 1, None, 0
        route = "dark_range" if owner is None else "self_owned"
        if home is not None:
            with self._lock:
                # Sampled with the probe: a cached payload (or a
                # summary verdict) observed now, then filled into a
                # *second* cache below, must be dropped if an insert
                # lands in between.
                generation = self._insert_gens.get(home.start, 0)
                level, route, payload = self._probe(
                    key, key_id, local if fill_local else None, home
                )
        value, answered = self._exchange(
            network, key, key_id, response_size,
            path, level, fill_local, payload, route,
        )
        with self._lock:
            # The response fills the caches it retraces through — unless
            # the owner had crashed by the time it was read: its silence
            # says nothing about the key, which a live replica still
            # holds.
            if level == _OWNER and answered:
                self._fill(
                    home.start, home.start, key, value, generation,
                    multi_level,
                )
            if fill_local and level >= _HOME and answered:
                self._fill(
                    local.start, home.start, key, value, generation, True
                )
            # One unit of routing work for every distinct peer on the
            # path except the requester itself — the load signal behind
            # the per-super-peer gauges and (via the controller) the
            # topology's election.
            charged = {*path[1 : level + 1]} - {source_id, None}
            for peer_id in charged:
                self._count("load", peer_id)
            served = local if level == _LOCAL else home
            if served is None:
                self._count("lookups")
            else:
                self._count("lookups", served.super_peer)
                served = served.start
            scores = controller.lookup(charged, served)
        if scores is not None:
            self._adapt(scores)
        return value

    def _request_path(
        self, source_id: int, owner: int | None
    ) -> tuple[tuple[int | None, ...], Cluster | None, Cluster | None]:
        """The nodes a request from ``source_id`` visits on its way to
        ``owner``, and the home and local clusters it goes through:
        source -> local SP -> home SP -> owner."""
        if owner == source_id:
            return (source_id, owner), None, None
        local = self.topology.access_cluster(source_id)
        if owner is None:
            # Dark range: the message travels to the local super-peer
            # and on toward the dead region (nobody) before timing out.
            return (source_id, local.super_peer, None), None, local
        # A peer joining on another thread owns keys from the moment
        # the ring has it, before the rebuild clusters it: route via the
        # cluster whose span holds its ring position until then.
        home = self.topology.access_cluster(owner)
        path = (source_id, local.super_peer, home.super_peer, owner)
        return path, home, local

    def _probe(
        self, key: Any, key_id: int, local: Cluster | None, home: Cluster
    ) -> tuple[int, str, Any | None]:
        """The first node on the request path that can answer — from
        the path cache of ``local`` (multi-level only) or ``home``, or
        from ``home``'s summary; else the owner.  Returns its position,
        the route label and the cached payload (possibly
        :data:`_ABSENT`; ``None``: read storage).  Caller holds
        ``_lock``."""
        if self.path_cache_capacity >= 1:
            probe = _KeyProbe(key)
            for cluster in (home,) if local is None else (local, home):
                cache = self._caches.get(cluster.start)
                if cache is None:
                    continue
                payload = cache.try_hit(probe, _CACHE_DEPTH)
                if payload is None:
                    continue
                self._count("cache_hits", cluster.super_peer)
                if cluster is home:
                    return _HOME, "path_cache", payload
                # Answered one hop away, before leaving the cluster.
                self._count("local_cache_hits")
                return _LOCAL, "local_cache", payload
            # Only the home-level probe defines the hit rate, so it
            # stays comparable to static routing.
            self._count("cache_misses", home.super_peer)
        if self.use_summaries:
            summary = self._summaries.get(home.start)
            # A missing summary claims nothing: forward the lookup.
            if summary is not None and key_id not in summary:
                self._count("summary_skips", home.super_peer)
                return _HOME, "summary_skip", _ABSENT
        return _OWNER, "leaf>sp>home>owner", None

    @staticmethod
    def _exchange(
        network: P2PNetwork,
        key: Any,
        key_id: int,
        response_size: Callable[[Any | None], int],
        path: tuple[int | None, ...],
        level: int,
        via_local: bool,
        payload: Any | None,
        route: str,
    ) -> tuple[Any | None, bool]:
        """Log one lookup's message pair and return the answer, and
        whether a live node gave it.  The LOOKUP travels ``path`` up to
        position ``level``, whose node answers from ``payload`` (its
        cache or summary) or else reads its storage; the RESPONSE
        retraces the request — through the leaf's own super-peer only
        when that one keeps a copy (``via_local``), otherwise straight
        from the home super-peer."""
        request = path[: level + 1]
        source_id, answerer = request[0], request[-1]
        dark = answerer is None
        if dark:
            answerer = network.overlay.responsible_peer(key_id)
        hops = _hops(*request)
        network.log_message(
            MessageKind.LOOKUP, source_id, answerer, 0, hops, key,
            route=route,
        )
        if dark:
            # The request still travels toward the dark range and times
            # out; no response arrives.
            return None, False
        answered = True
        if payload is None:
            # An owner picked before it crashed reads as empty.
            answered = network.is_live(answerer)
            value = network.value_at(answerer, key)
        else:
            value = None if payload is _ABSENT else payload
        # A response that retraces every node costs the request's hops.
        if level >= _HOME and not via_local:
            hops = _hops(*request[:1:-1], source_id)
        if level == _OWNER:
            route = "owner>home>local>leaf" if via_local else "owner>home>leaf"
        network.log_message(
            MessageKind.RESPONSE, answerer, source_id, response_size(value),
            hops, key, route=route,
        )
        return value, answered

    # -- RoutingPolicy: inserts / generic hops ---------------------------------------

    def path_hops(self, source_id: int, key_id: int) -> int:
        """Request-path hops source -> local SP -> home SP -> owner."""
        owner = self.topology.network.effective_owner(key_id)
        return _hops(*self._request_path(source_id, owner)[0])

    def on_insert(self, key: Any, key_id: int) -> None:
        """Freshness hook: the insert just routed through the home
        super-peer, which evicts any cached answer for the key, fans
        an invalidation out to every super-peer holding a path-cache
        copy, and adds the key to the cluster summary.

        Saturation rebuilds are single-flight: the insert that tips the
        filter past capacity claims the rebuild under the lock (epoch
        marker); concurrent inserts see the marker and queue their key
        ids instead of re-triggering, and the rebuilt filter applies
        the queue on install — so no second scan, and no insert is ever
        missing from whichever filter wins (no false negatives)."""
        home = self.topology.home_cluster(key_id)
        home_sp = None if home is None else home.super_peer
        rebuild_epoch: int | None = None
        with self._lock:
            self._count("inserts", home_sp)
            if home is None:
                # Dark range: the write was lost, nothing is cached for
                # the key (dark lookups bypass the cache), nothing to
                # invalidate.
                return
            start = home.start
            # Bump the generation and evict under the same lock the
            # fill path checks the generation under, so a lookup that
            # read the pre-insert value can never re-cache it after
            # this invalidation.
            self._insert_gens[start] = self._insert_gens.get(start, 0) + 1
            # Scoped fan-out: only the clusters registered as holding
            # a copy of *this* key are touched.
            holders = self._remote_copies.pop(key, ())
            self._evict(key, (start, *holders))
            fanout_targets = [h for h in holders if h != start]
            # Cache churn is load on the home cluster too.
            self.controller.note(start)
            summary = self._summaries.get(start)
            if summary is not None:
                summary.add(key_id)
                if start in self._summary_rebuilding:
                    # A rebuild is in flight; queue the key id for the
                    # replacement filter instead of re-triggering.
                    self._pending_summary_adds.setdefault(start, []).append(
                        key_id
                    )
                elif summary.saturated:
                    # The filter outgrew its sizing: claim the rebuild.
                    self._summary_epoch += 1
                    rebuild_epoch = self._summary_epoch
                    self._summary_rebuilding[start] = rebuild_epoch
                    self._pending_summary_adds[start] = []
        if fanout_targets:
            # The invalidations ride the insert (same phase): one
            # zero-posting message per holding super-peer, so the
            # paper's posting counts are unchanged.
            self._fan_out(
                self.topology.network.log_message, home_sp, fanout_targets,
                key_id,
            )
        if rebuild_epoch is not None:
            self._rebuild_cluster_summary(home, epoch=rebuild_epoch)

    def _fan_out(
        self,
        log: Callable[..., None],
        announcer: int,
        holder_starts: Iterable[int],
        key: Any = None,
    ) -> None:
        """``log`` one ``CACHE_INVALIDATE`` from super-peer ``announcer``
        to the super-peer of every cluster in ``holder_starts`` (lowest
        start first; its own and vanished clusters skipped)."""
        sent = 0
        for holder_start in sorted(holder_starts):
            holder = self.topology.cluster_starting_at(holder_start)
            if holder is None or holder.super_peer == announcer:
                continue
            log(
                MessageKind.CACHE_INVALIDATE, announcer, holder.super_peer,
                key=key,
            )
            sent += 1
        if sent:
            with self._lock:
                self._count("invalidations", amount=sent)

    # -- RoutingPolicy: membership -------------------------------------------------

    def on_membership_change(
        self, event: MembershipEvent | None = None
    ) -> None:
        """Membership hook.  Join and leave change the live population,
        so the base chunking shifts and the whole map re-clusters.
        Crash and respawn do *not*: the fault model keeps the peer's
        ring position (key responsibility and replica placement are
        unchanged), so only the affected cluster's routing state is
        repaired — a single crash no longer throws away every other
        cluster's path cache."""
        scoped = event is not None and event.kind in ("crash", "respawn")
        if not (scoped and self._scoped_membership_repair(event)):
            self.refresh()

    def _scoped_membership_repair(self, event: MembershipEvent) -> bool:
        """Repair routing state around one crashed/respawned peer.

        Drops the affected cluster's cache and summary (a respawned
        peer comes back empty, a crashed one stops answering — either
        way the cluster's cached answers and key claims are suspect),
        re-elects its super-peer if that is the peer that crashed, and
        conservatively flushes the remote-copy registry: replication
        failover can re-home keys of the affected range, so copies
        anywhere may now be mis-registered.  Returns ``False`` when the
        peer is unknown to the current map (e.g. it crashed before the
        last full rebuild and respawned after) — the caller falls back
        to a full refresh."""
        try:
            cluster = self.topology.cluster_of_peer(event.peer_id)
        except PeerNotFoundError:
            return False
        network = self.topology.network
        with self._adapt_lock:
            if event.kind == "crash" and cluster.super_peer == event.peer_id:
                reelected = self.topology.reelect(cluster)
                if reelected is not None:
                    cluster = reelected
            holders = self._forget((cluster.start,), flush_copies=True)
            # The flush is announced (and accounted as maintenance) by
            # the cluster's super-peer, if there is a live one.
            if network.is_live(cluster.super_peer):
                self._fan_out(
                    network.log_maintenance, cluster.super_peer, holders
                )
            with self._lock:
                self._count("scoped_repairs")
            if any(network.is_live(m) for m in cluster.members):
                self._rebuild_cluster_summary(cluster)
        return True

    def refresh(self) -> None:
        """Re-cluster and rebuild all routing state.

        Key ranges may have moved between clusters (churn handoffs), so
        the in-network caches are dropped wholesale and every summary is
        rebuilt from the member storages.  Also the restore hook after a
        snapshot load placed entries directly into storages.
        """
        with self._adapt_lock:
            self.topology.rebuild()
            self._forget()
            for cluster in self.topology.clusters:
                self._rebuild_cluster_summary(cluster)

    def _adapt(self, scores: dict[int, int]) -> None:
        """Act on a closed decision window: publish its per-super-peer
        load, then follow each split or merge the controller applies
        with the routing-state repair around it."""
        with self._adapt_lock:
            for cluster in self.topology.clusters:
                self._m_window_load.set(
                    cluster.super_peer, float(scores.get(cluster.start, 0))
                )
            for event, retired, produced in self.controller.decide(scores):
                with self._lock:
                    self._count(event)
                self._forget(retired)
                for cluster in produced:
                    self._rebuild_cluster_summary(cluster)

    def _forget(
        self, starts: Iterable[int] | None = None, flush_copies: bool = False
    ) -> set[int]:
        """Drop the routing state keyed by the cluster ``starts`` —
        all of it, and the controller's, when ``None`` (the map was
        re-clustered).  Insert generations are bumped so in-flight
        fills sampled against the old shape are discarded (a pre-split
        home cache slot must not receive a fill meant for what is now
        another cluster's range), and in-flight summary installs for it
        become no-ops (marker popped).  Copies *held by* the forgotten
        clusters died with their caches and are de-registered, so later
        inserts do not fan out to clusters that no longer hold
        anything; ``flush_copies`` evicts every other registered copy
        too and returns the starts of the clusters that held one."""
        flushed: set[int] = set()
        with self._lock:
            if starts is None:
                self.controller.reset()
                self._remote_copies.clear()
                starts = {
                    *self._insert_gens,
                    *self._caches,
                    *self._summaries,
                    *self._summary_rebuilding,
                }
            for start in starts:
                self._caches.pop(start, None)
                self._insert_gens[start] = (
                    self._insert_gens.get(start, 0) + 1
                )
                self._summaries.pop(start, None)
                self._summary_rebuilding.pop(start, None)
                self._pending_summary_adds.pop(start, None)
            for key, holders in list(self._remote_copies.items()):
                if flush_copies:
                    self._evict(key, holders)
                    flushed |= holders
                    holders.clear()
                else:
                    holders.difference_update(starts)
                if not holders:
                    del self._remote_copies[key]
        return flushed

    # -- path caches -----------------------------------------------------------------

    def _fill(
        self,
        holder_start: int,
        home_start: int,
        key: Any,
        value: Any | None,
        generation: int,
        register: bool,
    ) -> None:
        """Cache the answer that just retraced through the super-peer
        of the cluster at ``holder_start`` (absences included —
        repeated lattice probes of never-indexed subsets are the common
        case) and ``register`` the copy for invalidation fan-out.
        ``generation`` is the *home* cluster's insert generation
        sampled before the answer was produced; if any insert hit the
        cluster since, the answer may predate it and the fill is
        dropped (the caller holds ``_lock``, so the put is atomic with
        :meth:`on_insert`'s bump-and-evict)."""
        if (
            self.path_cache_capacity < 1
            or self._insert_gens.get(home_start, 0) != generation
        ):
            return
        cache = self._caches.get(holder_start)
        if cache is None:
            cache = QueryResultCache(self.path_cache_capacity)
            self._caches[holder_start] = cache
        cache.put(
            _KeyProbe(key), _CACHE_DEPTH, _ABSENT if value is None else value
        )
        if not register:
            return
        self._remote_copies.setdefault(key, set()).add(holder_start)
        self._remote_copies.move_to_end(key)
        # The registry is LRU-bounded; evicting a registry entry evicts
        # the copies themselves.
        while len(self._remote_copies) > self._copy_registry_capacity:
            self._evict(*self._remote_copies.popitem(last=False))

    def _evict(self, key: Any, holder_starts: Iterable[int]) -> None:
        """Drop ``key`` from the path caches of the clusters at
        ``holder_starts``.  Caller holds ``_lock``."""
        for holder_start in holder_starts:
            cache = self._caches.get(holder_start)
            if cache is not None:
                cache.remove(key)

    # -- summaries ---------------------------------------------------------------------

    def _rebuild_cluster_summary(
        self, cluster: Cluster, epoch: int | None = None
    ) -> None:
        """Scan the cluster members' storages into a fresh summary and
        charge the members' summary shipments to maintenance.

        ``epoch`` is the rebuild's claim ticket: saturation rebuilds
        mint it under the lock in :meth:`on_insert` (single-flight);
        every other caller (init, refresh, split/merge, scoped repair)
        passes ``None`` and a fresh epoch is minted here, superseding
        whatever rebuild may be in flight for the cluster.  The install
        is a no-op unless the claim still stands."""
        if not self.use_summaries:
            return
        start = cluster.start
        if epoch is None:
            with self._lock:
                self._summary_epoch += 1
                epoch = self._summary_epoch
                self._summary_rebuilding[start] = epoch
                self._pending_summary_adds[start] = []
        network = self.topology.network
        rows = scan_cluster_key_ids(network, cluster)
        summary = summary_for_scan(rows)
        with network.accounting.charge(Phase.MAINTENANCE):
            for member, key_ids in rows:
                if key_ids and member != cluster.super_peer:
                    network.log_message(
                        MessageKind.ROUTING_UPDATE,
                        member,
                        cluster.super_peer,
                        postings=_summary_posting_equivalents(len(key_ids)),
                    )
        self._install_summary(start, summary, epoch)

    def _install_summary(
        self, cluster_key: int, summary: ClusterSummary, epoch: int
    ) -> bool:
        """Atomically install a rebuilt summary if its claim still
        stands, folding in the key ids inserted while the scan ran.
        A superseded rebuild (refresh, split/merge, scoped repair, or
        a newer claim) is discarded — this is what makes concurrent
        rebuilds single-flight and stale installs harmless."""
        with self._lock:
            if self._summary_rebuilding.get(cluster_key) != epoch:
                return False
            for key_id in self._pending_summary_adds.pop(cluster_key, []):
                summary.add(key_id)
            del self._summary_rebuilding[cluster_key]
            self._summaries[cluster_key] = summary
            self._count("summary_rebuilds")
        return True

    # -- attribution / inspection ------------------------------------------------------

    def _count(
        self, event: str, sp: int | None = None, amount: int = 1
    ) -> None:
        """Count ``amount`` occurrences of ``event`` — attributed to
        super-peer ``sp`` when given — at every level :data:`_EVENTS`
        lists for it.  Caller holds ``_lock``."""
        stat, total, field, family = self._counters[event]
        if stat is not None:
            self._totals[stat] += amount
        if total is not None:
            total.add(amount)
        if sp is not None and field is not None:
            counters = self._per_sp.setdefault(sp, {})
            counters[field] = counters.get(field, 0) + amount
            if family is not None:
                family.add(sp, amount)

    def describe(self) -> dict[str, object]:
        """Topology shape + routing/caching counters (backend stats)."""
        stats = self.stats
        info: dict[str, object] = dict(self.topology.describe())
        with self._lock:
            per_sp = {
                str(peer_id): dict(counters)
                for peer_id, counters in sorted(self._per_sp.items())
            }
        info.update(
            {
                "path_cache_capacity": self.path_cache_capacity,
                "adaptive": self.adaptive,
                "lookups": stats.lookups,
                "inserts": stats.inserts,
                "path_cache_hits": stats.cache_hits,
                "path_cache_misses": stats.cache_misses,
                "path_cache_hit_rate": round(stats.cache_hit_rate, 4),
                "local_cache_hits": stats.local_cache_hits,
                "summary_skips": stats.summary_skips,
                "summary_rebuilds": stats.summary_rebuilds,
                "scoped_repairs": stats.scoped_repairs,
                "invalidations": stats.invalidations,
                "sp_load": {
                    peer: counters.get("load", 0)
                    for peer, counters in per_sp.items()
                },
                "per_super_peer": per_sp,
            }
        )
        return info


def _summary_posting_equivalents(num_keys: int) -> int:
    """Wire size, in postings, of one member's key summary — the same
    bits-per-element sizing rule as the Bloom baseline's filters."""
    bits = max(8.0, num_keys * optimal_bits_per_element(0.01))
    return max(1, math.ceil(bits / 8 / 8))
