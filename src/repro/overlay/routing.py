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

Two mid-path short-circuits answer at the home super-peer:

- **path-cache hit** — the key's last response (or absence) is cached;
- **summary skip** — the cluster's Bloom summary proves the key was
  never stored in its range (no false negatives; see
  :mod:`repro.overlay.summaries`).

**Adaptive mode** (``adaptive=True``) extends the scheme in two ways:

- *Multi-level path caches*: responses retrace through the querying
  leaf's own super-peer too (``owner -> SP(K) -> SP(S) -> S``), and
  both super-peers cache the answer — the next lookup from that
  cluster is answered one hop away, before ever leaving for the home
  range.  Because copies of a key now live at several super-peers,
  invalidation fans out: the home super-peer tracks which clusters
  hold copies (a bounded registry) and sends each a
  ``CACHE_INVALIDATE`` on insert, so freshness is preserved and
  results stay byte-identical to flat routing.
- *Load-aware splitting*: the router charges every super-peer it
  routes through (feeding :meth:`SuperPeerTopology.observe_load`, the
  election signal) and keeps windowed per-cluster counters of lookups
  plus cache churn.  Every ``decision_interval`` lookups it closes a
  window: the hottest cluster at or above ``split_threshold`` is split
  at its median member, and a split pair whose combined score stays at
  or below ``merge_threshold`` for ``merge_cool_down`` *consecutive*
  windows is merged back (the consecutive requirement is the
  hysteresis that prevents flapping).

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
from typing import Any, Callable

from ..errors import ConfigurationError, PeerNotFoundError
from ..index.bloom import optimal_bits_per_element
from ..net.accounting import Phase
from ..net.messages import MessageKind
from ..net.network import P2PNetwork
from ..obs.metrics import get_hub
from ..retrieval.cache import QueryResultCache
from .summaries import ClusterSummary, scan_cluster_key_ids, summary_for_scan
from .topology import Cluster, SuperPeerTopology

__all__ = ["HierarchicalRouter", "RouterStats"]

#: Cached marker for "the responsible peer stores nothing under this
#: key" — distinct from a cache miss (no entry at all).
_ABSENT = object()

#: Path-cache payloads are depth-independent stored values, so every
#: cache call uses one nominal depth.
_CACHE_DEPTH = 1


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
    rebuilds: int = 0
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
        split_threshold: windowed load score (lookups homed in the
            cluster + its cache churn) at which a cluster splits.
        merge_threshold: score at or below which a split pair counts as
            calm; must be strictly below ``split_threshold`` so a
            cluster hovering between the two neither splits nor merges.
        decision_interval: lookups per decision window.
        merge_cool_down: consecutive calm windows required before a
            split pair merges back (hysteresis).

    Install on the topology's network with :meth:`install`; the network
    then delegates every lookup, and hop counts for inserts and stats
    publications, to this object.

    Locking: ``_adapt_lock`` (outer) serializes every topology mutation
    — full refreshes, scoped crash repairs, splits and merges — while
    ``_lock`` (inner) guards the hot-path routing state.  ``_lock`` is
    never held while acquiring ``_adapt_lock``.
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
        if split_threshold < 1:
            raise ConfigurationError(
                f"split_threshold must be >= 1, got {split_threshold}"
            )
        if not 0 <= merge_threshold < split_threshold:
            raise ConfigurationError(
                "merge_threshold must satisfy 0 <= merge_threshold < "
                f"split_threshold, got {merge_threshold} vs "
                f"{split_threshold}"
            )
        if decision_interval < 1:
            raise ConfigurationError(
                f"decision_interval must be >= 1, got {decision_interval}"
            )
        if merge_cool_down < 1:
            raise ConfigurationError(
                f"merge_cool_down must be >= 1, got {merge_cool_down}"
            )
        self.topology = topology
        self.path_cache_capacity = path_cache_capacity
        self.use_summaries = use_summaries
        self.adaptive = adaptive
        self.split_threshold = split_threshold
        self.merge_threshold = merge_threshold
        self.decision_interval = decision_interval
        self.merge_cool_down = merge_cool_down
        self.stats = RouterStats()
        # All per-cluster state is keyed by Cluster.start (the lowest
        # member id) — unlike the list index it survives splits and
        # merges of *other* clusters.
        #: cluster start -> bounded result cache at that super-peer.
        self._caches: dict[int, QueryResultCache] = {}
        #: cluster start -> Bloom summary at that super-peer.
        self._summaries: dict[int, ClusterSummary] = {}
        #: cluster start -> insert generation; a fill is valid only if
        #: no insert hit the cluster between the owner read and the
        #: fill (see :meth:`_cache_fill`).
        self._insert_gens: dict[int, int] = {}
        # Single-flight summary rebuilds: a start present in
        # _summary_rebuilding has a rebuild in flight, owned by the
        # recorded epoch; inserts meanwhile append to the pending list,
        # applied when the rebuild installs.  Bumping _summary_epoch
        # (refresh) or popping the marker (split/merge/repair) turns
        # the in-flight install into a no-op.
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
        # Windowed adaptation state (cluster start -> count).
        self._window_lookups: dict[int, int] = {}
        self._window_churn: dict[int, int] = {}
        #: upper-half start -> lower-half start of an active split.
        self._split_pairs: dict[int, int] = {}
        #: upper-half start -> consecutive calm windows so far.
        self._calm_windows: dict[int, int] = {}
        self._decision_tick = 0
        #: super-peer id -> attribution counters (load, lookups, ...).
        self._per_sp: dict[int, dict[str, int]] = {}
        # Guards stats, the cache/summary maps, windows, the copy
        # registry, and filter mutation (Bloom add is
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
        self._m_lookups = hub.counter("overlay.lookups")
        self._m_cache_hits = hub.counter("overlay.path_cache_hits")
        self._m_cache_misses = hub.counter("overlay.path_cache_misses")
        self._m_summary_skips = hub.counter("overlay.summary_skips")
        self._m_inserts = hub.counter("overlay.inserts")
        self._m_splits = hub.counter("overlay.splits")
        self._m_merges = hub.counter("overlay.merges")
        self._m_invalidations = hub.counter("overlay.cache_invalidations")
        self._m_sp_lookups = hub.counter_family("overlay.sp.lookups")
        self._m_sp_cache_hits = hub.counter_family(
            "overlay.sp.path_cache_hits"
        )
        self._m_sp_cache_misses = hub.counter_family(
            "overlay.sp.path_cache_misses"
        )
        self._m_sp_summary_skips = hub.counter_family(
            "overlay.sp.summary_skips"
        )
        self._m_sp_inserts = hub.counter_family("overlay.sp.inserts")
        self._m_window_load = hub.gauge_family("overlay.sp.window_load")
        self._rebuild_summaries()

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
        key_repr: str = "",
    ) -> Any | None:
        try:
            return self._route_lookup(
                network, source_id, key, key_id, response_size, key_repr
            )
        finally:
            if self.adaptive:
                self._maybe_adapt()

    def _route_lookup(
        self,
        network: P2PNetwork,
        source_id: int,
        key: Any,
        key_id: int,
        response_size: Callable[[Any | None], int],
        key_repr: str,
    ) -> Any | None:
        with self._lock:
            self.stats.lookups += 1
        self._m_lookups.add()
        # The *effective* owner: the responsible peer, or — with a
        # replication manager installed — the first live replica.  A
        # crashed owner with no live replica leaves the range dark.
        owner = network.effective_owner(key_id)
        if owner is None:
            # The request still travels toward the dark range and times
            # out; no response arrives.
            local_sp = self.topology.access_cluster(source_id).super_peer
            network.log_message(
                MessageKind.LOOKUP,
                source_id,
                network.overlay.responsible_peer(key_id),
                0,
                max(1, (source_id != local_sp) + 1),
                key_repr,
                route="dark_range",
            )
            self._charge((local_sp,), source_id)
            return None
        if owner == source_id:
            # Self-owned key: answered locally, same message shape as
            # flat routing (request + response, one hop each).
            network.log_message(
                MessageKind.LOOKUP, source_id, owner, 0, 1, key_repr,
                route="self_owned",
            )
            value = network.storage_by_id(owner).get(key)
            network.log_message(
                MessageKind.RESPONSE,
                owner,
                source_id,
                response_size(value),
                1,
                key_repr,
                route="self_owned",
            )
            return value
        home = self.topology.cluster_of_peer(owner)
        home_sp = home.super_peer
        local = self.topology.access_cluster(source_id)
        local_sp = local.super_peer
        to_home = (source_id != local_sp) + (local_sp != home_sp)
        # Sampled before any probe: a cached payload (or a summary
        # verdict) observed now, then filled into a *second* cache
        # below, must be dropped if an insert lands in between.
        with self._lock:
            generation = self._insert_gens.get(home.start, 0)
        # Multi-level caching only pays off when the leaf's own
        # super-peer differs from the home one.
        fill_local = (
            self.adaptive
            and self.path_cache_capacity >= 1
            and local.start != home.start
        )

        if fill_local:
            payload = self._cache_peek(local.start, key)
            if payload is not None:
                # Answered one hop away, before leaving the cluster.
                value = None if payload is _ABSENT else payload
                with self._lock:
                    self.stats.cache_hits += 1
                    self.stats.local_cache_hits += 1
                    self._per_sp_add(local_sp, "path_cache_hits")
                    self._note_lookup_locked(local_sp, local.start)
                self._m_cache_hits.add()
                self._m_sp_cache_hits.add(local_sp)
                self._m_sp_lookups.add(local_sp)
                network.log_message(
                    MessageKind.LOOKUP,
                    source_id,
                    local_sp,
                    0,
                    max(1, source_id != local_sp),
                    key_repr,
                    route="local_cache",
                )
                network.log_message(
                    MessageKind.RESPONSE,
                    local_sp,
                    source_id,
                    response_size(value),
                    1,
                    key_repr,
                    route="local_cache",
                )
                self._charge((local_sp,), source_id)
                return value

        cached = self._cache_probe(home.start, key, home_sp)
        if cached is not None:
            value = None if cached is _ABSENT else cached
            if fill_local:
                self._answer_via_local(
                    network, source_id, local_sp, home_sp, to_home,
                    response_size(value), key_repr, "path_cache",
                )
                self._fill_remote(
                    local.start, home.start, key, cached, generation
                )
            else:
                self._answer_at_home(
                    network, source_id, home_sp, to_home,
                    response_size(value), key_repr, "path_cache",
                )
            self._charge((local_sp, home_sp), source_id)
            self._note_lookup(home_sp, home.start)
            return value
        if self.use_summaries and not self._may_contain(home.start, key_id):
            with self._lock:
                self.stats.summary_skips += 1
            self._m_summary_skips.add()
            self._m_sp_summary_skips.add(home_sp)
            with self._lock:
                self._per_sp_add(home_sp, "summary_skips")
            if fill_local:
                self._answer_via_local(
                    network, source_id, local_sp, home_sp, to_home,
                    response_size(None), key_repr, "summary_skip",
                )
                self._fill_remote(
                    local.start, home.start, key, _ABSENT, generation
                )
            else:
                self._answer_at_home(
                    network, source_id, home_sp, to_home,
                    response_size(None), key_repr, "summary_skip",
                )
            self._charge((local_sp, home_sp), source_id)
            self._note_lookup(home_sp, home.start)
            return None

        # Full path: forward to the responsible peer; the response
        # retraces through the home super-peer (and, in adaptive mode,
        # the local one too), filling the caches on its way back.
        request_hops = max(1, to_home + (home_sp != owner))
        network.log_message(
            MessageKind.LOOKUP, source_id, owner, 0, request_hops, key_repr,
            route="leaf>sp>home>owner",
        )
        value = network.storage_by_id(owner).get(key)
        if fill_local:
            response_hops = max(
                1,
                (owner != home_sp)
                + (home_sp != local_sp)
                + (local_sp != source_id),
            )
            response_route = "owner>home>local>leaf"
        else:
            response_hops = max(
                1, (owner != home_sp) + (home_sp != source_id)
            )
            response_route = "owner>home>leaf"
        network.log_message(
            MessageKind.RESPONSE,
            owner,
            source_id,
            response_size(value),
            response_hops,
            key_repr,
            route=response_route,
        )
        self._cache_fill(home.start, key, value, generation)
        if fill_local:
            self._fill_remote(
                local.start,
                home.start,
                key,
                _ABSENT if value is None else value,
                generation,
            )
        self._charge((local_sp, home_sp, owner), source_id)
        self._note_lookup(home_sp, home.start)
        return value

    def _answer_at_home(
        self,
        network: P2PNetwork,
        source_id: int,
        home_sp: int,
        to_home: int,
        postings: int,
        key_repr: str,
        route: str,
    ) -> None:
        """Log the message pair of a lookup answered at the home
        super-peer (cache hit or summary skip)."""
        network.log_message(
            MessageKind.LOOKUP,
            source_id,
            home_sp,
            0,
            max(1, to_home),
            key_repr,
            route=route,
        )
        network.log_message(
            MessageKind.RESPONSE, home_sp, source_id, postings, 1, key_repr,
            route=route,
        )

    def _answer_via_local(
        self,
        network: P2PNetwork,
        source_id: int,
        local_sp: int,
        home_sp: int,
        to_home: int,
        postings: int,
        key_repr: str,
        route: str,
    ) -> None:
        """Adaptive variant of :meth:`_answer_at_home`: the response
        retraces through the leaf's own super-peer so it can keep a
        copy (the caller fills it)."""
        network.log_message(
            MessageKind.LOOKUP,
            source_id,
            home_sp,
            0,
            max(1, to_home),
            key_repr,
            route=route,
        )
        network.log_message(
            MessageKind.RESPONSE,
            home_sp,
            source_id,
            postings,
            max(1, (home_sp != local_sp) + (local_sp != source_id)),
            key_repr,
            route=route,
        )

    # -- attribution -----------------------------------------------------------------

    def _per_sp_add(self, peer_id: int, field: str, amount: int = 1) -> None:
        """Bump an attribution counter.  Caller holds ``_lock``."""
        counters = self._per_sp.setdefault(peer_id, {})
        counters[field] = counters.get(field, 0) + amount

    def _charge(self, peers: tuple[int, ...], source_id: int) -> None:
        """Charge one unit of routing work to every distinct peer on
        the path except the requester itself — the load signal behind
        both the per-super-peer gauges and (adaptive only) the
        topology's election."""
        charged = {p for p in peers if p != source_id}
        if not charged:
            return
        with self._lock:
            for peer_id in charged:
                self._per_sp_add(peer_id, "load")
        if self.adaptive:
            for peer_id in charged:
                self.topology.observe_load(peer_id)

    def _note_lookup_locked(self, sp: int, cluster_key: int) -> None:
        """Attribute a served lookup.  Caller holds ``_lock``."""
        self._per_sp_add(sp, "lookups")
        if self.adaptive:
            self._window_lookups[cluster_key] = (
                self._window_lookups.get(cluster_key, 0) + 1
            )

    def _note_lookup(self, sp: int, cluster_key: int) -> None:
        with self._lock:
            self._note_lookup_locked(sp, cluster_key)
        self._m_sp_lookups.add(sp)

    # -- RoutingPolicy: inserts / generic hops ---------------------------------------

    def path_hops(self, source_id: int, key_id: int) -> int:
        """Request-path hops source -> local SP -> home SP -> owner."""
        network = self.topology.network
        owner = network.effective_owner(key_id)
        if owner is None:
            # Dark range: the message travels to the local super-peer
            # and on toward the dead region before timing out.
            local_sp = self.topology.access_cluster(source_id).super_peer
            return max(1, (source_id != local_sp) + 1)
        if owner == source_id:
            return 1
        home_sp = self.topology.super_peer_of(owner)
        local_sp = self.topology.access_cluster(source_id).super_peer
        return max(
            1,
            (source_id != local_sp)
            + (local_sp != home_sp)
            + (home_sp != owner),
        )

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
        self._m_inserts.add()
        home = self.topology.home_cluster(key_id)
        if home is None:
            # Dark range: the write was lost, nothing is cached for the
            # key (dark lookups bypass the cache), nothing to invalidate.
            with self._lock:
                self.stats.inserts += 1
            return
        home_sp = home.super_peer
        start = home.start
        rebuild_epoch: int | None = None
        fanout_targets: list[int] = []
        with self._lock:
            self.stats.inserts += 1
            self._per_sp_add(home_sp, "inserts")
            self._m_sp_inserts.add(home_sp)
            # Bump the generation and evict under the same lock the
            # fill path checks the generation under, so a lookup that
            # read the pre-insert value can never re-cache it after
            # this invalidation.
            self._insert_gens[start] = self._insert_gens.get(start, 0) + 1
            cache = self._caches.get(start)
            if cache is not None:
                cache.remove(key)
            # Scoped fan-out: only the clusters registered as holding
            # a copy of *this* key are touched.
            holders = self._remote_copies.pop(key, None)
            if holders:
                for holder_start in holders:
                    holder_cache = self._caches.get(holder_start)
                    if holder_cache is not None:
                        holder_cache.remove(key)
                    if holder_start != start:
                        fanout_targets.append(holder_start)
            if self.adaptive:
                self._window_churn[start] = (
                    self._window_churn.get(start, 0) + 1
                )
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
            network = self.topology.network
            by_start = {c.start: c for c in self.topology.clusters}
            sent = 0
            for holder_start in sorted(fanout_targets):
                holder = by_start.get(holder_start)
                if holder is None or holder.super_peer == home_sp:
                    continue
                network.log_message(
                    MessageKind.CACHE_INVALIDATE,
                    home_sp,
                    holder.super_peer,
                    0,
                    1,
                    key_repr=str(key_id),
                )
                sent += 1
            if sent:
                self._m_invalidations.add(sent)
                with self._lock:
                    self.stats.invalidations += sent
        if rebuild_epoch is not None:
            self._rebuild_cluster_summary(home, epoch=rebuild_epoch)

    # -- RoutingPolicy: membership -------------------------------------------------

    def on_membership_change(self, event=None) -> None:
        """Membership hook.  Join and leave change the live population,
        so the base chunking shifts and the whole map re-clusters.
        Crash and respawn do *not*: the fault model keeps the peer's
        ring position (key responsibility and replica placement are
        unchanged), so only the affected cluster's routing state is
        repaired — a single crash no longer throws away every other
        cluster's path cache."""
        if event is not None and getattr(event, "kind", None) in (
            "crash",
            "respawn",
        ):
            if self._scoped_membership_repair(event):
                return
        self.refresh()

    def _scoped_membership_repair(self, event: Any) -> bool:
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
        with self._adapt_lock:
            current = cluster
            if (
                event.kind == "crash"
                and cluster.super_peer == event.peer_id
            ):
                reelected = self.topology.reelect(cluster)
                if reelected is not None:
                    current = reelected
            self._drop_cluster_state(current)
            with self._lock:
                self.stats.scoped_repairs += 1
            network = self.topology.network
            if self.use_summaries and any(
                network.is_live(m) for m in current.members
            ):
                self._rebuild_cluster_summary(current)
        return True

    def _drop_cluster_state(self, cluster: Cluster) -> None:
        """Invalidate one cluster's routing state (cache, summary, any
        in-flight summary rebuild) plus the whole remote-copy registry,
        and account the invalidation fan-out as maintenance."""
        network = self.topology.network
        start = cluster.start
        with self._lock:
            self._caches.pop(start, None)
            self._insert_gens[start] = self._insert_gens.get(start, 0) + 1
            self._summaries.pop(start, None)
            self._summary_rebuilding.pop(start, None)
            self._pending_summary_adds.pop(start, None)
            holder_starts: set[int] = set()
            for key, holders in self._remote_copies.items():
                for holder_start in holders:
                    holder_cache = self._caches.get(holder_start)
                    if holder_cache is not None:
                        holder_cache.remove(key)
                    holder_starts.add(holder_start)
            self._remote_copies.clear()
        if not holder_starts:
            return
        announce = cluster.super_peer
        if not network.is_live(announce):
            return
        by_start = {c.start: c for c in self.topology.clusters}
        sent = 0
        for holder_start in sorted(holder_starts):
            holder = by_start.get(holder_start)
            if holder is None or holder.super_peer == announce:
                continue
            network.log_maintenance(
                MessageKind.CACHE_INVALIDATE, announce, holder.super_peer
            )
            sent += 1
        if sent:
            self._m_invalidations.add(sent)
            with self._lock:
                self.stats.invalidations += sent

    def refresh(self) -> None:
        """Re-cluster and rebuild all routing state.

        Key ranges may have moved between clusters (churn handoffs), so
        the in-network caches are dropped wholesale and every summary is
        rebuilt from the member storages.  Also the restore hook after a
        snapshot load placed entries directly into storages.
        """
        with self._adapt_lock:
            self.topology.rebuild()
            with self._lock:
                self._caches = {}
                self._remote_copies.clear()
                self._window_lookups.clear()
                self._window_churn.clear()
                self._split_pairs.clear()
                self._calm_windows.clear()
                # Supersede every in-flight summary rebuild: cluster
                # boundaries moved, so an install scanned against the
                # old map must not resurrect a stale filter.
                self._summary_epoch += 1
                self._summary_rebuilding.clear()
                self._pending_summary_adds.clear()
                self._summaries = {}
                self.stats.rebuilds += 1
            self._rebuild_summaries()

    # -- adaptive split/merge controller ---------------------------------------------

    def _maybe_adapt(self) -> None:
        """Close a decision window every ``decision_interval`` lookups
        and act on it: merge calm split pairs, split the hottest
        overloaded cluster."""
        with self._lock:
            self._decision_tick += 1
            if self._decision_tick < self.decision_interval:
                return
            self._decision_tick = 0
            scores: dict[int, int] = dict(self._window_lookups)
            for start, churn in self._window_churn.items():
                scores[start] = scores.get(start, 0) + churn
            self._window_lookups.clear()
            self._window_churn.clear()
        with self._adapt_lock:
            self._apply_adaptation(scores)

    def _apply_adaptation(self, scores: dict[int, int]) -> None:
        """One decision round.  Caller holds ``_adapt_lock``."""
        clusters = self.topology.clusters
        for cluster in clusters:
            self._m_window_load.set(
                cluster.super_peer, float(scores.get(cluster.start, 0))
            )
        # Merges first: a pair must stay calm for merge_cool_down
        # *consecutive* windows (one hot window resets the count), so a
        # cluster oscillating around the thresholds never flaps.
        for upper_start in sorted(self._split_pairs):
            lower_start = self._split_pairs[upper_start]
            by_start = {c.start: c for c in self.topology.clusters}
            lower = by_start.get(lower_start)
            upper = by_start.get(upper_start)
            if (
                lower is None
                or upper is None
                or upper.index != lower.index + 1
            ):
                # The map changed underneath (full rebuild or another
                # reshape); the pair no longer exists.
                del self._split_pairs[upper_start]
                self._calm_windows.pop(upper_start, None)
                continue
            combined = scores.get(lower_start, 0) + scores.get(
                upper_start, 0
            )
            if combined > self.merge_threshold:
                self._calm_windows[upper_start] = 0
                continue
            calm = self._calm_windows.get(upper_start, 0) + 1
            if calm < self.merge_cool_down:
                self._calm_windows[upper_start] = calm
                continue
            merged = self.topology.merge(lower, upper)
            del self._split_pairs[upper_start]
            self._calm_windows.pop(upper_start, None)
            if merged is not None:
                self._m_merges.add()
                self._on_merged(lower, upper, merged)
        # One split per window, hottest first (ties to the lowest
        # start, keeping identical histories deterministic).
        candidates = [
            c
            for c in self.topology.clusters
            if len(c.members) >= 2
            and scores.get(c.start, 0) >= self.split_threshold
        ]
        if not candidates:
            return
        hottest = min(
            candidates, key=lambda c: (-scores.get(c.start, 0), c.start)
        )
        result = self.topology.split(hottest)
        if result is None:
            return
        lower, upper = result
        self._split_pairs[upper.start] = lower.start
        self._calm_windows[upper.start] = 0
        self._m_splits.add()
        self._on_split(lower, upper)

    def _on_split(self, lower: Cluster, upper: Cluster) -> None:
        """Routing-state follow-up to a topology split.  Caller holds
        ``_adapt_lock``."""
        self._drop_reshaped_state((lower.start, upper.start))
        if self.use_summaries:
            self._rebuild_cluster_summary(lower)
            self._rebuild_cluster_summary(upper)

    def _on_merged(
        self, lower: Cluster, upper: Cluster, merged: Cluster
    ) -> None:
        """Routing-state follow-up to a topology merge.  Caller holds
        ``_adapt_lock``."""
        self._drop_reshaped_state((lower.start, upper.start))
        if self.use_summaries:
            self._rebuild_cluster_summary(merged)

    def _drop_reshaped_state(self, starts: tuple[int, ...]) -> None:
        """Drop caches/summaries keyed by ``starts`` after a split or
        merge.  Generations are bumped so in-flight fills sampled
        against the old shape are discarded (a pre-split home cache
        slot must not receive a fill meant for what is now another
        cluster's range), and in-flight summary installs for the old
        shape become no-ops (marker popped)."""
        with self._lock:
            for start in starts:
                self._caches.pop(start, None)
                self._insert_gens[start] = (
                    self._insert_gens.get(start, 0) + 1
                )
                self._summaries.pop(start, None)
                self._summary_rebuilding.pop(start, None)
                self._pending_summary_adds.pop(start, None)
            # Copies *held by* the reshaped clusters died with their
            # caches; de-register them so later inserts do not fan out
            # to clusters that no longer hold anything.
            for key in list(self._remote_copies):
                holders = self._remote_copies[key]
                for start in starts:
                    holders.discard(start)
                if not holders:
                    del self._remote_copies[key]

    # -- path caches -----------------------------------------------------------------

    def _cache_peek(self, cluster_key: int, key: Any) -> Any | None:
        """The cached payload for ``key`` at ``cluster_key``'s
        super-peer, without touching hit/miss counters (the local-level
        probe of a two-level lookup: only the home-level probe defines
        the hit rate, so it stays comparable to static routing)."""
        if self.path_cache_capacity < 1:
            return None
        with self._lock:
            cache = self._caches.get(cluster_key)
        if cache is None:
            return None
        return cache.try_hit(_KeyProbe(key), _CACHE_DEPTH)

    def _cache_probe(
        self, cluster_key: int, key: Any, sp: int
    ) -> Any | None:
        """The cached payload for ``key`` at the home super-peer
        (possibly :data:`_ABSENT`), or ``None`` on a miss."""
        if self.path_cache_capacity < 1:
            return None
        with self._lock:
            cache = self._caches.get(cluster_key)
        payload = (
            cache.try_hit(_KeyProbe(key), _CACHE_DEPTH)
            if cache is not None
            else None
        )
        with self._lock:
            if payload is None:
                self.stats.cache_misses += 1
                self._per_sp_add(sp, "path_cache_misses")
            else:
                self.stats.cache_hits += 1
                self._per_sp_add(sp, "path_cache_hits")
        (self._m_cache_misses if payload is None else self._m_cache_hits).add()
        (
            self._m_sp_cache_misses
            if payload is None
            else self._m_sp_cache_hits
        ).add(sp)
        return payload

    def _cache_fill(
        self,
        cluster_key: int,
        key: Any,
        value: Any | None,
        generation: int,
    ) -> None:
        """Cache the response that just retraced through the home
        super-peer (absences included — repeated lattice probes of
        never-indexed subsets are the common case).

        ``generation`` is the cluster's insert generation sampled
        before the owner's storage was read; if any insert hit the
        cluster since, the read may predate it and the fill is dropped
        (the put runs under the router lock so it is atomic with
        :meth:`on_insert`'s bump-and-evict)."""
        if self.path_cache_capacity < 1:
            return
        payload = _ABSENT if value is None else value
        with self._lock:
            if self._insert_gens.get(cluster_key, 0) != generation:
                return
            cache = self._caches.get(cluster_key)
            if cache is None:
                cache = QueryResultCache(self.path_cache_capacity)
                self._caches[cluster_key] = cache
            cache.put(_KeyProbe(key), _CACHE_DEPTH, payload)
            if self.adaptive:
                # The home itself is a registered holder in adaptive
                # mode: a failover, respawn, or split can re-home the
                # key, and this copy would then still be reachable
                # through the local-level probe.
                self._register_copy_locked(key, cluster_key)

    def _fill_remote(
        self,
        holder_key: int,
        home_key: int,
        key: Any,
        payload: Any,
        generation: int,
    ) -> None:
        """Fill a *remote* copy (the querying cluster's super-peer) and
        register it for invalidation fan-out.  Guarded by the home
        cluster's insert generation exactly like :meth:`_cache_fill`."""
        if self.path_cache_capacity < 1:
            return
        with self._lock:
            if self._insert_gens.get(home_key, 0) != generation:
                return
            cache = self._caches.get(holder_key)
            if cache is None:
                cache = QueryResultCache(self.path_cache_capacity)
                self._caches[holder_key] = cache
            cache.put(_KeyProbe(key), _CACHE_DEPTH, payload)
            self._register_copy_locked(key, holder_key)

    def _register_copy_locked(self, key: Any, holder_key: int) -> None:
        """Record that ``holder_key``'s super-peer caches ``key``.
        Caller holds ``_lock``.  The registry is LRU-bounded; evicting
        a registry entry evicts the copies themselves."""
        holders = self._remote_copies.get(key)
        if holders is None:
            holders = set()
            self._remote_copies[key] = holders
        holders.add(holder_key)
        self._remote_copies.move_to_end(key)
        while len(self._remote_copies) > self._copy_registry_capacity:
            evicted_key, evicted_holders = self._remote_copies.popitem(
                last=False
            )
            for evicted_holder in evicted_holders:
                holder_cache = self._caches.get(evicted_holder)
                if holder_cache is not None:
                    holder_cache.remove(evicted_key)

    # -- summaries ---------------------------------------------------------------------

    def _may_contain(self, cluster_key: int, key_id: int) -> bool:
        with self._lock:
            summary = self._summaries.get(cluster_key)
            # A missing summary claims nothing: forward the lookup.
            return summary is None or key_id in summary

    def _rebuild_summaries(self) -> None:
        if not self.use_summaries:
            with self._lock:
                self._summaries = {}
            return
        for cluster in self.topology.clusters:
            self._rebuild_cluster_summary(cluster)

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
        with network.accounting.phase_scope(Phase.MAINTENANCE):
            for member, key_ids in rows:
                for key_id in key_ids:
                    summary.add(key_id)
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
            self.stats.summary_rebuilds += 1
        return True

    # -- inspection --------------------------------------------------------------------

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
