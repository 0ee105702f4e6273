"""The four workloads.  ``ledger/README.md`` says why each exists.

Every workload follows the same order — generate inputs, run the
one-shot phases it needs, make the counting pass, run the timed blocks,
measure the final world — and fills the same end-to-end metrics.  Link
latency is zero everywhere, so every number is CPU cost, not overlapped
sleep.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.engine.service import SearchService
from repro.net.accounting import Phase
from repro.serving import WorkerPool, WorkerSpec

from .httpserve import ServeError, Server, http_block, search_body
from .timing import (
    BLOCK_SECONDS,
    Block,
    block_medians,
    block_series,
    calibrate,
    closed_loop_block,
    one_shot,
    percentile,
    steady,
    timed_phase,
)
from .trace import Totals, Tracer
from .world import (
    K,
    PARAMS,
    PEERS,
    Sizes,
    World,
    make_world,
    mean_top_k_overlap,
    ranking_of,
    rankings_digest,
)

Ranking = list[list[Any]]

#: ``hdk_disk`` RAM budget of ``disk_cold``: far below the working set.
COLD_BUDGET_BYTES = 64 * 1024

#: ``hdk_super`` shape of ``super_zipf_churn``.
CHURN_OVERLAY = dict(
    overlay_adaptive=True,
    overlay_fanout=5,
    overlay_split_threshold=24,
    overlay_merge_threshold=4,
    replication=2,
)

#: Client threads of ``serve_http``, one keep-alive connection each.
HTTP_CLIENTS = min(2, os.cpu_count() or 1)

#: Untraced blocks a traced run times first, for the tracing overhead.
OVERHEAD_BLOCKS = 2

#: Requests behind each of the serving layer's round-trip medians, and
#: queries the traced ``serve_http`` run replays on an in-process replica.
EDGE_PROBES = 300
REPLICA_QUERIES = 3_000


@dataclass
class Run:
    """One run of one workload: its inputs, and what it has found."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    tmp: Path
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: The parts ``setup_s`` is the sum of.
    setup: dict[str, float] = field(default_factory=dict)
    #: Every repetition of every one-shot phase, in seconds.
    one_shots: dict[str, list[float]] = field(default_factory=dict)
    #: What the wrappers recorded, per phase of the run (traced runs).
    phases: dict[str, Totals] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def planned_blocks(self) -> int:
        if self.sizes.quick:
            return 3
        return max(1, round(self.seconds / BLOCK_SECONDS))

    @property
    def block_seconds(self) -> float:
        return self.seconds / self.planned_blocks

    @property
    def max_extra_blocks(self) -> int:
        # The noise guard may lengthen the phase by a quarter: doubling
        # it would not fit the total the benchmark is allowed to take.
        return 0 if self.sizes.quick else self.planned_blocks // 4

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if count and len(self.errors) < 20:
            self.errors.append(message)

    @contextlib.contextmanager
    def phase(self, name: str, add: bool = False) -> Iterator[None]:
        """Attribute what the wrappers record inside the block to
        ``name`` (replacing an earlier phase of that name unless
        ``add``).  Costs nothing in an untraced run."""
        if self.tracer is None:
            yield
            return
        before = self.tracer.totals()
        try:
            yield
        finally:
            delta = self.tracer.totals().minus(before)
            if add and name in self.phases:
                self.phases[name].add(delta)
            else:
                self.phases[name] = delta

    @contextlib.contextmanager
    def untraced(self) -> Iterator[None]:
        """Run the block without the wrappers: for work that is not the
        program under test in this run, and for the overhead blocks."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    def repeat(
        self,
        phase: str,
        make: Callable[[], Any],
        dispose: Callable[[Any], None],
    ) -> Any:
        """Run a one-shot phase the configured number of times on fresh
        state; its steady value becomes part of ``setup_s`` and the last
        repetition's product is returned."""

        def traced_make() -> Any:
            with self.phase(phase):
                return make()

        times, product = one_shot(
            traced_make, self.sizes.repetitions, dispose
        )
        self.one_shots[phase] = times
        self.setup[phase] = steady(times)
        self.attempted += len(times)
        return product


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    sizes: Sizes,
    tmp: Path,
) -> Run:
    run = Run(workload, seed, seconds, sizes, tmp)
    if run.planned_blocks < 3:
        raise SystemExit("ledger: --seconds is too short for three blocks")
    run.detail["calib_ms_before"] = calibrate()
    if traced:
        run.tracer = Tracer()
        run.tracer.install()
    try:
        started = time.perf_counter()
        world = make_world(seed, sizes)
        run.setup["generate_inputs"] = time.perf_counter() - started
        run.detail["replay_digest"] = world.replay_digest()
        WORKLOADS[workload](run, world)
    finally:
        if run.tracer:
            run.tracer.uninstall()
    run.end_to_end["setup_s"] = sum(run.setup.values())
    # serve_http reports its server's processes instead of this one.
    run.end_to_end.setdefault(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    run.detail["calib_ms_after"] = calibrate()
    if traced:
        run.per_layer["machine.calib_ms_before"] = run.detail["calib_ms_before"]
        run.per_layer["machine.calib_ms_after"] = run.detail["calib_ms_after"]
    return run


# -- services ----------------------------------------------------------------------


def build_service(run: Run, world: World, backend: str, **knobs: Any) -> Any:
    """``build`` + ``index()`` of the initial world, query cache off."""
    if backend == "hdk_disk":
        # A directory of the run's own: the default would be the
        # system's temporary directory, outside the checkout.
        knobs["store_dir"] = run.tmp / f"store-{time.monotonic_ns()}"
    service = SearchService.build(
        world.initial,
        num_peers=PEERS,
        backend=backend,
        params=PARAMS,
        overlay="chord",
        cache_capacity=None,
        **knobs,
    )
    service.index()
    return service


def close_service(service: Any) -> None:
    """Stop what a service keeps running (the disk store's maintenance
    thread and open files)."""
    store = getattr(service.backend.global_index, "store", None)
    if store is not None:
        store.close()


def save_snapshot(run: Run, service: Any) -> Path:
    path = run.tmp / f"snapshot-{time.monotonic_ns()}"
    service.save(path)
    return path


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def index_rate(run: Run) -> float:
    """Documents per second of the bulk ``build`` + ``index()``."""
    return run.sizes.docs / run.setup["build"]


# -- the counting pass -----------------------------------------------------------------


@dataclass
class Counted:
    """What the fixed probe log cost, replayed by one caller.  These
    are counts, so they repeat exactly, whatever the seed."""

    queries: Sequence[str]
    rankings: list[Ranking] = field(default_factory=list)
    postings: int = 0
    hops: int = 0
    messages: int = 0
    keys_looked_up: int = 0
    keys_found: int = 0


def count_in_process(run: Run, service: Any, queries: Sequence[str]) -> Counted:
    counted = Counted(queries)
    if run.tracer:
        run.tracer.recording = True
    started = time.perf_counter()
    for query in queries:
        response = service.search(query, k=K)
        traffic = response.traffic
        counted.rankings.append(ranking_of(response))
        counted.postings += response.postings_transferred
        counted.hops += traffic.hops_by_phase.get(Phase.RETRIEVAL, 0)
        counted.messages += traffic.messages_by_phase.get(Phase.RETRIEVAL, 0)
        counted.keys_looked_up += response.keys_looked_up
        counted.keys_found += response.keys_found
    run.detail["counting_pass_s"] = time.perf_counter() - started
    if run.tracer:
        run.tracer.recording = False
    return counted


def account_counting_pass(run: Run, world: World, counted: Counted) -> None:
    """The counting pass gives the exact per-query costs, and its
    rankings must equal a flat ``hdk`` build's of the same initial
    world — the repo's byte-identical claim, checked outside every
    timed region."""
    queries = len(counted.queries)
    run.attempted += queries
    run.end_to_end["postings_per_query"] = counted.postings / queries
    run.end_to_end["hops_per_query"] = counted.hops / queries
    run.detail["rankings_digest"] = rankings_digest(counted.rankings)
    with run.untraced():
        reference = build_service(run, world, "hdk")
        known = {
            query: ranking_of(reference.search(query, k=K))
            for query in set(counted.queries)
        }
    wrong = [
        query
        for query, ranking in zip(counted.queries, counted.rankings)
        if ranking != known[query]
    ]
    run.fail(
        len(wrong),
        f"counting pass: {len(wrong)} rankings differ from flat hdk, "
        f"e.g. {wrong[:2]}",
    )


# -- timed blocks ----------------------------------------------------------------------


def run_blocks(
    run: Run, run_block: Callable[[int], Block], guard: bool = True
) -> int:
    """The timed phase: planned blocks plus what the noise guard adds.
    A traced run first times a few blocks with the wrappers off.
    Returns the number of timed requests."""
    if run.tracer:
        with run.untraced():
            untraced = [run_block(-1 - i) for i in range(OVERHEAD_BLOCKS)]
        run.detail["untraced_qps"] = statistics.median(
            block.qps for block in untraced
        )
        run.detail["untraced_requests"] = sum(
            block.requests for block in untraced
        )
    blocks = timed_phase(
        run_block, run.planned_blocks, run.max_extra_blocks if guard else 0
    )
    run.end_to_end.update(block_medians(blocks))
    run.detail["blocks_planned"] = run.planned_blocks
    run.detail["blocks_run"] = len(blocks)
    run.detail["blocks"] = block_series(blocks)
    requests = sum(block.requests for block in blocks)
    run.attempted += requests
    run.fail(
        sum(block.failed for block in blocks),
        "requests failed in timed blocks",
    )
    if run.tracer:
        run.per_layer["obs.traced_overhead_ratio"] = (
            run.detail["untraced_qps"] / run.end_to_end["query_qps"]
        )
    return requests


def in_process_blocks(
    run: Run,
    service: Any,
    log: Sequence[str],
    between: Callable[[int], list[tuple[str, Any]] | None] = lambda _i: None,
    guard: bool = True,
) -> int:
    """One caller replaying ``log`` cyclically.  ``between(index)`` runs
    before block ``index`` (untimed) and may return a list to collect
    that block's responses in."""
    cursor = 0

    def search(query: str) -> Any:
        return service.search(query, k=K)

    def run_block(index: int) -> Block:
        nonlocal cursor
        keep = between(index)
        with run.phase("query", add=True):
            block, cursor = closed_loop_block(
                search, log, cursor, run.block_seconds, keep
            )
        return block

    return run_blocks(run, run_block, guard)


# -- the final world -------------------------------------------------------------------


def final_world(
    run: Run,
    world: World,
    joined: Sequence[Any],
    search: Callable[[str], Ranking],
    indexed: Any,
    snapshot: Path,
) -> None:
    """The paper's cost and quality figures on the world as the
    workload left it.  ``indexed`` is the service that did the indexing
    (a loaded service has no indexing traffic to report); ``snapshot``
    is a ``save()`` of it."""
    queries = world.overlap
    ours = [search(query) for query in queries]
    run.attempted += len(ours)
    merged = world.initial.subset(world.initial.doc_ids())
    for collection in joined:
        merged.extend(collection)
    with run.untraced():
        oracle = SearchService.build(
            merged, num_peers=PEERS, backend="centralized", cache_capacity=None
        )
        oracle.index()
        theirs = [ranking_of(oracle.search(query, k=K)) for query in queries]
    run.end_to_end["top20_overlap"] = mean_top_k_overlap(ours, theirs)
    run.end_to_end["inserted_postings_per_peer"] = (
        indexed.inserted_postings_per_peer()
    )
    run.end_to_end["stored_postings_per_peer"] = (
        indexed.stored_postings_per_peer()
    )
    run.end_to_end["snapshot_bytes_per_posting"] = (
        tree_bytes(snapshot) / indexed.stored_postings_total()
    )


# -- per-layer metrics -----------------------------------------------------------------


def span_layers(run: Run, requests: int, counted: Counted, reports: Any) -> None:
    """The per-layer metrics the wrappers' totals give: build-phase
    seconds, and self time per query over the timed blocks."""
    build = run.phases.get("build", Totals())
    join = run.phases.get("join", Totals())
    query = run.phases.get("query", Totals())
    layers = run.per_layer

    def us_q(*names: str) -> float:
        return query.self_seconds(*names) / requests * 1e6

    def calls_q(name: str) -> float:
        return query.calls(name) / requests

    layers["text.process_us_q"] = us_q("QueryProcessor.process")

    layers["hdk.extract_s"] = build.self_seconds(
        "PeerIndexer.extract_statistics", "PeerIndexer.extract_round"
    )
    layers["hdk.expansion_s"] = join.self_seconds("run_expansion_cascade")
    layers["hdk.candidate_keys"] = sum(r.total_candidate_keys for r in reports)
    layers["hdk.ndk_keys"] = sum(
        sum(r.ndk_keys_by_size.values()) for r in reports
    )

    layers["indexing.stage_s"] = build.self_seconds("PeerIndexer.stage_round")
    layers["indexing.apply_s"] = build.self_seconds("PeerIndexer.apply_round")

    layers["index.insert_calls"] = build.calls("GlobalKeyIndex.stage_insert")
    layers["index.insert_s_build"] = build.self_seconds(
        "GlobalKeyIndex.stage_insert", "GlobalKeyIndex.apply_staged"
    )
    layers["index.lookup_calls_q"] = calls_q("GlobalKeyIndex.lookup")
    layers["index.lookup_us_q"] = us_q("GlobalKeyIndex.lookup")
    layers["index.key_found_ratio"] = counted.keys_found / max(
        1, counted.keys_looked_up
    )

    layers["net.route_calls_build"] = build.calls("ChordOverlay.route_hops")
    layers["net.route_s_build"] = build.self_seconds("ChordOverlay.route_hops")
    layers["net.accounting_s_build"] = build.self_seconds(
        "TrafficAccounting.record"
    )
    layers["net.send_insert_s_build"] = build.self_seconds(
        "P2PNetwork.send_insert"
    )
    layers["net.route_calls_q"] = calls_q("ChordOverlay.route_hops")
    layers["net.route_us_q"] = us_q("ChordOverlay.route_hops")
    layers["net.accounting_calls_q"] = calls_q("TrafficAccounting.record")
    layers["net.accounting_us_q"] = us_q("TrafficAccounting.record")
    layers["net.lookup_us_q"] = us_q("P2PNetwork.lookup")
    layers["net.messages_q"] = counted.messages / len(counted.queries)
    layers["net.hops_per_message"] = counted.hops / max(1, counted.messages)

    layers["retrieval.engine_us_q"] = us_q("HDKRetrievalEngine.search")
    layers["retrieval.rank_us_q"] = us_q("DistributedRanker.rank")
    layers["retrieval.keys_looked_up_q"] = counted.keys_looked_up / len(
        counted.queries
    )

    layers["engine.search_us_q"] = us_q("SearchService.search")

    layers["store.get_calls_q"] = calls_q("SegmentStore.get_postings")
    layers["store.get_us_q"] = us_q("SegmentStore.get_postings")
    layers["store.put_s_build"] = build.self_seconds(
        "SegmentStore.put", "SpillingGlobalKeyIndex.apply_staged"
    )
    layers["store.save_s"] = run.phases.get("save", Totals()).seconds(
        "SearchService.save"
    )
    layers["store.load_s"] = run.phases.get("load", Totals()).seconds(
        "SearchService.load"
    )

    layers["overlay.route_lookup_us_q"] = us_q(
        "HierarchicalRouter.route_lookup"
    )
    layers["overlay.on_insert_s"] = build.self_seconds(
        "HierarchicalRouter.on_insert"
    ) + join.self_seconds("HierarchicalRouter.on_insert")
    layers["overlay.membership_s"] = build.self_seconds(
        "HierarchicalRouter.on_membership_change"
    ) + join.self_seconds("HierarchicalRouter.on_membership_change")

    layers["replication.failover_us_q"] = us_q(
        "ReplicaFailoverRouter.route_lookup"
    )


def store_layers(
    run: Run, before: dict[str, Any], after: dict[str, Any], requests: int
) -> None:
    """The disk store's own counters, as ``spill_stats()`` publishes
    them (in process, or through ``/stats``), over the timed blocks."""
    store, earlier = after["store"], before["store"]
    layers = run.per_layer
    hits = store["cache_hits"] - earlier["cache_hits"]
    misses = store["cache_misses"] - earlier["cache_misses"]
    layers["store.blockcache_hit_rate"] = hits / max(1, hits + misses)
    layers["store.spill_reloads_q"] = (
        after["reloads"] - before["reloads"]
    ) / requests
    layers["store.flushes"] = store["flushes"]
    layers["store.compactions"] = store["compactions"]
    layers["store.live_bytes"] = store["live_bytes"]
    layers["store.dead_ratio"] = store["dead_ratio"]
    on_disk = sum(
        f.stat().st_size for f in Path(store["directory"]).glob("*.seg")
    )
    layers["store.write_amp"] = on_disk / max(1, store["live_bytes"])


def service_layers(
    run: Run, queried: Any, indexed: Any, requests: int, counted: Counted
) -> None:
    """Per-layer metrics of a service queried in this process.
    ``indexed`` is the service that ran the indexing protocol."""
    span_layers(run, requests, counted, indexed.indexing_reports)
    run.per_layer["index.keys_total"] = queried.stats()["keys"]
    cache = queried.cache_stats
    run.per_layer["engine.cache_hit_rate"] = cache.hit_rate
    run.per_layer["engine.cache_evictions"] = cache.evictions


def search_in(service: Any) -> Callable[[str], Ranking]:
    return lambda query: ranking_of(service.search(query, k=K))


# -- mem_flat --------------------------------------------------------------------------


def mem_flat(run: Run, world: World) -> None:
    service = run.repeat(
        "build", lambda: build_service(run, world, "hdk"), close_service
    )
    run.end_to_end["index_docs_per_s"] = index_rate(run)
    counted = count_in_process(run, service, world.probe_uniform)
    account_counting_pass(run, world, counted)
    requests = in_process_blocks(run, service, world.uniform)
    with run.phase("save"):
        snapshot = save_snapshot(run, service)
    final_world(run, world, [], search_in(service), service, snapshot)
    if run.tracer:
        service_layers(run, service, service, requests, counted)


# -- disk_cold -------------------------------------------------------------------------


def disk_cold(run: Run, world: World) -> None:
    builder = run.repeat(
        "build",
        lambda: build_service(
            run, world, "hdk_disk", memory_budget_bytes=COLD_BUDGET_BYTES
        ),
        close_service,
    )
    run.end_to_end["index_docs_per_s"] = index_rate(run)
    spills_build = builder.stats()["spill"]["spills"]
    snapshot = run.repeat(
        "save", lambda: save_snapshot(run, builder), shutil.rmtree
    )
    close_service(builder)
    service = run.repeat(
        "load",
        lambda: SearchService.load(
            snapshot,
            memory_budget_bytes=COLD_BUDGET_BYTES,
            cache_capacity=None,
        ),
        close_service,
    )
    counted = count_in_process(run, service, world.probe_uniform)
    account_counting_pass(run, world, counted)
    spill_before = service.stats()["spill"]
    requests = in_process_blocks(run, service, world.uniform)
    spill_after = service.stats()["spill"]
    final_world(run, world, [], search_in(service), builder, snapshot)
    close_service(service)
    if run.tracer:
        service_layers(run, service, builder, requests, counted)
        # A traced run's overhead blocks fall between the two readings.
        store_layers(
            run,
            spill_before,
            spill_after,
            requests + run.detail["untraced_requests"],
        )
        run.per_layer["store.spills_build"] = spills_build


# -- super_zipf_churn ------------------------------------------------------------------


def super_zipf_churn(run: Run, world: World) -> None:
    service = run.repeat(
        "build",
        lambda: build_service(run, world, "hdk_super", **CHURN_OVERLAY),
        close_service,
    )
    counted = count_in_process(run, service, world.probe_zipf)
    account_counting_pass(run, world, counted)

    # The schedule, in planned blocks counted from 1: the crash follows
    # block ``kill_after`` and the respawn + anti-entropy pass follows
    # block ``respawn_after``; a join of four held-out documents follows
    # every other planned block.  No join falls in the dead window:
    # add_peers on hdk_super raises while a peer is crashed (see "Known
    # defects" in the README).  The noise guard is off: the blocks differ
    # by design (each join empties caches), and blocks appended without
    # joins would measure another workload.
    planned = run.planned_blocks
    kill_after = 3 if planned >= 6 else 1
    respawn_after = kill_after + (2 if planned >= 6 else 1)
    victim = service.peers[PEERS // 2].name
    joined: list[Any] = []
    join_seconds: list[float] = []
    kept: dict[int, list[tuple[str, Any]]] = {}
    repair: dict[str, Any] = {}

    def join() -> None:
        if len(joined) == len(world.held_out):
            return
        collection = world.held_out[len(joined)]
        started = time.perf_counter()
        with run.phase("join", add=True):
            service.add_peers(collection, 1)
        join_seconds.append(time.perf_counter() - started)
        joined.append(collection)

    def between(index: int) -> list[tuple[str, Any]] | None:
        done, upcoming = index, index + 1
        if 1 <= done < planned:
            if done == kill_after:
                service.kill_peer(victim)
            elif done == respawn_after:
                started = time.perf_counter()
                service.respawn_peer(victim)
                repair["report"] = service.run_anti_entropy()
                repair["seconds"] = time.perf_counter() - started
            if done < kill_after or done >= respawn_after:
                join()
        if kill_after <= upcoming <= respawn_after:
            return kept.setdefault(upcoming, [])
        return None

    requests = in_process_blocks(
        run, service, world.zipf, between, guard=False
    )
    run.attempted += len(joined) + 2
    run.end_to_end["index_docs_per_s"] = statistics.median(
        len(collection) / seconds
        for collection, seconds in zip(joined, join_seconds)
    )

    # With two replicas, a query of the dead window should rank as it
    # did in the last block before the crash (the world did not change
    # in between).  On this tree it sometimes does not (see "Known
    # defects" in the README), so the share that does is a metric of
    # the replication layer, not a failed operation.
    pre_crash = {
        query: ranking_of(response)
        for query, response in kept[kill_after]
        if response is not None
    }
    compared = equal = 0
    for block in range(kill_after + 1, respawn_after + 1):
        for query, response in kept[block]:
            if response is not None and query in pre_crash:
                compared += 1
                equal += ranking_of(response) == pre_crash[query]
    run.detail["dead_window_compared"] = compared
    run.detail["dead_window_changed"] = compared - equal
    run.detail["joins"] = len(joined)

    stats = service.stats()
    with run.phase("save"):
        snapshot = save_snapshot(run, service)
    final_world(run, world, joined, search_in(service), service, snapshot)
    if run.tracer:
        service_layers(run, service, service, requests, counted)
        layers = run.per_layer
        layers["indexing.join_s_round"] = statistics.mean(join_seconds)
        overlay = stats["overlay"]
        lookups = max(1, overlay["lookups"])
        layers["overlay.path_cache_hit_rate"] = overlay["path_cache_hit_rate"]
        layers["overlay.local_cache_hit_rate"] = (
            overlay["local_cache_hits"] / lookups
        )
        layers["overlay.summary_skip_rate"] = (
            overlay["summary_skips"] / lookups
        )
        layers["overlay.invalidations_per_join"] = (
            overlay["invalidations"] / len(joined)
        )
        layers["overlay.splits"] = overlay["splits"]
        layers["overlay.merges"] = overlay["merges"]
        loads = overlay["sp_load"].values()
        layers["overlay.max_sp_load_share"] = max(loads) / max(1, sum(loads))
        replication = stats["replication_detail"]
        layers["replication.replica_writes"] = replication["replica_writes"]
        layers["replication.lost_writes"] = replication["lost_writes"]
        layers["replication.repair_s"] = repair["seconds"]
        layers["replication.repair_postings_shipped"] = repair[
            "report"
        ].postings_shipped
        layers["replication.digests_exchanged"] = repair[
            "report"
        ].digests_exchanged
        layers["replication.recall_dead_window"] = equal / max(1, compared)


# -- serve_http ------------------------------------------------------------------------


def serve_http(run: Run, world: World) -> None:
    builder = run.repeat(
        "build", lambda: build_service(run, world, "hdk_disk"), close_service
    )
    run.end_to_end["index_docs_per_s"] = index_rate(run)
    snapshot = run.repeat(
        "save", lambda: save_snapshot(run, builder), shutil.rmtree
    )
    close_service(builder)
    server: Server = run.repeat(
        "boot",
        lambda: Server(snapshot, run.tmp).__enter__(),
        lambda booted: booted.__exit__(None, None, None),
    )
    with contextlib.ExitStack() as stack:
        stack.push(server)
        control = server.client()
        stack.callback(control.close)
        clients = [server.client() for _ in range(HTTP_CLIENTS)]
        for client in clients:
            stack.callback(client.close)

        def search(query: str) -> dict[str, Any]:
            status, raw = control.search(query)
            if status != 200:
                raise ServeError(f"POST /search answered {status}: {raw!r}")
            return json.loads(raw)

        # The counting pass: one caller, so the worker's cache sees one
        # fixed sequence.  The payload carries no hops; /stats does.
        counted = Counted(world.probe_zipf)
        traffic = control.get_json("/stats")["service"]["traffic"]
        started = time.perf_counter()
        for query in counted.queries:
            body = search(query)
            counted.rankings.append(body["results"])
            counted.postings += body["postings_transferred"]
            counted.keys_looked_up += body["keys_looked_up"]
            counted.keys_found += body["keys_found"]
        run.detail["counting_pass_s"] = time.perf_counter() - started
        stats_before = control.get_json("/stats")
        counted.hops = (
            stats_before["service"]["traffic"]["total_hops"]
            - traffic["total_hops"]
        )
        counted.messages = (
            stats_before["service"]["traffic"]["total_messages"]
            - traffic["total_messages"]
        )
        account_counting_pass(run, world, counted)

        encoded = {query: search_body(query) for query in set(world.zipf)}
        bodies = [encoded[query] for query in world.zipf]
        cursor = 0

        def run_block(_index: int) -> Block:
            nonlocal cursor
            block, cursor = http_block(
                clients, bodies, cursor, run.block_seconds
            )
            return block

        requests = run_blocks(run, run_block)
        stats_after = control.get_json("/stats")
        final_world(
            run, world, [], lambda q: search(q)["results"], builder, snapshot
        )
        gateway_rss, worker_rss = server.peak_rss_mib()
        run.end_to_end["peak_rss_mb"] = gateway_rss + worker_rss
        if run.tracer:
            edge = []
            for _ in range(EDGE_PROBES):
                started = time.perf_counter()
                control.request("GET", "/healthz")
                edge.append(time.perf_counter() - started)
            run.per_layer["serving.http_edge_us"] = (
                percentile(sorted(edge), 0.5) * 1e6
            )
    if run.tracer:
        requests += run.detail["untraced_requests"]
        serving_layers(
            run, stats_before, stats_after, requests, gateway_rss, worker_rss
        )
        replica_layers(run, world, snapshot, builder)


def serving_layers(
    run: Run,
    before: dict[str, Any],
    after: dict[str, Any],
    requests: int,
    gateway_rss: float,
    worker_rss: float,
) -> None:
    """What ``/stats`` and ``/proc`` say about the timed blocks."""
    layers = run.per_layer
    worker_p50_ms = after["service"]["latency"]["p50_ms"]
    layers["serving.worker_service_us"] = worker_p50_ms * 1000.0
    layers["serving.gateway_overhead_ms"] = (
        run.end_to_end["query_p50_ms"] - worker_p50_ms
    )
    sheds = sum(
        after["gateway"][kind] - before["gateway"][kind]
        for kind in ("shed_overload", "shed_rate_limited", "shed_draining")
    )
    layers["serving.shed_share"] = sheds / requests
    layers["serving.boot_s"] = run.setup["boot"]
    layers["serving.gateway_rss_mb"] = gateway_rss
    layers["serving.worker_rss_mb"] = worker_rss
    hits = after["service"]["cache_hits"] - before["service"]["cache_hits"]
    misses = (
        after["service"]["cache_misses"] - before["service"]["cache_misses"]
    )
    layers["engine.cache_hit_rate"] = hits / max(1, hits + misses)
    store_layers(
        run, before["workers"][0]["spill"], after["workers"][0]["spill"],
        requests,
    )


def replica_layers(
    run: Run, world: World, snapshot: Path, builder: Any
) -> None:
    """The worker's layers, seen from outside its process: the wrappers
    cannot reach into ``repro serve``, so a traced run loads the same
    snapshot here, with the worker's settings, and replays the head of
    the same log on it; and it times a worker pool's round trip."""
    with run.phase("load"):
        replica = SearchService.load(snapshot)
    queries = world.zipf[:REPLICA_QUERIES]
    counted = Counted(queries)
    with run.phase("query"):
        for query in queries:
            response = replica.search(query, k=K)
            counted.keys_looked_up += response.keys_looked_up
            counted.keys_found += response.keys_found
            counted.hops += response.traffic.hops_by_phase.get(
                Phase.RETRIEVAL, 0
            )
            counted.messages += response.traffic.messages_by_phase.get(
                Phase.RETRIEVAL, 0
            )
    span_layers(run, len(queries), counted, builder.indexing_reports)
    run.per_layer["index.keys_total"] = replica.stats()["keys"]
    # /stats publishes the worker's hits and misses but not its evictions.
    run.per_layer["engine.cache_evictions"] = replica.cache_stats.evictions
    close_service(replica)

    round_trips = []
    with run.untraced(), WorkerPool(
        WorkerSpec(snapshot=str(snapshot)), size=1
    ) as pool:
        for query in queries[:EDGE_PROBES]:
            started = time.perf_counter()
            pool.submit("search", {"query": query, "k": K}).result(30.0)
            round_trips.append(time.perf_counter() - started)
    run.per_layer["serving.pool_rtt_us"] = (
        percentile(sorted(round_trips), 0.5) * 1e6
    )


WORKLOADS: dict[str, Callable[[Run, World], None]] = {
    "mem_flat": mem_flat,
    "disk_cold": disk_cold,
    "super_zipf_churn": super_zipf_churn,
    "serve_http": serve_http,
}
