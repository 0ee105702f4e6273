"""Parallel batch throughput — the PR-3 short-critical-section payoff.

Sweeps ``search_batch(workers=w)`` for w in {1, 2, 4, 8} on the ``hdk``
and ``hdk_disk`` backends with a simulated per-hop link latency on the
serving phase (indexing runs at zero latency).  With the backend section
genuinely concurrent, worker threads overlap each other's simulated WAN
round-trips, so batch throughput scales with workers; before PR 3 the
service lock serialized the backend section and extra workers bought
nothing.  The sweep asserts rankings and per-query traffic stay
identical at every worker count and that 8 workers beat 1 worker by
more than 1.5x on both backends.

Latency note: the simulator's in-process hops cost microseconds, which
would make any threading win invisible (and the GIL would eat it); the
``link_latency_s`` knob restores the WAN-shaped regime the paper's
traffic analysis lives in, where a query's cost is dominated by its
overlay round-trips.
"""

from __future__ import annotations

from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import SyntheticCorpusGenerator
from repro.engine.service import SearchService
from repro.utils import format_table

from .conftest import BENCH_CORPUS, BENCH_EXPERIMENT, publish, publish_json

#: Simulated one-hop link latency (seconds) for the serving phase.
LINK_LATENCY_S = 0.0005

WORKER_SWEEP = (1, 2, 4, 8)

SPEEDUP_FLOOR = 1.5


def test_parallel_batch_worker_sweep(benchmark):
    collection = SyntheticCorpusGenerator(
        BENCH_CORPUS, seed=BENCH_EXPERIMENT.seed
    ).generate(360)
    params = BENCH_EXPERIMENT.hdk
    queries = QueryLogGenerator(
        collection,
        window_size=params.window_size,
        min_hits=3,
        seed=29,
        size_weights={2: 0.6, 3: 0.4},
    ).generate(24)

    def build(backend: str, **kwargs) -> SearchService:
        # No query cache: every query pays its backend section, so the
        # sweep measures backend-level parallelism, not cache hits.
        service = SearchService.build(
            collection,
            num_peers=4,
            backend=backend,
            params=params,
            cache_capacity=None,
            **kwargs,
        )
        service.index()  # indexing at zero latency
        service.network.link_latency_s = LINK_LATENCY_S
        return service

    rows = []
    series = []
    speedups = {}
    for backend, kwargs in (
        ("hdk", {}),
        ("hdk_disk", {"memory_budget_bytes": 7_000}),
    ):
        service = build(backend, **kwargs)
        reference_rankings = None
        reference_traffic = None
        base_ms = None
        for workers in WORKER_SWEEP:
            report = service.search_batch(queries, k=10, workers=workers)
            rankings = [
                [(r.doc_id, round(r.score, 9)) for r in resp.results]
                for resp in report.responses
            ]
            traffic = [resp.traffic for resp in report.responses]
            if reference_rankings is None:
                reference_rankings = rankings
                reference_traffic = traffic
                base_ms = report.elapsed_ms
            else:
                assert rankings == reference_rankings, (
                    f"{backend}: rankings diverged at workers={workers}"
                )
                assert traffic == reference_traffic, (
                    f"{backend}: per-query traffic diverged at "
                    f"workers={workers}"
                )
            speedup = base_ms / report.elapsed_ms
            speedups[(backend, workers)] = speedup
            series.append(
                {
                    "backend": backend,
                    "workers": workers,
                    "batch_ms": round(report.elapsed_ms, 3),
                    "qps": round(
                        report.num_queries / (report.elapsed_ms / 1e3), 2
                    ),
                    "speedup": round(speedup, 3),
                }
            )
            rows.append(
                [
                    backend,
                    str(workers),
                    f"{report.elapsed_ms:,.1f}",
                    f"{report.num_queries / (report.elapsed_ms / 1e3):,.1f}",
                    f"{speedup:.2f}x",
                ]
            )

    table = format_table(
        ["backend", "workers", "batch ms", "queries/s", "speedup"],
        rows,
    )
    publish("parallel_batch_worker_sweep", table)
    publish_json(
        "parallel_batch",
        {
            "bench": "parallel_batch",
            "num_queries": len(queries),
            "link_latency_s": LINK_LATENCY_S,
            "speedup_floor": SPEEDUP_FLOOR,
            "sweep": series,
        },
    )

    # The acceptance bar: 8 workers must beat 1 worker by > 1.5x on
    # both backends (in practice the win is far larger: the sweep is
    # latency-dominated and 8 workers overlap 8 queries' round-trips).
    for backend in ("hdk", "hdk_disk"):
        assert speedups[(backend, 8)] > SPEEDUP_FLOOR, (
            f"{backend}: workers=8 speedup {speedups[(backend, 8)]:.2f}x "
            f"is below the {SPEEDUP_FLOOR}x floor"
        )

    # Timed section: the full 8-worker batch on the in-memory backend.
    service = build("hdk")
    report = benchmark(
        lambda: service.search_batch(queries, k=10, workers=8)
    )
    assert report.num_queries == len(queries)
