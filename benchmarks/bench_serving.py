"""Serving-path throughput over the process pool.

Builds a 256-peer ``hdk_disk`` world (one document per peer, the
paper's many-peers regime in miniature), saves a snapshot, then boots
the full serving stack over it — a :class:`repro.serving.WorkerPool` of
snapshot-loaded ``SearchService`` processes behind the asyncio HTTP
gateway — and drives it with the closed-loop load generator at pool
sizes 1 and 4.

The sweep asserts two things:

- the gateway's rankings are **byte-identical** to a direct in-process
  ``SearchService.search`` on the same snapshot (full-precision floats
  survive both the pickle and the JSON boundary exactly);
- zero failed requests: a closed-loop client only ever sees 200s from a
  healthy pool (sheds are design behaviour, not errors).

QPS and exact p50/p95/p99 latency percentiles are reported per pool
size, and the 4-to-1 QPS ratio is published, not asserted: queries are
CPU-bound (simulated overlay hops are counted, never slept), so the
ratio depends on the cores the host gives the worker processes.

Set ``REPRO_BENCH_SMOKE=1`` (the CI benchmark-smoke job) to shrink the
corpus so the bench finishes in seconds.
"""

from __future__ import annotations

import os

from repro.config import HDKParameters, ServiceConfig
from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.serving import Gateway, GatewayConfig, WorkerPool, WorkerSpec
from repro.serving.loadgen import http_request, run_load
from repro.serving.pool import response_payload
from repro.utils import format_table

from .conftest import publish, publish_json

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: One document per peer: the paper's many-peers regime, where every
#: lookup routes over a large overlay.
NUM_PEERS = 32 if _SMOKE else 256

DOCS = NUM_PEERS

POOL_SIZES = (1, 4)

CLIENTS = 8

REQUESTS_PER_CLIENT = 4 if _SMOKE else 12

K = 10

PARAMS = HDKParameters(df_max=10, window_size=8, s_max=3, ff=6_000, fr=3)

CORPUS = SyntheticCorpusConfig(
    vocabulary_size=3_000,
    mean_doc_length=20,
    num_topics=12,
    zipf_skew=1.0,
)


def test_serving_pool_scaling(tmp_path):
    collection = SyntheticCorpusGenerator(CORPUS, seed=7).generate(DOCS)
    service = SearchService.build(
        collection,
        num_peers=NUM_PEERS,
        backend="hdk_disk",
        params=PARAMS,
        cache_capacity=None,
    )
    service.index()
    snapshot = tmp_path / "snapshot"
    service.save(snapshot)

    queries = [
        " ".join(q.terms)
        for q in QueryLogGenerator(
            collection,
            window_size=PARAMS.window_size,
            min_hits=2,
            seed=29,
            size_weights={2: 0.6, 3: 0.4},
        ).generate(12)
    ]

    # The in-process reference every gateway response must match.
    direct = SearchService.load(snapshot, cache_capacity=None)
    reference = {
        q: response_payload(direct.search(q, k=K))["results"]
        for q in queries
    }

    spec = WorkerSpec(
        snapshot=str(snapshot),
        # every query pays its overlay round-trips
        config=ServiceConfig(cache_capacity=None),
    )
    rows = []
    series = {}
    for size in POOL_SIZES:
        with WorkerPool(spec, size=size) as pool:
            gateway = Gateway(
                pool, GatewayConfig(port=0, max_inflight=2 * CLIENTS)
            )
            gateway.start_in_thread()
            url = f"http://127.0.0.1:{gateway.port}"

            if size == POOL_SIZES[-1]:
                mismatched = []
                for query in queries:
                    status, body = http_request(
                        url, "POST", "/search", {"query": query, "k": K}
                    )
                    assert status == 200, body
                    if body["results"] != reference[query]:
                        mismatched.append(query)
                assert not mismatched, (
                    f"gateway rankings diverged from the direct service "
                    f"for {len(mismatched)} queries: {mismatched[:3]}"
                )

            report = run_load(
                url,
                queries,
                clients=CLIENTS,
                requests_per_client=REQUESTS_PER_CLIENT,
                k=K,
            )
            gateway.initiate_drain()
            assert gateway.wait_finished(10.0), "gateway failed to drain"
            assert report.failed == 0, report.errors
            series[size] = report
            rows.append(
                [
                    str(size),
                    str(report.ok),
                    f"{report.qps:,.1f}",
                    f"{report.percentile_ms(0.50):,.1f}",
                    f"{report.percentile_ms(0.95):,.1f}",
                    f"{report.percentile_ms(0.99):,.1f}",
                ]
            )

    table = format_table(
        ["workers", "ok", "qps", "p50 ms", "p95 ms", "p99 ms"], rows
    )
    publish("serving_pool_scaling", table)

    speedup = series[POOL_SIZES[-1]].qps / series[POOL_SIZES[0]].qps
    publish_json(
        "serving_scaling",
        {
            "bench": "serving_scaling",
            "mode": "smoke" if _SMOKE else "full",
            "num_peers": NUM_PEERS,
            "cpus": os.cpu_count(),
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "qps_speedup": round(speedup, 3),
            "byte_identical": True,
            "pool_sizes": {
                str(size): report.as_dict()
                for size, report in series.items()
            },
        },
    )
