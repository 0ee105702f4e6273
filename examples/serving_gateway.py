"""Serving walkthrough: build → snapshot → serve → query → drain.

Run with::

    PYTHONPATH=src python examples/serving_gateway.py

End to end in well under 30 seconds, this script

1. synthesizes a small collection, indexes it with the disk-backed
   ``hdk_disk`` backend, and saves a snapshot (build once),
2. boots the serving stack over that snapshot: a pool of 2
   ``SearchService`` worker *processes* behind the asyncio HTTP gateway
   (serve many),
3. queries ``POST /search`` and ``POST /search_batch`` over HTTP and
   verifies the gateway's rankings are identical to a direct in-process
   ``SearchService.search`` on the same snapshot,
4. reads ``GET /stats`` (latency histograms, QPS, pool counters), then
5. drains gracefully the way ``kill -TERM`` would: ``/healthz`` flips
   unready first, in-flight work finishes, the listener closes.

Exits non-zero on any mismatch, so it can gate CI.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro import HDKParameters, SearchService
from repro.config import ServiceConfig
from repro.corpus import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.serving import Gateway, GatewayConfig, WorkerPool, WorkerSpec
from repro.serving.loadgen import http_request
from repro.utils import format_table

K = 10
QUERIES = ["t00042 t00137", "t00003 t00104", "t00012 t00055"]

#: The drain demo's batch: long enough (a few seconds of worker time)
#: to be genuinely in flight while the gateway drains.
DRAIN_BATCH = QUERIES * 1000


def main() -> None:
    # 1. Build once: index a synthetic collection and save a snapshot.
    config = SyntheticCorpusConfig(
        vocabulary_size=1_000, mean_doc_length=50, num_topics=8,
        zipf_skew=1.2,
    )
    collection = SyntheticCorpusGenerator(config, seed=11).generate(240)
    params = HDKParameters(df_max=12, window_size=8, s_max=3, ff=4_000)
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snapshot"
        service = SearchService.build(
            collection, num_peers=4, backend="hdk_disk", params=params
        )
        service.index()
        service.save(snapshot)
        print(
            f"built + saved: {service.stored_postings_total():,} postings "
            f"from {len(collection)} documents"
        )

        # The in-process reference the gateway must match exactly.
        direct = SearchService.load(snapshot, cache_capacity=None)
        reference = {
            q: [
                [r.doc_id, r.score]
                for r in direct.search(q, k=K).results
            ]
            for q in QUERIES
        }

        # 2. Serve many: 2 worker processes + the HTTP gateway.  No
        #    worker query cache: every query pays its index lookups.
        pool = WorkerPool(
            WorkerSpec(
                snapshot=str(snapshot),
                config=ServiceConfig(cache_capacity=None),
            ),
            size=2,
        )
        gateway = Gateway(
            pool,
            GatewayConfig(
                port=0, max_inflight=16, max_batch=len(DRAIN_BATCH)
            ),
        )
        with pool:
            gateway.start_in_thread()
            url = f"http://127.0.0.1:{gateway.port}"
            print(f"gateway serving on {url} (2 worker processes)")

            status, health = http_request(url, "GET", "/healthz")
            assert (status, health["status"]) == (200, "ok"), health

            # 3. Query over HTTP; rankings must match the direct service.
            mismatches = 0
            rows = []
            for query in QUERIES:
                status, body = http_request(
                    url, "POST", "/search", {"query": query, "k": K}
                )
                assert status == 200, body
                if body["results"] != reference[query]:
                    mismatches += 1
                rows.append(
                    [
                        query,
                        len(body["results"]),
                        body["postings_transferred"],
                        f"{body['elapsed_ms']:.1f}",
                    ]
                )
            print(
                format_table(
                    ["query", "results", "postings", "worker ms"], rows
                )
            )
            status, batch = http_request(
                url, "POST", "/search_batch",
                {"queries": QUERIES, "k": K},
            )
            assert status == 200 and len(batch["responses"]) == len(QUERIES)
            for query, response in zip(QUERIES, batch["responses"]):
                if response["results"] != reference[query]:
                    mismatches += 1

            # 4. Operational visibility.
            status, stats = http_request(url, "GET", "/stats")
            assert status == 200, stats
            search_metrics = stats["gateway"]["endpoints"]["/search"]
            print(
                f"stats: {stats['gateway']['completed']} requests, "
                f"search p95 {search_metrics['latency']['p95_ms']} ms, "
                f"pool served "
                f"{[w['served'] for w in stats['pool']['per_worker']]} "
                f"across {stats['pool']['alive']} workers"
            )

            # 5. Graceful drain (what SIGTERM triggers in `repro serve`):
            #    start a long batch, drain while it is in flight, and
            #    watch the ordering — healthz unready first, the
            #    in-flight batch still completes, the listener closes
            #    last.
            inflight: list[tuple[int, dict]] = []
            slow = threading.Thread(
                target=lambda: inflight.append(
                    http_request(
                        url,
                        "POST",
                        "/search_batch",
                        {"queries": DRAIN_BATCH, "k": K},
                        timeout_s=60,
                    )
                )
            )
            slow.start()
            while gateway.inflight < 1:  # let the batch reach a worker
                time.sleep(0.001)
            gateway.initiate_drain()
            status, health = http_request(url, "GET", "/healthz")
            assert status == 503 and health["ready"] is False, health
            print("drain: healthz unready while the batch finishes...")
            slow.join()
            status, batch = inflight[0]
            assert status == 200 and len(batch["responses"]) == len(
                DRAIN_BATCH
            ), (
                "in-flight batch was dropped by the drain"
            )
            assert gateway.wait_finished(10.0), "drain did not finish"

    if mismatches:
        raise SystemExit(
            f"FAIL: {mismatches} gateway rankings diverged from the "
            "direct in-process service"
        )
    print(
        "\nOK: gateway rankings byte-identical to direct "
        "SearchService.search; drain completed cleanly."
    )


if __name__ == "__main__":
    main()
