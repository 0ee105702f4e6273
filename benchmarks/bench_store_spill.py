"""Ablation — the disk-backed store under shrinking RAM budgets, plus
the generation-2 cold-start story.

The ``hdk_disk`` backend must return exactly the in-memory backend's
rankings while holding an arbitrarily small fraction of the posting
lists in RAM; what degrades with the budget is *service time* (cold keys
pay a segment read + varint decode).  This bench sweeps the byte budget
from "everything hot" down to "everything spilled", checks result parity
on a shared query log, and publishes residency/latency/IO per budget;
the timed section serves the log from a snapshot-loaded service — the
build-once / serve-many hot path.

The second half measures what generation 2 changed about *startup*:
reopening a segment directory through its ``.idx`` sidecars reads
O(segments) metadata, while the generation-1 path checksum-scans every
record body.  Both paths are timed on the same snapshot (sidecars
stripped per scan iteration — a scan self-heals them) and the ratio is
published in ``BENCH_store.json`` for the CI smoke job to assert on.

Set ``REPRO_BENCH_SMOKE=1`` (the CI benchmark-smoke job) to shrink the
corpus and query log so the sweep finishes in seconds.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import SyntheticCorpusGenerator
from repro.engine.service import SearchService
from repro.store.snapshot import segments_dir
from repro.store.store import SegmentStore
from repro.utils import format_table

from .conftest import BENCH_CORPUS, BENCH_EXPERIMENT, publish, publish_json

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

DOCS = 160 if _SMOKE else 360

NUM_QUERIES = 10 if _SMOKE else 25

#: Byte budgets for the residency sweep ("everything hot" down to
#: "everything spilled"), in encoded posting bytes.
BUDGET_BYTES = (256 * 1024, 16 * 1024, 1_024, 0)

#: Cold-reopen timing repetitions (best-of to shed scheduler noise).
REOPEN_REPS = 3 if _SMOKE else 5


def test_store_spill_budget_sweep(benchmark):
    collection = SyntheticCorpusGenerator(
        BENCH_CORPUS, seed=BENCH_EXPERIMENT.seed
    ).generate(DOCS)
    params = BENCH_EXPERIMENT.hdk
    queries = QueryLogGenerator(
        collection,
        window_size=params.window_size,
        min_hits=3,
        seed=29,
        size_weights={2: 0.6, 3: 0.4},
    ).generate(NUM_QUERIES)

    def build(backend: str, **kwargs) -> SearchService:
        service = SearchService.build(
            collection,
            num_peers=4,
            backend=backend,
            params=params,
            cache_capacity=None,
            **kwargs,
        )
        service.index()
        return service

    reference = build("hdk")
    reference_report = reference.run_querylog(queries, k=10)
    reference_rankings = [
        [r.doc_id for r in resp.results]
        for resp in reference_report.responses
    ]
    stored = reference.stored_postings_total()

    parity_all_budgets = True
    sweep_rows = []
    rows = [
        [
            "hdk (all in RAM)",
            f"{stored:,}",
            "100.0%",
            f"{reference_report.mean_postings_per_query:,.1f}",
            f"{reference_report.mean_elapsed_ms:.2f}",
            "-",
        ]
    ]
    for budget in BUDGET_BYTES:
        disk = build("hdk_disk", memory_budget_bytes=budget)
        report = disk.run_querylog(queries, k=10)
        rankings = [
            [r.doc_id for r in resp.results] for resp in report.responses
        ]
        parity = rankings == reference_rankings
        parity_all_budgets = parity_all_budgets and parity
        assert parity, (
            f"budget {budget}B: rankings diverged from in-memory hdk"
        )
        spill = disk.backend.global_index.spill_stats()
        assert spill["hot_charge"] <= budget
        resident = spill["hot_postings"] + spill["store"]["cache_postings"]
        rows.append(
            [
                f"hdk_disk budget={budget:,}B",
                f"{resident:,}",
                f"{resident / stored:.1%}",
                f"{report.mean_postings_per_query:,.1f}",
                f"{report.mean_elapsed_ms:.2f}",
                f"{spill['spills']:,}/{spill['reloads']:,}",
            ]
        )
        sweep_rows.append(
            {
                "budget_bytes": budget,
                "resident_postings": resident,
                "mean_postings_per_query": report.mean_postings_per_query,
                "mean_elapsed_ms": report.mean_elapsed_ms,
                "spills": spill["spills"],
                "reloads": spill["reloads"],
                "parity_with_hdk": parity,
            }
        )
        disk.backend.global_index.store.close()

    table = format_table(
        [
            "engine",
            "resident postings",
            "of stored",
            "postings/query",
            "ms/query",
            "spills/reloads",
        ],
        rows,
    )
    publish("store_spill_budget_sweep", table)

    # Cold start: reopen the snapshot's segment directory through both
    # generations.  The sidecar path reads per-segment .idx metadata;
    # the legacy path (sidecars stripped) checksum-scans every record
    # body.  Strip before *each* scan rep — a scan heals the sidecars.
    disk = build("hdk_disk", memory_budget_bytes=16 * 1024)
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-snap-")
    snapshot = Path(tmp.name) / "snapshot"
    disk.save(snapshot)
    disk.backend.global_index.store.close()

    reopen_dir = Path(tmp.name) / "reopen" / "segments"
    reopen_dir.parent.mkdir()
    shutil.copytree(segments_dir(snapshot), reopen_dir)

    def time_reopen() -> tuple[float, dict[str, object]]:
        start = time.perf_counter()
        store = SegmentStore(reopen_dir, cache_bytes=0)
        elapsed = time.perf_counter() - start
        stats = store.stats()
        store.close()
        return elapsed, stats

    sidecar_s, sidecar_keys = float("inf"), 0
    for _ in range(REOPEN_REPS):
        elapsed, stats = time_reopen()
        assert stats["sidecar_reopens"] == stats["segments"], stats
        assert stats["scan_reopens"] == 0, stats
        sidecar_s = min(sidecar_s, elapsed)
        sidecar_keys = stats["keys"]

    scan_s, scan_keys = float("inf"), 0
    for _ in range(REOPEN_REPS):
        for sidecar in reopen_dir.glob("*.idx"):
            sidecar.unlink()
        elapsed, stats = time_reopen()
        assert stats["scan_reopens"] == stats["segments"], stats
        scan_s = min(scan_s, elapsed)
        scan_keys = stats["keys"]
    assert scan_keys == sidecar_keys

    speedup = scan_s / sidecar_s if sidecar_s > 0 else float("inf")
    publish(
        "store_reopen_cold_start",
        format_table(
            ["reopen path", "keys", "best of reps (ms)"],
            [
                ["gen-1 scan (record bodies)", scan_keys, f"{scan_s * 1e3:.2f}"],
                ["gen-2 sidecar (.idx)", sidecar_keys, f"{sidecar_s * 1e3:.2f}"],
                ["speedup", "-", f"{speedup:.1f}x"],
            ],
        ),
    )
    publish_json(
        "store",
        {
            "docs": DOCS,
            "stored_postings": stored,
            "parity_all_budgets": parity_all_budgets,
            "budget_sweep": sweep_rows,
            "reopen": {
                "keys": sidecar_keys,
                "reps": REOPEN_REPS,
                "scan_s": scan_s,
                "sidecar_s": sidecar_s,
                "speedup": speedup,
            },
        },
    )

    # Timed: serve the whole log from a freshly loaded snapshot (the
    # production-shaped path: sidecar reopen + cold block reads).
    def serve_from_snapshot():
        served = SearchService.load(
            snapshot, memory_budget_bytes=16 * 1024, cache_capacity=None
        )
        report = served.run_querylog(queries, k=10)
        served.backend.global_index.store.close()
        return report

    report = benchmark(serve_from_snapshot)
    assert [
        [r.doc_id for r in resp.results] for resp in report.responses
    ] == reference_rankings
    tmp.cleanup()
