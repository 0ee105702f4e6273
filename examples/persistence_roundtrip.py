"""Persistence round-trip: build once, serve many — and prove parity.

Run with::

    PYTHONPATH=src python examples/persistence_roundtrip.py

Also the CI smoke for the ``repro.store`` subsystem.  The script

1. indexes a synthetic collection with the in-memory ``hdk`` backend
   (the reference) and with the disk-backed ``hdk_disk`` backend under a
   RAM budget of a few kilobytes of encoded postings,
2. asserts both return *identical* top-k rankings for a query log while
   the disk backend's resident encoded bytes stay within budget,
3. saves the disk service as a snapshot, reloads it (offset-directory
   scan only — no indexing, no posting decoded up front), and asserts
   the reloaded service still matches the reference exactly.

Exits non-zero on any mismatch, so CI can gate on it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import HDKParameters, SearchService
from repro.corpus import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.corpus.querylog import QueryLogGenerator
from repro.utils import format_table

#: Encoded posting bytes the hdk_disk index may hold hot (~400
#: postings at ~7 B each).
MEMORY_BUDGET_BYTES = 2_800
K = 10


def ranking(service: SearchService, query, k: int = K):
    return [
        (r.doc_id, round(r.score, 9))
        for r in service.search(query, k=k).results
    ]


def main() -> None:
    config = SyntheticCorpusConfig(
        vocabulary_size=1_000,
        mean_doc_length=50,
        num_topics=8,
        zipf_skew=1.3,
    )
    collection = SyntheticCorpusGenerator(config, seed=5).generate(300)
    params = HDKParameters(
        df_max=12, window_size=8, s_max=3, ff=4_000, fr=3
    )
    queries = QueryLogGenerator(
        collection, window_size=params.window_size, min_hits=3, seed=23
    ).generate(25)

    def build(backend: str, **kwargs) -> SearchService:
        service = SearchService.build(
            collection,
            num_peers=6,
            backend=backend,
            params=params,
            cache_capacity=None,
            **kwargs,
        )
        service.index()
        return service

    reference = build("hdk")
    disk = build("hdk_disk", memory_budget_bytes=MEMORY_BUDGET_BYTES)
    index = disk.backend.global_index

    mismatches = 0
    for query in queries:
        if ranking(reference, query) != ranking(disk, query):
            mismatches += 1
        hot_bytes = index.spill_stats()["hot_charge"]
        assert hot_bytes <= MEMORY_BUDGET_BYTES, (
            f"budget exceeded: {hot_bytes} > {MEMORY_BUDGET_BYTES}"
        )
    spill = index.spill_stats()
    stored = disk.stored_postings_total()

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snapshot"
        disk.save(snapshot)
        served = SearchService.load(
            snapshot,
            memory_budget_bytes=MEMORY_BUDGET_BYTES,
            cache_capacity=None,
        )
        reload_mismatches = sum(
            1
            for query in queries
            if ranking(reference, query) != ranking(served, query)
        )

    rows = [
        ("documents", f"{len(collection):,}"),
        ("queries", f"{len(queries):,}"),
        ("stored postings (global index)", f"{stored:,}"),
        ("RAM budget (encoded bytes)", f"{MEMORY_BUDGET_BYTES:,}"),
        ("hot bytes after run", f"{spill['hot_charge']:,}"),
        ("hot postings after run", f"{spill['hot_postings']:,}"),
        ("spills / reloads", f"{spill['spills']:,} / {spill['reloads']:,}"),
        ("mismatches hdk vs hdk_disk", str(mismatches)),
        ("mismatches hdk vs reloaded snapshot", str(reload_mismatches)),
    ]
    print(format_table(["persistence round-trip", "value"], rows))

    if mismatches or reload_mismatches:
        raise SystemExit(
            f"FAIL: {mismatches} live + {reload_mismatches} reloaded "
            f"rankings diverged from the in-memory hdk backend"
        )
    print(
        "\nOK: disk-backed and reloaded services returned identical "
        f"top-{K} rankings while holding <= {MEMORY_BUDGET_BYTES:,} "
        f"encoded bytes of {stored:,} postings in RAM."
    )


if __name__ == "__main__":
    main()
