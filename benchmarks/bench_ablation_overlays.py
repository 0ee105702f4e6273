"""Ablation — Chord ring vs P-Grid trie.

The overlay decides routing hops, not posting counts (DESIGN.md §5): the
two overlays must agree on every posting-level measurement while their
hop profiles may differ.  This bench reports both and benchmarks overlay
routing throughput.
"""

from __future__ import annotations

import random

from repro.corpus.synthetic import SyntheticCorpusGenerator
from repro.engine.service import SearchService
from repro.net.accounting import Phase
from repro.net.chord import ChordOverlay
from repro.net.node_id import KEY_SPACE_SIZE, peer_id_for
from repro.utils import format_table

from .conftest import BENCH_CORPUS, BENCH_EXPERIMENT, publish


def test_ablation_overlay_equivalence(benchmark):
    collection = SyntheticCorpusGenerator(
        BENCH_CORPUS, seed=BENCH_EXPERIMENT.seed
    ).generate(240)
    params = BENCH_EXPERIMENT.hdk
    rows = []
    postings_by_overlay = {}
    for overlay in ("chord", "pgrid"):
        engine = SearchService.build(
            collection,
            num_peers=8,
            backend="hdk",
            params=params,
            overlay=overlay,
            cache_capacity=None,
        )
        engine.index()
        snapshot = engine.network.accounting.snapshot()
        postings = engine.stored_postings_total()
        postings_by_overlay[overlay] = postings
        messages = snapshot.messages_by_phase.get(Phase.INDEXING, 0)
        hops = snapshot.hops_by_phase.get(Phase.INDEXING, 0)
        rows.append(
            [
                overlay,
                f"{postings:,}",
                f"{messages:,}",
                f"{hops / max(1, messages):.2f}",
            ]
        )
    publish(
        "ablation_overlays",
        "Ablation: overlay comparison at 240 docs / 8 peers\n\n"
        + format_table(
            ["overlay", "stored postings", "messages", "hops/message"],
            rows,
        ),
    )
    assert postings_by_overlay["chord"] == postings_by_overlay["pgrid"]
    # Benchmark raw Chord routing.
    overlay = ChordOverlay(peer_id_for(f"peer-{i}") for i in range(64))
    peers = overlay.peer_ids()
    rng = random.Random(3)
    lookups = [
        (rng.choice(peers), rng.randrange(KEY_SPACE_SIZE))
        for _ in range(200)
    ]

    def route_all():
        return sum(
            overlay.route_hops(source, key) for source, key in lookups
        )

    total_hops = benchmark(route_all)
    assert total_hops > 0
