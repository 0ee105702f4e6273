"""Overlay ablation: Chord vs P-Grid must agree on posting counts.

The overlay only decides *where* entries live and how many hops messages
take; the number of postings stored, inserted, and retrieved is a property
of the indexing model and must be identical across overlays (DESIGN.md §5).
"""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService


PARAMS = HDKParameters(df_max=6, window_size=6, s_max=3, ff=2_000, fr=2)


@pytest.fixture(scope="module")
def engines():
    config = SyntheticCorpusConfig(
        vocabulary_size=250, mean_doc_length=30, num_topics=5
    )
    collection = SyntheticCorpusGenerator(config, seed=9).generate(100)
    built = {}
    for overlay in ("chord", "pgrid"):
        engine = SearchService.build(
            collection,
            num_peers=4,
            params=PARAMS,
            backend="hdk",
            overlay=overlay,
            cache_capacity=None,
        )
        engine.index()
        built[overlay] = engine
    return collection, built


def test_stored_postings_identical(engines):
    _, built = engines
    assert (
        built["chord"].stored_postings_total()
        == built["pgrid"].stored_postings_total()
    )


def test_inserted_postings_identical(engines):
    _, built = engines
    assert (
        built["chord"].inserted_postings_total()
        == built["pgrid"].inserted_postings_total()
    )


def test_key_counts_identical(engines):
    _, built = engines
    assert (
        built["chord"].backend.global_index.key_count()
        == built["pgrid"].backend.global_index.key_count()
    )


def test_query_results_identical(engines):
    collection, built = engines
    queries = QueryLogGenerator(
        collection, window_size=PARAMS.window_size, min_hits=3, seed=4
    ).generate(10)
    for query in queries:
        chord_result = built["chord"].search(query, k=10)
        pgrid_result = built["pgrid"].search(query, k=10)
        assert [r.doc_id for r in chord_result.results] == [
            r.doc_id for r in pgrid_result.results
        ]
        assert (
            chord_result.postings_transferred
            == pgrid_result.postings_transferred
        )
        assert (
            chord_result.keys_looked_up == pgrid_result.keys_looked_up
        )
