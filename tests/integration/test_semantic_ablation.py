"""Ablation: the PMI semantic filter shrinks the global index.

The paper's future-work direction — integrating semantics into HDK
generation to reduce index size — implemented as a local PMI threshold.
The ablation verifies the direction (smaller index) and that retrieval
still works.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import HDKParameters
from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService


BASE = HDKParameters(df_max=6, window_size=6, s_max=3, ff=2_000, fr=2)


@pytest.fixture(scope="module")
def collection():
    config = SyntheticCorpusConfig(
        vocabulary_size=300, mean_doc_length=30, num_topics=6
    )
    return SyntheticCorpusGenerator(config, seed=17).generate(120)


def build(collection, threshold):
    params = dataclasses.replace(
        BASE, semantic_pmi_threshold=threshold
    )
    engine = SearchService.build(
        collection, num_peers=3, params=params, cache_capacity=None
    )
    engine.index()
    return engine


def test_filter_shrinks_index(collection):
    baseline = build(collection, None)
    filtered = build(collection, 0.5)
    assert (
        filtered.backend.global_index.key_count()
        < baseline.backend.global_index.key_count()
    )
    assert (
        filtered.stored_postings_total()
        < baseline.stored_postings_total()
    )


def test_stricter_threshold_smaller_index(collection):
    lenient = build(collection, 0.0)
    strict = build(collection, 2.0)
    assert (
        strict.backend.global_index.key_count()
        <= lenient.backend.global_index.key_count()
    )


def test_single_term_keys_unaffected(collection):
    baseline = build(collection, None)
    filtered = build(collection, 5.0)
    base_singles = {
        e.key
        for e in baseline.backend.global_index.entries()
        if len(e.key) == 1
    }
    filtered_singles = {
        e.key
        for e in filtered.backend.global_index.entries()
        if len(e.key) == 1
    }
    assert filtered_singles == base_singles


def test_filter_raises_mean_association(collection):
    # The filter is local (each peer sees only its fraction), so a few
    # globally-rare keys with negative global PMI can survive; the
    # correct aggregate property is that the surviving key population is
    # *more associated on average* than the unfiltered one.
    from repro.hdk.semantic import key_pmi

    dfs: dict[str, int] = {}
    for doc in collection:
        for term in doc.distinct_terms:
            dfs[term] = dfs.get(term, 0) + 1

    def mean_pmi(engine):
        values = [
            key_pmi(entry.global_df, dfs, entry.key, len(collection))
            for entry in engine.backend.global_index.entries()
            if len(entry.key) >= 2
        ]
        assert values
        return sum(values) / len(values)

    baseline = build(collection, None)
    filtered = build(collection, 1.0)
    assert mean_pmi(filtered) > mean_pmi(baseline)


def test_retrieval_still_works_with_filter(collection):
    filtered = build(collection, 0.5)
    queries = QueryLogGenerator(
        collection, window_size=6, min_hits=3, seed=3
    ).generate(5)
    for query in queries:
        result = filtered.search(query, k=10)
        assert result.keys_looked_up >= 2
