"""Vocabulary drift under incremental growth.

When a term's collection frequency crosses ``F_f`` while the system is
live, a rebuild drops it from the key vocabulary but the incremental
index retains keys created before the crossing.  The pinned contract:

- the incremental key set is a *superset* of the rebuild key set;
- every key present in both agrees exactly on status, global df, and
  stored postings;
- the extra incremental keys all contain at least one term that is very
  frequent in the final collection.
"""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.stats import compute_statistics
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService

# F_f low enough that head terms cross it between 80 and 160 documents.
PARAMS = HDKParameters(df_max=6, window_size=6, s_max=3, ff=2_000, fr=2)


@pytest.fixture(scope="module")
def worlds():
    config = SyntheticCorpusConfig(
        vocabulary_size=300, mean_doc_length=30, num_topics=6
    )
    full = SyntheticCorpusGenerator(config, seed=3).generate(160)
    rebuild = SearchService.build(
        full, num_peers=4, params=PARAMS, cache_capacity=None
    )
    rebuild.index()
    ids = full.doc_ids()
    incremental = SearchService.build(
        full.subset(ids[:80]), num_peers=2, params=PARAMS, cache_capacity=None
    )
    incremental.index()
    incremental.add_peers(full.subset(ids[80:]), 2)
    return full, rebuild, incremental


def entry_map(engine):
    return {e.key: e for e in engine.backend.global_index.entries()}


def test_crossing_actually_happens(worlds):
    # The scenario is only meaningful if some term crosses F_f between
    # the initial build and the final collection.
    full, _, _ = worlds
    ids = full.doc_ids()
    first_stats = compute_statistics(full.subset(ids[:80]))
    full_stats = compute_statistics(full)
    crossed = full_stats.very_frequent_terms(
        PARAMS.ff
    ) - first_stats.very_frequent_terms(PARAMS.ff)
    assert crossed


def test_incremental_is_superset(worlds):
    _, rebuild, incremental = worlds
    assert set(entry_map(rebuild)) <= set(entry_map(incremental))


def test_common_keys_agree_exactly(worlds):
    _, rebuild, incremental = worlds
    reb, inc = entry_map(rebuild), entry_map(incremental)
    for key in reb:
        a, b = reb[key], inc[key]
        assert a.status == b.status, sorted(key)
        assert a.global_df == b.global_df, sorted(key)
        assert a.postings.doc_ids() == b.postings.doc_ids(), sorted(key)


def test_extra_keys_contain_newly_very_frequent_terms(worlds):
    full, rebuild, incremental = worlds
    stats = compute_statistics(full)
    very_frequent = stats.very_frequent_terms(PARAMS.ff)
    extra = set(entry_map(incremental)) - set(entry_map(rebuild))
    assert extra
    for key in extra:
        assert key & very_frequent, (
            f"extra key {sorted(key)} contains no very frequent term; "
            "the incremental protocol diverged for another reason"
        )


def test_search_unaffected_for_normal_vocabulary(worlds):
    # Queries over terms below the F_f cut behave identically.
    full, rebuild, incremental = worlds
    stats = compute_statistics(full)
    very_frequent = stats.very_frequent_terms(PARAMS.ff)
    mid_terms = sorted(
        term
        for term, df in stats.document_frequency.items()
        if term not in very_frequent and 10 <= df <= 60
    )[:4]
    assert len(mid_terms) >= 2
    from repro.corpus.querylog import Query

    query = Query(query_id=0, terms=tuple(mid_terms[:2]))
    reb_result = rebuild.search(query, k=10)
    inc_result = incremental.search(query, k=10)
    assert [r.doc_id for r in reb_result.results] == [
        r.doc_id for r in inc_result.results
    ]
