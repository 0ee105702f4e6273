"""Tests for single-term-backend growth through the service."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.errors import ConfigurationError


PARAMS = HDKParameters(df_max=5, window_size=6, s_max=2, ff=5_000, fr=2)


@pytest.fixture(scope="module")
def collection():
    config = SyntheticCorpusConfig(
        vocabulary_size=200, mean_doc_length=25, num_topics=5
    )
    return SyntheticCorpusGenerator(config, seed=19).generate(80)


class TestSingleTermGrowth:
    def test_add_peers_in_st_mode(self, collection):
        ids = collection.doc_ids()
        first = collection.subset(ids[:40])
        second = collection.subset(ids[40:])
        engine = SearchService.build(
            first,
            num_peers=2,
            params=PARAMS,
            backend="single_term",
            cache_capacity=None,
        )
        engine.index()
        before = engine.stored_postings_total()
        reports = engine.add_peers(second, num_new_peers=2)
        assert len(reports) == 2
        assert engine.stored_postings_total() > before
        assert len(engine.peers) == 4
        # New documents are retrievable.
        result = engine.search("t00001 t00002", k=10)
        assert result.postings_transferred > 0

    def test_add_peers_invalid_count(self, collection):
        engine = SearchService.build(
            collection,
            num_peers=2,
            params=PARAMS,
            backend="single_term",
            cache_capacity=None,
        )
        engine.index()
        with pytest.raises(ConfigurationError):
            engine.add_peers(collection, 0)
