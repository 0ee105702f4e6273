"""Shared fixtures for the test suite.

Fixtures build a deterministic small-scale world: a synthetic collection,
reduced HDK parameters, and pre-indexed services.  Session scope is used
for the expensive builds (indexing) that many tests only read from.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make the shared test harness (tests/harness/) importable as
# ``harness.*`` from every test module, wherever pytest was invoked.
_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from repro import HDKParameters, SearchService
from repro.corpus import (
    DocumentCollection,
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.corpus.document import Document


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "concurrency: starts threads or processes (the CI "
        "concurrency-stress job selects these)",
    )


SMALL_PARAMS = HDKParameters(
    df_max=10, window_size=8, s_max=3, ff=3_000, fr=3
)

SMALL_CORPUS_CONFIG = SyntheticCorpusConfig(
    vocabulary_size=800,
    mean_doc_length=60,
    num_topics=10,
    zipf_skew=1.5,
)


@pytest.fixture(scope="session")
def small_params() -> HDKParameters:
    return SMALL_PARAMS


@pytest.fixture(scope="session")
def small_collection() -> DocumentCollection:
    """300 synthetic documents, deterministic."""
    return SyntheticCorpusGenerator(SMALL_CORPUS_CONFIG, seed=1).generate(300)


@pytest.fixture(scope="session")
def tiny_collection() -> DocumentCollection:
    """A hand-written 6-document collection with known term overlaps."""
    docs = [
        "apple pie recipe with cinnamon and sugar crust",
        "apple orchard growing fresh apple fruit trees",
        "quantum computing with superconducting qubits hardware",
        "pie crust baking techniques with butter and sugar",
        "quantum entanglement experiments in optical hardware",
        "cinnamon sugar dusted apple pie fresh from the oven",
    ]
    from repro.corpus import build_collection_from_texts

    return build_collection_from_texts(docs)


@pytest.fixture(scope="session")
def hdk_engine(small_collection, small_params) -> SearchService:
    """A fully indexed, cache-less HDK service over the small collection
    (read-only: tests must not mutate it)."""
    service = SearchService.build(
        small_collection,
        num_peers=4,
        backend="hdk",
        params=small_params,
        cache_capacity=None,
    )
    service.index()
    return service


@pytest.fixture(scope="session")
def st_engine(small_collection, small_params) -> SearchService:
    """A fully indexed, cache-less single-term service over the same
    collection."""
    service = SearchService.build(
        small_collection,
        num_peers=4,
        backend="single_term",
        params=small_params,
        cache_capacity=None,
    )
    service.index()
    return service


def make_document(doc_id: int, tokens: list[str]) -> Document:
    """Helper usable from any test module."""
    return Document(doc_id=doc_id, tokens=tuple(tokens))
