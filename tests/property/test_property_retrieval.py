"""Property-based tests for retrieval invariants on random worlds.

The paper's retrieval bound — at most ``n_k`` key lookups per query and
at most ``DF_max`` postings per looked-up key — is checked on three
kinds of world: a fresh flat ``hdk`` build, the same after one
incremental join of a second corpus, and ``hdk_super`` at replication 2
over 3 peers with one peer crashed (lookups fail over to replicas).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.corpus.querylog import Query
from repro.engine.service import SearchService
from repro.analysis.retrieval_cost import (
    keys_per_query,
    retrieval_traffic_bound,
)


PARAMS = HDKParameters(df_max=2, window_size=4, s_max=3, ff=10_000, fr=1)

tokens = st.sampled_from(["a", "b", "c", "d", "e", "f"])
documents = st.lists(tokens, min_size=2, max_size=8)
corpora = st.lists(documents, min_size=3, max_size=12)
query_terms = st.frozensets(tokens, min_size=1, max_size=4)

WORLDS = ("fresh", "joined", "super_r2_crashed")


def make_collection(docs_tokens, first_id=0):
    return DocumentCollection(
        Document(doc_id=first_id + i, tokens=tuple(toks))
        for i, toks in enumerate(docs_tokens)
    )


def build_engine(docs_tokens, backend="hdk", num_peers=2, **knobs):
    collection = make_collection(docs_tokens)
    engine = SearchService.build(
        collection,
        num_peers=num_peers,
        backend=backend,
        params=PARAMS,
        cache_capacity=None,
        **knobs,
    )
    engine.index()
    return collection, engine


@st.composite
def worlds(draw):
    """An indexed service of one of the :data:`WORLDS` kinds."""
    world = draw(st.sampled_from(WORLDS))
    docs_tokens = draw(corpora)
    if world == "fresh":
        return build_engine(docs_tokens)[1]
    if world == "joined":
        _, engine = build_engine(docs_tokens)
        joining = make_collection(draw(corpora), first_id=len(docs_tokens))
        engine.add_peers(joining, 1)
        return engine
    _, engine = build_engine(
        docs_tokens, backend="hdk_super", num_peers=3, replication=2
    )
    victim = draw(st.sampled_from(engine.peers))
    engine.kill_peer(victim.name)
    return engine


@settings(max_examples=25, deadline=None)
@given(corpora, query_terms)
def test_results_only_contain_matching_documents(docs_tokens, terms):
    collection, engine = build_engine(docs_tokens)
    query = Query(query_id=0, terms=tuple(sorted(terms)))
    result = engine.search(query, k=20)
    for ranked in result.results:
        doc = collection.get(ranked.doc_id)
        assert doc.distinct_terms & terms, (
            f"doc {ranked.doc_id} matches no query term"
        )


@settings(max_examples=40, deadline=None)
@given(worlds(), query_terms)
def test_lattice_lookups_bounded(engine, terms):
    query = Query(query_id=0, terms=tuple(sorted(terms)))
    result = engine.search(query, k=20)
    assert result.keys_looked_up <= keys_per_query(
        len(terms), PARAMS.s_max
    )


@settings(max_examples=40, deadline=None)
@given(worlds(), query_terms)
def test_traffic_bounded_by_nk_dfmax(engine, terms):
    query = Query(query_id=0, terms=tuple(sorted(terms)))
    result = engine.search(query, k=20)
    assert (
        result.postings_transferred
        <= result.keys_looked_up * PARAMS.df_max
    )
    assert result.postings_transferred <= retrieval_traffic_bound(
        len(terms), PARAMS.s_max, PARAMS.df_max
    )


@settings(max_examples=25, deadline=None)
@given(corpora, query_terms)
def test_scores_sorted_and_deterministic(docs_tokens, terms):
    _, engine = build_engine(docs_tokens)
    query = Query(query_id=0, terms=tuple(sorted(terms)))
    first = engine.search(query, k=20)
    second = engine.search(query, k=20)
    scores = [r.score for r in first.results]
    assert scores == sorted(scores, reverse=True)
    assert [r.doc_id for r in first.results] == [
        r.doc_id for r in second.results
    ]


@settings(max_examples=15, deadline=None)
@given(corpora, query_terms)
def test_single_term_mode_fetches_every_matching_doc(docs_tokens, terms):
    collection, engine = build_engine(docs_tokens, backend="single_term")
    query = Query(query_id=0, terms=tuple(sorted(terms)))
    result = engine.search(query, k=100)
    expected = {
        doc.doc_id
        for doc in collection
        if doc.distinct_terms & terms
    }
    got = {r.doc_id for r in result.results}
    # BM25's idf floor can zero out ubiquitous terms, but documents are
    # still returned (score 0); the sets must match.
    assert got == expected
