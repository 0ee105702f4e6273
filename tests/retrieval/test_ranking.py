"""Tests for the distributed ranker."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.querylog import QueryLogGenerator
from repro.engine.service import SearchService
from repro.errors import RetrievalError
from repro.index.bm25 import BM25Scorer
from repro.index.postings import Posting, PostingList
from repro.retrieval.hdk_engine import HDKRetrievalEngine
from repro.retrieval.ranking import DistributedRanker, RankedResult
from tests.conftest import SMALL_PARAMS


@pytest.fixture()
def scorer():
    return BM25Scorer(num_documents=100, average_doc_length=10.0)


def make_ranker(scorer, dfs=None):
    return DistributedRanker(scorer, dfs or {"a": 5, "b": 5})


def one_posting_lists(pairs):
    """``(key terms, posting)`` pairs as the ranker's ``(key terms,
    posting list)`` input, one single-posting list per pair, built
    through the trusted constructor (so unvalidated evidence such as
    ``tf == 0`` gets through) and in the pairs' order."""
    return [
        (
            key_terms,
            PostingList._from_columns(
                (posting.doc_id,),
                (posting.tf,),
                (posting.doc_len,),
                (0, len(posting.term_tfs)),
                tuple(posting.term_tfs),
            ),
        )
        for key_terms, posting in pairs
    ]


def rank(ranker, pairs, k):
    return ranker.rank(one_posting_lists(pairs), k)


class TestRank:
    def test_empty_input(self, scorer):
        assert make_ranker(scorer).rank([], k=5) == []

    def test_single_term_postings(self, scorer):
        fetched = [
            (("a",), Posting(doc_id=1, tf=3, term_tfs=(3,), doc_len=10)),
            (("a",), Posting(doc_id=2, tf=1, term_tfs=(1,), doc_len=10)),
        ]
        results = rank(make_ranker(scorer), fetched, k=5)
        assert [r.doc_id for r in results] == [1, 2]

    def test_multi_key_evidence_merged(self, scorer):
        # Document 1 appears under key {a} and key {a,b}: the ranker must
        # combine both terms' evidence.
        fetched = [
            (("a",), Posting(doc_id=1, tf=2, term_tfs=(2,), doc_len=10)),
            (
                ("a", "b"),
                Posting(doc_id=1, tf=1, term_tfs=(2, 1), doc_len=10),
            ),
            (("a",), Posting(doc_id=2, tf=2, term_tfs=(2,), doc_len=10)),
        ]
        results = rank(make_ranker(scorer), fetched, k=5)
        # Doc 1 has evidence for both a and b; doc 2 only for a.
        assert results[0].doc_id == 1
        assert results[0].score > results[1].score

    def test_k_truncates(self, scorer):
        fetched = [
            (("a",), Posting(doc_id=d, tf=1, term_tfs=(1,), doc_len=10))
            for d in range(10)
        ]
        assert len(rank(make_ranker(scorer), fetched, k=3)) == 3

    def test_ties_broken_by_doc_id(self, scorer):
        fetched = [
            (("a",), Posting(doc_id=5, tf=1, term_tfs=(1,), doc_len=10)),
            (("a",), Posting(doc_id=2, tf=1, term_tfs=(1,), doc_len=10)),
        ]
        results = rank(make_ranker(scorer), fetched, k=5)
        assert [r.doc_id for r in results] == [2, 5]

    def test_posting_without_term_tfs_single_term(self, scorer):
        fetched = [(("a",), Posting(doc_id=1, tf=4, doc_len=10))]
        results = rank(make_ranker(scorer), fetched, k=1)
        assert results[0].score > 0

    def test_max_tf_wins_on_conflicting_evidence(self, scorer):
        # Two sources report different tf for the same (doc, term): the
        # ranker keeps the maximum (richer evidence).
        fetched = [
            (("a",), Posting(doc_id=1, tf=1, term_tfs=(1,), doc_len=10)),
            (("a",), Posting(doc_id=1, tf=6, term_tfs=(6,), doc_len=10)),
        ]
        single = rank(make_ranker(scorer), fetched, k=1)
        only_high = rank(make_ranker(scorer), [fetched[1]], k=1)
        assert single[0].score == pytest.approx(only_high[0].score)

    def test_invalid_k(self, scorer):
        with pytest.raises(RetrievalError):
            make_ranker(scorer).rank([], k=0)


# -- bit-exactness against BM25Scorer.score_document ---------------------------------
#
# rank() inlines the BM25 formula (idf once per call, length normalization
# once per document) and builds result objects for the top k only.  The
# reference below is the plain form: merge the evidence, score every
# document through BM25Scorer.score_document, sort everything.  Scores
# must agree bit for bit — rankings are fingerprinted across backends,
# snapshots and the HTTP gateway.


@dataclass(frozen=True)
class LoosePosting:
    """A posting without :class:`Posting`'s validation, so generated
    evidence can carry ``tf == 0`` (``term_score`` has a branch for it)."""

    doc_id: int
    tf: int
    term_tfs: tuple[int, ...] = ()
    doc_len: int = 0


def reference_rank(scorer, term_dfs, fetched, k):
    evidence: dict[int, dict[str, int]] = {}
    doc_lens: dict[int, int] = {}
    for key_terms, posting in fetched:
        term_map = evidence.setdefault(posting.doc_id, {})
        doc_lens[posting.doc_id] = max(
            doc_lens.get(posting.doc_id, 0), posting.doc_len
        )
        if posting.term_tfs:
            for index, term in enumerate(key_terms):
                term_map[term] = max(
                    term_map.get(term, 0), posting.term_tfs[index]
                )
        elif len(key_terms) == 1:
            term_map[key_terms[0]] = max(
                term_map.get(key_terms[0], 0), posting.tf
            )
    scored = [
        (doc_id, scorer.score_document(term_map, doc_lens[doc_id], term_dfs))
        for doc_id, term_map in evidence.items()
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


VOCABULARY = ["a", "b", "c", "d", "unknown"]  # "unknown" has no df


@st.composite
def fetched_evidence(draw):
    """(key terms, posting) pairs over few documents and few distinct
    tf/length values, so documents repeat across keys and scores tie."""
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        key_terms = tuple(
            sorted(
                draw(
                    st.sets(
                        st.sampled_from(VOCABULARY), min_size=1, max_size=3
                    )
                )
            )
        )
        tfs = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in key_terms
        )
        # Single-term keys may ship the bare ``tf`` form.
        bare = len(key_terms) == 1 and draw(st.booleans())
        pairs.append(
            (
                key_terms,
                LoosePosting(
                    doc_id=draw(st.integers(min_value=0, max_value=12)),
                    tf=tfs[0] if bare else max(1, min(tfs)),
                    term_tfs=() if bare else tfs,
                    doc_len=draw(st.sampled_from([0, 7, 10, 10, 31])),
                ),
            )
        )
    return pairs


@settings(max_examples=300, deadline=None)
@given(
    fetched_evidence(),
    st.integers(min_value=1, max_value=20),
    st.fixed_dictionaries(
        {term: st.integers(min_value=0, max_value=120) for term in "abcd"}
    ),
    st.sampled_from([(100, 10.0), (1, 0.1), (7, 33.3)]),
)
def test_rank_is_bit_identical_to_score_document(
    fetched, k, term_dfs, collection
):
    num_documents, average_doc_length = collection
    scorer = BM25Scorer(
        num_documents=num_documents, average_doc_length=average_doc_length
    )
    # A df cannot exceed the collection size (idf's log needs that).
    term_dfs = {t: df % (num_documents + 1) for t, df in term_dfs.items()}
    expected = reference_rank(scorer, term_dfs, fetched, k)
    results = rank(DistributedRanker(scorer, term_dfs), fetched, k)
    assert [(r.doc_id, bits(r.score)) for r in results] == [
        (doc_id, bits(score)) for doc_id, score in expected
    ]
    candidates = len({posting.doc_id for _, posting in fetched})
    assert len(results) == min(k, candidates)


def test_rank_exactness_on_validated_postings_with_ties():
    """The same check on real :class:`Posting` objects: documents 3, 5
    and 9 carry identical evidence (a three-way tie broken by id), k
    below and above the candidate count."""
    scorer = BM25Scorer(num_documents=50, average_doc_length=12.5)
    term_dfs = {"a": 4, "b": 30, "c": 0}
    fetched = [
        (("a", "b"), Posting(doc_id=d, tf=1, term_tfs=(2, 1), doc_len=11))
        for d in (9, 3, 5)
    ] + [
        (("a",), Posting(doc_id=3, tf=2, doc_len=11)),
        (("c", "zz"), Posting(doc_id=7, tf=1, term_tfs=(1, 4), doc_len=40)),
        (("b",), Posting(doc_id=1, tf=6, term_tfs=(6,), doc_len=3)),
    ]
    ranker = DistributedRanker(scorer, term_dfs)
    for k in (1, 2, 4, 5, 50):
        results = rank(ranker, fetched, k)
        assert [(r.doc_id, bits(r.score)) for r in results] == [
            (doc_id, bits(score))
            for doc_id, score in reference_rank(scorer, term_dfs, fetched, k)
        ]
    tied = [r.doc_id for r in rank(ranker, fetched, 50)]
    assert tied.index(3) < tied.index(5) < tied.index(9)
    assert tied.index(5) == tied.index(3) + 1 == tied.index(9) - 1


def test_whole_lists_rank_like_their_postings_one_by_one():
    """A fetched list is walked in document order, so ranking whole
    lists equals ranking their postings as one-posting lists."""
    scorer = BM25Scorer(num_documents=40, average_doc_length=9.5)
    term_dfs = {"a": 7, "b": 3, "c": 12}
    bare = PostingList(
        Posting(doc_id=d, tf=d % 4 + 1, doc_len=d + 3) for d in (8, 2, 5)
    )
    pair = PostingList(
        Posting(doc_id=d, tf=1, term_tfs=(d % 3 + 1, 2), doc_len=d + 3)
        for d in (5, 11, 2)
    )
    single = PostingList([Posting(doc_id=11, tf=2, doc_len=20)])
    lists = [(("a",), bare), (("a", "b"), pair), (("c",), single)]
    pairs = [
        (key_terms, posting)
        for key_terms, postings in lists
        for posting in postings
    ]
    ranker = DistributedRanker(scorer, term_dfs)
    for k in (1, 3, 10):
        whole = ranker.rank(lists, k)
        assert [(r.doc_id, bits(r.score)) for r in whole] == [
            (r.doc_id, bits(r.score)) for r in rank(ranker, pairs, k)
        ]
        assert [(r.doc_id, bits(r.score)) for r in whole] == [
            (doc_id, bits(score))
            for doc_id, score in reference_rank(scorer, term_dfs, pairs, k)
        ]


def test_negative_df_still_rejected_when_the_term_scores():
    scorer = BM25Scorer(num_documents=10, average_doc_length=5.0)
    fetched = [(("a",), Posting(doc_id=1, tf=1, doc_len=5))]
    with pytest.raises(RetrievalError):
        rank(DistributedRanker(scorer, {"a": -1}), fetched, k=1)


# -- exactness against the dict-of-dicts ranker ----------------------------------------
#
# The ranker reads a caller's df map without copying it, shares a length-
# norm table across queries of one statistics generation and returns
# named tuples.  The reference below is the ranker as it was before that:
# a per-call idf and norm memo over a doc -> term -> tf evidence map.
# Scores still sum in the order terms were first seen, so every bit must
# agree.


def dict_of_dicts_rank(scorer, term_dfs, fetched, k):
    evidence: dict[int, dict[str, int]] = {}
    doc_lens: dict[int, int] = {}
    for key_terms, postings in fetched:
        doc_ids, tfs, lengths, offsets, term_tfs = postings.columns()
        bare_term = key_terms[0] if len(key_terms) == 1 else None
        for row, (doc_id, doc_len) in enumerate(zip(doc_ids, lengths)):
            term_map = evidence.get(doc_id)
            if term_map is None:
                term_map = evidence[doc_id] = {}
                doc_lens[doc_id] = doc_len
            elif doc_len > doc_lens[doc_id]:
                doc_lens[doc_id] = doc_len
            index = offsets[row]
            if offsets[row + 1] > index:
                for term in key_terms:
                    tf = term_tfs[index]
                    index += 1
                    if tf > term_map.setdefault(term, 0):
                        term_map[term] = tf
            elif bare_term is not None:
                if tfs[row] > term_map.setdefault(bare_term, 0):
                    term_map[bare_term] = tfs[row]
    k1_plus_1 = scorer.k1 + 1
    idfs: dict[str, float] = {}
    norms: dict[int, float] = {}
    ranked: list[tuple[float, int]] = []
    for doc_id, term_map in evidence.items():
        doc_len = doc_lens[doc_id]
        norm = norms.get(doc_len)
        if norm is None:
            norm = norms[doc_len] = scorer.length_norm(doc_len)
        score = 0.0
        for term, tf in term_map.items():
            if tf > 0:
                idf = idfs.get(term)
                if idf is None:
                    idf = idfs[term] = scorer.idf(term_dfs.get(term, 0))
                score += idf * tf * k1_plus_1 / (tf + norm)
        ranked.append((-score, doc_id))
    ranked.sort()
    return [(doc_id, -negated) for negated, doc_id in ranked[:k]]


@st.composite
def fetched_lists(draw):
    """Whole fetched posting lists, one per key: few documents, so they
    recur under several keys with disagreeing lengths and tie on score;
    single-term keys may ship bare ``tf`` rows; the keys come in drawn
    order or with every multi-term key ahead of the single-term ones."""
    lists = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        key_terms = tuple(
            sorted(
                draw(
                    st.sets(
                        st.sampled_from(VOCABULARY), min_size=1, max_size=3
                    )
                )
            )
        )
        doc_ids = sorted(
            draw(st.sets(st.integers(min_value=0, max_value=9), min_size=1))
        )
        tfs, doc_lens, offsets, term_tfs = [], [], [0], []
        for _doc_id in doc_ids:
            row = [
                draw(st.integers(min_value=0, max_value=3))
                for _ in key_terms
            ]
            bare = len(key_terms) == 1 and draw(st.booleans())
            tfs.append(row[0] if bare else max(1, min(row)))
            doc_lens.append(draw(st.sampled_from([0, 7, 10, 10, 31])))
            if not bare:
                term_tfs.extend(row)
            offsets.append(len(term_tfs))
        lists.append(
            (
                key_terms,
                PostingList._from_columns(
                    tuple(doc_ids),
                    tuple(tfs),
                    tuple(doc_lens),
                    tuple(offsets),
                    tuple(term_tfs),
                ),
            )
        )
    if draw(st.booleans()):
        lists.sort(key=lambda pair: len(pair[0]) == 1)
    return lists


@settings(max_examples=300, deadline=None)
@given(
    fetched_lists(),
    st.integers(min_value=1, max_value=14),
    st.fixed_dictionaries(
        {term: st.integers(min_value=0, max_value=120) for term in "abcd"}
    ),
    st.sampled_from([(100, 10.0), (1, 0.1), (7, 33.3)]),
)
def test_rank_is_bit_identical_to_the_dict_of_dicts_ranker(
    fetched, k, term_dfs, collection
):
    num_documents, average_doc_length = collection
    scorer = BM25Scorer(
        num_documents=num_documents, average_doc_length=average_doc_length
    )
    term_dfs = {t: df % (num_documents + 1) for t, df in term_dfs.items()}
    published = dict(term_dfs)
    expected = [
        (doc_id, bits(score))
        for doc_id, score in dict_of_dicts_rank(scorer, term_dfs, fetched, k)
    ]
    # Twice over one norm table: the second ranking reads what the
    # first one filled, as the queries of one statistics generation do.
    norms: dict[int, float] = {}
    for _ in range(2):
        results = DistributedRanker(scorer, term_dfs, norms=norms).rank(
            fetched, k
        )
        assert [(r.doc_id, bits(r.score)) for r in results] == expected
    assert norms == {
        length: scorer.length_norm(length) for length in norms
    }
    candidates = {
        doc_id for _, postings in fetched for doc_id in postings.doc_ids()
    }
    assert len(results) == min(k, len(candidates))
    assert term_dfs == published  # read, never written


def test_ranked_result_is_an_immutable_named_pair():
    result = RankedResult(doc_id=3, score=1.5)
    assert (result.doc_id, result.score) == (3, 1.5) == tuple(result)
    with pytest.raises(AttributeError):
        result.score = 2.0


def test_engine_rebuilds_its_scoring_state_after_a_join(small_collection):
    """The engine keeps one scorer and norm table per statistics
    generation; a join publishes new statistics, after which its
    rankings must equal a freshly constructed engine's."""
    ids = small_collection.doc_ids()
    service = SearchService.build(
        small_collection.subset(ids[:80]),
        num_peers=3,
        backend="hdk",
        params=SMALL_PARAMS,
        cache_capacity=None,
    )
    service.index()
    queries = QueryLogGenerator(
        small_collection.subset(ids[:80]),
        window_size=SMALL_PARAMS.window_size,
        min_hits=2,
        seed=5,
    ).generate(12)
    engine = service.backend._engine
    index = service.backend.global_index
    source = service.peers[0].name

    def rankings(searcher):
        return [
            [
                (r.doc_id, bits(r.score))
                for r in searcher.search(source, query, k=10).results
            ]
            for query in queries
        ]

    before = rankings(engine)
    assert before == rankings(HDKRetrievalEngine(index, SMALL_PARAMS))
    service.add_peers(small_collection.subset(ids[80:84]), 1)
    assert service.backend._engine is engine
    after = rankings(engine)
    assert after == rankings(HDKRetrievalEngine(index, SMALL_PARAMS))
    assert after != before
