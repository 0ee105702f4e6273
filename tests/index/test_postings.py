"""Tests for postings and posting lists."""

from __future__ import annotations

import pytest

from repro.errors import IndexError_
from repro.index.postings import Posting, PostingList


def pl(*pairs):
    """Build a posting list from (doc_id, tf) pairs."""
    return PostingList(Posting(doc_id=d, tf=t) for d, t in pairs)


class TestPosting:
    def test_validation(self):
        with pytest.raises(IndexError_):
            Posting(doc_id=-1, tf=1)
        with pytest.raises(IndexError_):
            Posting(doc_id=0, tf=0)
        with pytest.raises(IndexError_):
            Posting(doc_id=0, tf=1, doc_len=-1)
        with pytest.raises(IndexError_):
            Posting(doc_id=0, tf=1, term_tfs=(0,))

    def test_term_frequency_fallback(self):
        posting = Posting(doc_id=1, tf=4)
        assert posting.term_frequency(0) == 4

    def test_term_frequency_indexed(self):
        posting = Posting(doc_id=1, tf=2, term_tfs=(2, 5))
        assert posting.term_frequency(0) == 2
        assert posting.term_frequency(1) == 5


class TestPostingList:
    def test_sorted_by_doc_id(self):
        result = pl((5, 1), (1, 1), (3, 1))
        assert result.doc_ids() == [1, 3, 5]

    def test_duplicate_doc_rejected(self):
        with pytest.raises(IndexError_):
            pl((1, 1), (1, 2))

    def test_len_and_df(self):
        result = pl((1, 1), (2, 1))
        assert len(result) == 2
        assert result.document_frequency() == 2

    def test_contains(self):
        result = pl((1, 1), (3, 1))
        assert 1 in result
        assert 2 not in result

    def test_get(self):
        result = pl((1, 7))
        assert result.get(1).tf == 7
        assert result.get(9) is None

    def test_equality(self):
        assert pl((1, 2)) == pl((1, 2))
        assert pl((1, 2)) != pl((1, 3))


class TestSetOperations:
    def test_union_disjoint(self):
        result = pl((1, 1)).union(pl((2, 1)))
        assert result.doc_ids() == [1, 2]

    def test_union_overlap_keeps_one_posting_per_doc(self):
        result = pl((1, 2), (2, 1)).union(pl((2, 5), (3, 1)))
        assert result.doc_ids() == [1, 2, 3]
        assert result.get(2).tf == 5  # richer posting survives

    def test_union_prefers_term_tfs(self):
        rich = PostingList([Posting(doc_id=1, tf=1, term_tfs=(1, 2))])
        poor = pl((1, 9))
        merged = rich.union(poor)
        assert merged.get(1).term_tfs == (1, 2)

    def test_union_is_commutative_on_doc_ids(self):
        a, b = pl((1, 1), (4, 1)), pl((2, 1), (4, 2))
        assert a.union(b).doc_ids() == b.union(a).doc_ids()

    def test_intersect(self):
        result = pl((1, 1), (2, 2), (3, 3)).intersect(pl((2, 9), (4, 1)))
        assert result.doc_ids() == [2]
        assert result.get(2).tf == 2  # postings come from self

    def test_intersect_empty(self):
        assert pl((1, 1)).intersect(pl((2, 1))).doc_ids() == []

    def test_filter_docs(self):
        result = pl((1, 1), (2, 1), (3, 1)).filter_docs(lambda d: d != 2)
        assert result.doc_ids() == [1, 3]


class TestTruncation:
    def test_truncate_by_tf(self):
        result = pl((1, 5), (2, 9), (3, 1)).truncate_top(2, "tf")
        assert result.doc_ids() == [1, 2]  # top tfs 9 and 5, re-sorted

    def test_truncate_no_op_when_short(self):
        original = pl((1, 1), (2, 1))
        assert original.truncate_top(5, "tf").doc_ids() == [1, 2]

    def test_truncate_deterministic_ties(self):
        result = pl((3, 2), (1, 2), (2, 2)).truncate_top(2, "tf")
        assert result.doc_ids() == [1, 2]  # ties broken by doc_id

    def test_truncate_by_norm(self):
        # tf/len: doc 1 -> 5/100, doc 2 -> 3/10 -> doc 2 ranks higher.
        result = PostingList(
            [
                Posting(doc_id=1, tf=5, doc_len=100),
                Posting(doc_id=2, tf=3, doc_len=10),
            ]
        ).truncate_top(1, "norm")
        assert result.doc_ids() == [2]

    def test_truncate_zero(self):
        assert len(pl((1, 1)).truncate_top(0, "tf")) == 0

    def test_bad_policy(self):
        with pytest.raises(IndexError_):
            pl((1, 1), (2, 1)).truncate_top(1, "bogus")

    def test_negative_limit(self):
        with pytest.raises(IndexError_):
            pl((1, 1)).truncate_top(-1, "tf")
