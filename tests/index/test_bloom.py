"""Tests for the Bloom filter."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index import bloom as bloom_module
from repro.index.bloom import BloomFilter, optimal_bits_per_element
from repro.overlay.summaries import ClusterSummary, summary_for_scan


class TestConstruction:
    def test_for_capacity_sizes_reasonably(self):
        filter_ = BloomFilter.for_capacity(1000, target_fpr=0.01)
        # ~9.6 bits per element at 1% fpr.
        assert 8_000 < filter_.num_bits < 12_000
        assert filter_.num_hashes >= 1

    def test_optimal_bits_formula(self):
        assert optimal_bits_per_element(0.01) == pytest.approx(9.585, abs=0.01)

    def test_invalid_fpr(self):
        with pytest.raises(IndexError_):
            optimal_bits_per_element(0.0)
        with pytest.raises(IndexError_):
            BloomFilter.for_capacity(10, target_fpr=1.0)

    def test_invalid_sizes(self):
        with pytest.raises(IndexError_):
            BloomFilter(num_bits=4, num_hashes=1)
        with pytest.raises(IndexError_):
            BloomFilter(num_bits=64, num_hashes=0)
        with pytest.raises(IndexError_):
            BloomFilter.for_capacity(0)


class TestMembership:
    def test_no_false_negatives(self):
        filter_ = BloomFilter.for_capacity(500, target_fpr=0.01)
        ids = list(range(0, 5000, 10))
        filter_.add_all(ids)
        assert all(doc_id in filter_ for doc_id in ids)

    def test_false_positive_rate_near_target(self):
        filter_ = BloomFilter.for_capacity(500, target_fpr=0.01)
        filter_.add_all(range(500))
        negatives = range(10_000, 30_000)
        fp = sum(1 for doc_id in negatives if doc_id in filter_)
        assert fp / 20_000 < 0.05  # generous margin around the 1% target

    def test_empty_filter_rejects_everything(self):
        filter_ = BloomFilter(num_bits=128, num_hashes=3)
        assert 42 not in filter_

    def test_len_counts_insertions(self):
        filter_ = BloomFilter(num_bits=128, num_hashes=3)
        filter_.add_all([1, 2, 3])
        assert len(filter_) == 3


class TestWireSize:
    def test_size_bytes(self):
        assert BloomFilter(num_bits=64, num_hashes=1).size_bytes == 8
        assert BloomFilter(num_bits=65, num_hashes=1).size_bytes == 9

    def test_posting_equivalents(self):
        filter_ = BloomFilter(num_bits=640, num_hashes=1)
        assert filter_.posting_equivalents(bytes_per_posting=8) == 10

    def test_posting_equivalents_minimum_one(self):
        filter_ = BloomFilter(num_bits=8, num_hashes=1)
        assert filter_.posting_equivalents() == 1

    def test_filter_smaller_than_list(self):
        # The whole point: a filter of n elements is far smaller than the
        # n postings themselves.
        n = 10_000
        filter_ = BloomFilter.for_capacity(n, target_fpr=0.01)
        assert filter_.posting_equivalents() < n / 5


class TestExpectedFpr:
    def test_zero_when_empty(self):
        assert BloomFilter(num_bits=64, num_hashes=2).expected_fpr() == 0.0

    def test_grows_with_load(self):
        filter_ = BloomFilter(num_bits=256, num_hashes=3)
        filter_.add_all(range(10))
        low = filter_.expected_fpr()
        filter_.add_all(range(10, 100))
        assert filter_.expected_fpr() > low


# -- bit-identical to the salted-SHA-1 definition ---------------------------------
#
# Cluster summaries and the single_term_bloom baseline both depend on
# which bits an id sets (summary skips, false positives, shipped filter
# sizes), so the filter must set exactly the bits of this reference, the
# straightforward form of the formula: one SHA-1 per hash function over
# "<seed>:<id>", first 8 bytes big-endian, modulo the bit count.


class ReferenceBloom:
    def __init__(self, num_bits: int, num_hashes: int) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.bits = 0
        self.count = 0

    def positions(self, doc_id):
        for seed in range(self.num_hashes):
            digest = hashlib.sha1(f"{seed}:{doc_id}".encode("ascii")).digest()
            yield int.from_bytes(digest[:8], "big") % self.num_bits

    def add(self, doc_id) -> None:
        for position in self.positions(doc_id):
            self.bits |= 1 << position
        self.count += 1

    def __contains__(self, doc_id) -> bool:
        return all(self.bits >> p & 1 for p in self.positions(doc_id))


filter_shapes = st.tuples(
    st.integers(min_value=8, max_value=4096),
    st.integers(min_value=1, max_value=12),
)
# Small pools force repeats; the wide range covers 64-bit key ids.
id_streams = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=120,
)


def assert_same(filter_, reference, probes) -> None:
    assert int.from_bytes(filter_._bits, "little") == reference.bits
    assert len(filter_) == reference.count
    for doc_id in probes:
        assert (doc_id in filter_) == (doc_id in reference)


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(filter_shapes, id_streams, id_streams)
    def test_add_and_add_all_match_reference(self, shape, ids, probes):
        one_by_one, bulk = BloomFilter(*shape), BloomFilter(*shape)
        reference = ReferenceBloom(*shape)
        for doc_id in ids:
            one_by_one.add(doc_id)
            reference.add(doc_id)
        bulk.add_all(ids)
        assert_same(one_by_one, reference, ids + probes)
        assert_same(bulk, reference, ids + probes)

    @pytest.mark.parametrize(
        "capacity, num_bits", [(10_000, 95_850), (40_000, 383_402)]
    )
    @settings(max_examples=10, deadline=None)
    @given(ids=id_streams, probes=id_streams)
    def test_summary_sized_filters_match_reference(
        self, capacity, num_bits, ids, probes
    ):
        # The shapes of 10 000- and 40 000-key cluster summaries: bits
        # far past the first bytes must land where the reference puts
        # them.
        filter_ = BloomFilter.for_capacity(capacity)
        assert filter_.num_bits == num_bits
        reference = ReferenceBloom(num_bits, filter_.num_hashes)
        for doc_id in ids:
            expected = doc_id not in reference
            if expected:
                reference.add(doc_id)
            assert filter_.add_if_absent(doc_id) == expected
        assert_same(filter_, reference, ids + probes)

    @settings(max_examples=150, deadline=None)
    @given(filter_shapes, id_streams, id_streams)
    def test_check_then_add_matches_reference(self, shape, ids, probes):
        filter_ = BloomFilter(*shape)
        reference = ReferenceBloom(*shape)
        for doc_id in ids:
            expected = doc_id not in reference
            if expected:
                reference.add(doc_id)
            assert filter_.add_if_absent(doc_id) == expected
        assert_same(filter_, reference, ids + probes)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=64), id_streams, id_streams)
    def test_cluster_summary_matches_reference(self, capacity, ids, probes):
        summary = ClusterSummary(capacity=capacity)
        inner = summary._filter
        reference = ReferenceBloom(inner.num_bits, inner.num_hashes)
        for doc_id in ids:
            summary.add(doc_id)
            if doc_id not in reference:
                reference.add(doc_id)
        assert_same(inner, reference, ids + probes)
        assert len(summary) == reference.count
        assert summary.saturated == (reference.count > capacity)

    @settings(max_examples=60, deadline=None)
    @given(
        # Members of one cluster storing overlapping key ids (a key
        # and its replica), as a scan returns them.
        st.lists(
            st.lists(st.integers(min_value=0, max_value=60), max_size=30),
            max_size=6,
        ),
        id_streams,
    )
    def test_summary_for_scan_matches_adding_every_row(self, rows, probes):
        scan = [(member, key_ids) for member, key_ids in enumerate(rows)]
        summary = summary_for_scan(scan, minimum_capacity=8)
        expected = ClusterSummary(capacity=summary.capacity)
        for _, key_ids in scan:
            for key_id in key_ids:
                expected.add(key_id)
        assert bytes(summary._filter._bits) == bytes(expected._filter._bits)
        assert len(summary) == len(expected)
        for key_id in probes:
            assert (key_id in summary) == (key_id in expected)

    def test_summary_add_hashes_at_most_num_hashes_times(self, monkeypatch):
        summary = ClusterSummary(capacity=64)
        calls = []
        real_sha1 = bloom_module.sha1

        def counting_sha1(data):
            calls.append(data)
            return real_sha1(data)

        monkeypatch.setattr(bloom_module, "sha1", counting_sha1)
        for key_id in (7, 7, 2**63, 12345):
            calls.clear()
            summary.add(key_id)
            assert len(calls) <= summary._filter.num_hashes
