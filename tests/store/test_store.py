"""Tests for the segmented store: directory, cache, compaction, reopen."""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.index.postings import Posting, PostingList
from repro.store.blockcache import BlockCache
from repro.store.segment import (
    STATUS_DK,
    STATUS_NDK,
    SegmentRecord,
    encode_record,
)
from repro.store.store import SegmentStore


def make_postings(doc_ids, tf=2) -> PostingList:
    return PostingList(
        [Posting(doc_id=d, tf=tf, doc_len=25) for d in doc_ids]
    )


def key_of(i: int) -> frozenset[str]:
    return frozenset({f"term{i}", f"other{i % 5}"})


class TestBlockCache:
    # A 4-posting list encodes to 17 bytes: a 40-byte cache holds two.

    def test_lru_eviction_under_budget(self):
        cache = BlockCache(40)
        cache.put("a", make_postings(range(4)))
        cache.put("b", make_postings(range(4)))
        cache.put("c", make_postings(range(4)))  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.held_bytes <= 40
        assert cache.held_postings == 8
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = BlockCache(40)
        cache.put("a", make_postings(range(4)))
        cache.put("b", make_postings(range(4)))
        cache.get("a")
        cache.put("c", make_postings(range(4)))  # "b" is now LRU
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_oversized_block_not_kept(self):
        cache = BlockCache(12)
        cache.put("big", make_postings(range(10)))
        assert cache.get("big") is None
        assert cache.held_bytes == 0
        assert cache.held_postings == 0

    def test_oversized_block_does_not_flush_residents(self):
        """An unadmittable block must be rejected up front, not paid
        for by evicting every hot resident first."""
        cache = BlockCache(40)
        cache.put("a", make_postings(range(4)))
        cache.put("b", make_postings(range(4)))
        cache.put("big", make_postings(range(20)))
        assert cache.get("big") is None
        assert cache.get("a") is not None
        assert cache.get("b") is not None

    def test_zero_capacity_disables(self):
        cache = BlockCache(0)
        cache.put("a", make_postings(range(2)))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(StoreError):
            BlockCache(-1)


class TestSegmentStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = SegmentStore(tmp_path)
        postings = make_postings((1, 4, 9))
        store.put(key_of(1), postings, 5, STATUS_NDK, (2, 7))
        assert store.get_postings(key_of(1)) == postings
        meta = store.meta(key_of(1))
        assert meta.global_df == 5
        assert meta.status_code == STATUS_NDK
        assert meta.contributors == (2, 7)
        assert meta.posting_count == 3
        assert key_of(1) in store and len(store) == 1

    def test_missing_key(self, tmp_path):
        store = SegmentStore(tmp_path)
        assert store.get_postings(frozenset({"nope"})) is None
        assert store.meta(frozenset({"nope"})) is None

    def test_overwrite_latest_wins(self, tmp_path):
        store = SegmentStore(tmp_path, compact_dead_ratio=1.0)
        store.put(key_of(1), make_postings((1, 2)), 2, STATUS_DK)
        newer = make_postings((3, 4, 5))
        store.put(key_of(1), newer, 3, STATUS_DK)
        assert store.get_postings(key_of(1)) == newer
        assert len(store) == 1
        assert store.dead_ratio > 0

    def test_overwrite_invalidates_stale_cached_block(self, tmp_path):
        """The superseded record's block must leave the cache: it is
        unreachable, so leaving it would burn posting budget forever."""
        store = SegmentStore(tmp_path, compact_dead_ratio=1.0)
        for round_ in range(5):
            store.put(
                key_of(1), make_postings(range(round_, round_ + 3)),
                3, STATUS_DK,
            )
        # Only the live block is resident; dead overwrites left no trace.
        assert store.cache.held_postings == 3
        assert len(store.cache) == 1

    def test_delete_tombstones(self, tmp_path):
        store = SegmentStore(tmp_path, compact_dead_ratio=1.0)
        store.put(key_of(1), make_postings((1,)), 1, STATUS_DK)
        store.delete(key_of(1))
        assert key_of(1) not in store
        assert store.get_postings(key_of(1)) is None
        store.delete(key_of(1))  # deleting absent keys is a no-op

    def test_reopen_rebuilds_directory(self, tmp_path):
        store = SegmentStore(tmp_path, segment_max_bytes=256)
        expected = {}
        for i in range(30):
            postings = make_postings(range(i % 7 + 1))
            store.put(key_of(i), postings, i % 7 + 1, STATUS_DK)
            expected[key_of(i)] = postings
        store.delete(key_of(3))
        del expected[key_of(3)]
        store.close()
        reopened = SegmentStore(tmp_path)
        assert len(reopened) == len(expected)
        for key, postings in expected.items():
            assert reopened.get_postings(key) == postings

    def test_rollover_creates_segments(self, tmp_path):
        store = SegmentStore(tmp_path, segment_max_bytes=128)
        for i in range(20):
            store.put(key_of(i), make_postings((i,)), 1, STATUS_DK)
        assert store.stats()["segments"] > 1

    def test_compaction_drops_dead_records(self, tmp_path):
        store = SegmentStore(
            tmp_path, segment_max_bytes=512, compact_dead_ratio=1.0
        )
        for i in range(10):
            store.put(key_of(i), make_postings((i, i + 1)), 2, STATUS_DK)
        for i in range(10):  # supersede everything once
            store.put(key_of(i), make_postings((i + 50,)), 1, STATUS_NDK)
        store.delete(key_of(0))
        before = store.stats()
        assert before["dead_bytes"] > 0
        store.compact()
        after = store.stats()
        assert after["dead_bytes"] == 0
        assert after["segments"] == 1
        assert len(store) == 9
        for i in range(1, 10):
            assert store.get_postings(key_of(i)) == make_postings((i + 50,))

    @pytest.mark.concurrency
    def test_auto_compaction_triggers(self, tmp_path):
        store = SegmentStore(tmp_path, compact_dead_ratio=0.4)
        for _ in range(8):  # rewrite one key repeatedly
            store.put(key_of(1), make_postings((1, 2, 3)), 3, STATUS_DK)
        assert store.quiesce_maintenance()
        assert store.stats()["compactions"] >= 1
        assert store.dead_ratio < 0.4

    def test_truncated_tail_skipped_on_reopen(self, tmp_path):
        store = SegmentStore(tmp_path)
        for i in range(6):
            store.put(key_of(i), make_postings((i,)), 1, STATUS_DK)
        store.close()
        segments = sorted(tmp_path.glob("segment-*.seg"))
        data = segments[-1].read_bytes()
        segments[-1].write_bytes(data[:-5])
        reopened = SegmentStore(tmp_path)
        assert reopened.stats()["truncated_tails_skipped"] == 1
        assert len(reopened) == 5  # the torn record is gone, prefix intact
        for i in range(5):
            assert reopened.get_postings(key_of(i)) == make_postings((i,))

    @pytest.mark.parametrize("torn_header", [b"", b"RS", b"RSEG"])
    def test_torn_header_at_rollover_skipped(self, tmp_path, torn_header):
        """A writer killed at segment creation (before the header
        flushed) must not brick the store: earlier segments stay
        readable and the torn file counts as a truncated tail."""
        store = SegmentStore(tmp_path)
        store.put(key_of(1), make_postings((1, 2)), 2, STATUS_DK)
        store.close()
        (tmp_path / "segment-000002.seg").write_bytes(torn_header)
        reopened = SegmentStore(tmp_path)
        assert reopened.stats()["truncated_tails_skipped"] == 1
        assert reopened.get_postings(key_of(1)) == make_postings((1, 2))

    def test_writes_after_recovery_use_fresh_segment(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.put(key_of(1), make_postings((1,)), 1, STATUS_DK)
        store.close()
        segments = sorted(tmp_path.glob("segment-*.seg"))
        segments[-1].write_bytes(segments[-1].read_bytes()[:-3])
        reopened = SegmentStore(tmp_path)
        reopened.put(key_of(2), make_postings((2,)), 1, STATUS_DK)
        reopened.close()
        # the torn file was not appended to
        final = SegmentStore(tmp_path)
        assert key_of(2) in final and key_of(1) not in final

    def test_malformed_payload_is_a_store_error_naming_the_record(
        self, tmp_path
    ):
        """A record whose crc holds but whose posting payload does not
        decode (here: a tf of 0) must surface as a StoreError naming the
        segment and offset, not as a bare index error."""
        store = SegmentStore(tmp_path)
        store.put(key_of(1), make_postings((1, 2)), 2, STATUS_DK)
        store.close()
        segment = sorted(tmp_path.glob("segment-*.seg"))[-1]
        offset = segment.stat().st_size
        bad = SegmentRecord(
            key=key_of(2),
            global_df=1,
            status_code=STATUS_DK,
            contributors=(),
            payload=b"\x01\x00\x00\x00\x00",  # one posting, tf 0
        )
        with open(segment, "ab") as handle:
            handle.write(encode_record(bad))
        for sidecar in tmp_path.glob("*.idx"):
            sidecar.unlink()
        reopened = SegmentStore(tmp_path)
        assert reopened.get_postings(key_of(1)) == make_postings((1, 2))
        with pytest.raises(StoreError) as caught:
            reopened.get_postings(key_of(2))
        assert str(caught.value) == (
            f"{segment}@{offset}: malformed posting payload: "
            "tf must be >= 1, got 0"
        )

    def test_block_cache_serves_repeat_reads(self, tmp_path):
        store = SegmentStore(tmp_path, cache_bytes=400)
        store.put(key_of(1), make_postings((1, 2)), 2, STATUS_DK)
        store.flush()
        store.cache.clear()
        assert store.get_postings(key_of(1)) is not None  # miss -> disk
        misses = store.cache_stats.misses
        assert store.get_postings(key_of(1)) is not None  # hit
        assert store.cache_stats.misses == misses
        assert store.cache_stats.hits >= 1

    def test_temporary_directory_default(self):
        store = SegmentStore()
        store.put(key_of(1), make_postings((1,)), 1, STATUS_DK)
        assert store.get_postings(key_of(1)) == make_postings((1,))
        assert store.directory.exists()

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            SegmentStore(tmp_path, segment_max_bytes=0)
        with pytest.raises(StoreError):
            SegmentStore(tmp_path, compact_dead_ratio=0.0)
        with pytest.raises(StoreError):
            SegmentStore(tmp_path, compact_dead_ratio=1.5)
