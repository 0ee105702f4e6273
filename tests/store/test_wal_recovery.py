"""Crash-recovery tests for the generation-2 store: WAL replay,
memtable-flush windows, and background-compaction swaps.

Each test simulates a killed writer by manipulating the on-disk state a
real crash would leave (torn WAL tails, surviving WALs next to flushed
segments, staged compaction outputs) and asserts that reopening the
directory recovers exactly the last durable state.
"""

from __future__ import annotations

import pytest

import repro.store.store as store_mod
from repro.errors import StoreError
from repro.index.postings import Posting, PostingList
from repro.store.segindex import load_segment_index, sidecar_path
from repro.store.store import SegmentStore
from repro.store.wal import WalWriter, scan_wal, wal_ids, wal_path


def make_postings(doc_ids) -> PostingList:
    return PostingList(
        [Posting(doc_id=d, tf=2, doc_len=40) for d in doc_ids]
    )


def put_n(store: SegmentStore, n: int, *, start: int = 0) -> None:
    for i in range(start, start + n):
        store.put(
            frozenset({f"k{i:03d}"}), make_postings(range(i % 7 + 1)), i, 0
        )


def contents(store: SegmentStore) -> dict:
    return {
        key: [(p.doc_id, p.tf) for p in store.get_postings(key)]
        for key in store.keys()
    }


class TestWalReplay:
    def test_acknowledged_writes_survive_reopen_without_flush(
        self, tmp_path
    ):
        """Kill the writer before any memtable flush: every put must
        come back from the WAL alone."""
        store = SegmentStore(tmp_path, wal=True)
        put_n(store, 10)
        expected = contents(store)
        assert store.stats()["memtable_keys"] == 10
        assert store.stats()["segments"] == 0
        # No close(): simulate a process kill (WAL appends are flushed
        # to the OS per write, so the file content is what survives).
        del store

        reopened = SegmentStore(tmp_path, wal=True)
        assert contents(reopened) == expected
        assert reopened.stats()["wal_replayed_records"] == 10

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        store = SegmentStore(tmp_path, wal=True)
        put_n(store, 8)
        expected = contents(store)

        # A record half-written at the kill instant: garbage appended
        # to the newest WAL.
        wal_files = wal_ids(tmp_path)
        assert wal_files
        with open(wal_path(tmp_path, wal_files[-1]), "ab") as handle:
            handle.write(b"\x42torn-frame-cut-mid-")

        reopened = SegmentStore(tmp_path, wal=True)
        assert contents(reopened) == expected
        assert reopened.stats()["wal_truncated_tails_skipped"] == 1

    def test_tombstone_in_wal_survives_reopen(self, tmp_path):
        store = SegmentStore(tmp_path, wal=True)
        put_n(store, 5)
        store.delete(frozenset({"k002"}))
        expected = contents(store)
        assert frozenset({"k002"}) not in store

        reopened = SegmentStore(tmp_path, wal=True)
        assert frozenset({"k002"}) not in reopened
        assert contents(reopened) == expected

    def test_replay_after_flush_is_idempotent(self, tmp_path):
        """Crash *between* memtable flush and WAL deletion: the WAL's
        records are already in a segment, and replaying them on top
        must change nothing."""
        store = SegmentStore(tmp_path, wal=True)
        put_n(store, 6)
        expected = contents(store)

        # Save the WAL aside, checkpoint (flush + WAL deletion), then
        # restore the WAL — disk now looks like a kill inside the
        # flush's crash window, after the segment went durable.
        wal_file = wal_path(tmp_path, wal_ids(tmp_path)[0])
        saved = wal_file.read_bytes()
        store.checkpoint()
        assert wal_ids(tmp_path) == []
        assert store.stats()["segments"] == 1
        wal_file.write_bytes(saved)

        reopened = SegmentStore(tmp_path, wal=True)
        assert contents(reopened) == expected
        assert reopened.stats()["wal_replayed_records"] == 6
        # The stale WAL is rotated out at the next flush.
        reopened.checkpoint()
        assert wal_ids(tmp_path) == []
        assert contents(reopened) == expected

    def test_crash_mid_flush_before_seal_keeps_wal_authoritative(
        self, tmp_path
    ):
        """Kill inside the flush, after some segment bytes hit disk but
        before the WAL was deleted: the torn segment's tail is skipped
        and the WAL replays the full state."""
        store = SegmentStore(tmp_path, wal=True)
        put_n(store, 6)
        expected = contents(store)
        wal_file = wal_path(tmp_path, wal_ids(tmp_path)[0])
        saved = wal_file.read_bytes()
        store.checkpoint()

        # Reconstruct the mid-flush window: WAL still present, flushed
        # segment truncated mid-record, its sidecar not yet written.
        wal_file.write_bytes(saved)
        seg = sorted(tmp_path.glob("segment-*.seg"))[0]
        sidecar_path(seg).unlink()
        data = seg.read_bytes()
        seg.write_bytes(data[: len(data) - 7])

        reopened = SegmentStore(tmp_path, wal=True)
        assert contents(reopened) == expected
        stats = reopened.stats()
        assert stats["truncated_tails_skipped"] == 1
        assert stats["wal_replayed_records"] == 6

    def test_legacy_open_checkpoints_surviving_wal(self, tmp_path):
        """A WAL-less open of a WAL-ful directory must not strand the
        log's records: they are flushed into segments immediately."""
        store = SegmentStore(tmp_path, wal=True)
        put_n(store, 4)
        expected = contents(store)

        legacy = SegmentStore(tmp_path)  # wal=False
        assert contents(legacy) == expected
        assert wal_ids(tmp_path) == []
        assert legacy.stats()["segments"] >= 1

    def test_wal_writer_refuses_existing_file(self, tmp_path):
        path = wal_path(tmp_path, 1)
        WalWriter(path).close()
        with pytest.raises(StoreError):
            WalWriter(path)

    def test_wal_scan_header_prefix_is_torn(self, tmp_path):
        path = wal_path(tmp_path, 1)
        path.write_bytes(b"RW")
        scan = scan_wal(path)
        assert scan.truncated and scan.records == []


class TestSidecarReopen:
    def test_reopen_uses_sidecars_not_scans(self, tmp_path):
        """A checkpointed store reopens through sidecar indexes without
        reading a single record body."""
        store = SegmentStore(tmp_path, wal=True, segment_max_bytes=512)
        put_n(store, 40)
        store.checkpoint()
        expected = contents(store)
        n_segments = store.stats()["segments"]
        assert n_segments >= 2

        calls = {"scan": 0}
        real_scan = store_mod.scan_segment

        def counting_scan(path):
            calls["scan"] += 1
            return real_scan(path)

        store_mod.scan_segment = counting_scan
        try:
            reopened = SegmentStore(tmp_path, wal=True)
        finally:
            store_mod.scan_segment = real_scan
        assert calls["scan"] == 0
        stats = reopened.stats()
        assert stats["sidecar_reopens"] == n_segments
        assert stats["scan_reopens"] == 0
        assert contents(reopened) == expected

    def test_stale_sidecar_falls_back_to_scan_and_heals(self, tmp_path):
        """Truncating a segment after sealing makes its sidecar stale
        (size mismatch): the reopen must scan, recover the prefix, and
        re-heal the sidecar for the next reopen."""
        store = SegmentStore(tmp_path)
        put_n(store, 5)
        store.close()
        seg = sorted(tmp_path.glob("segment-*.seg"))[0]
        data = seg.read_bytes()
        seg.write_bytes(data[: len(data) - 5])

        reopened = SegmentStore(tmp_path)
        stats = reopened.stats()
        assert stats["scan_reopens"] == 1
        assert stats["truncated_tails_skipped"] == 1
        assert len(reopened) == 4
        # The scan shortened the file to its valid prefix? No — the
        # file keeps its torn tail, so the healed sidecar would be
        # stale by construction and is not written.
        assert (
            load_segment_index(sidecar_path(seg), seg.stat().st_size)
            is None
        )

    def test_gen1_directory_heals_sidecars_on_first_reopen(
        self, tmp_path
    ):
        """A sidecar-less (generation-1) segment directory scans once,
        then reopens through the healed sidecars."""
        store = SegmentStore(tmp_path)
        put_n(store, 6)
        store.close()
        for idx in tmp_path.glob("*.idx"):
            idx.unlink()

        first = SegmentStore(tmp_path)
        assert first.stats()["scan_reopens"] == 1
        expected = contents(first)
        first.close()

        second = SegmentStore(tmp_path)
        assert second.stats()["sidecar_reopens"] >= 1
        assert second.stats()["scan_reopens"] == 0
        assert contents(second) == expected

    def test_corrupt_sidecar_falls_back_to_scan(self, tmp_path):
        store = SegmentStore(tmp_path)
        put_n(store, 5)
        store.close()
        expected = contents(store)
        seg = sorted(tmp_path.glob("segment-*.seg"))[0]
        idx = sidecar_path(seg)
        blob = bytearray(idx.read_bytes())
        blob[10] ^= 0xFF
        idx.write_bytes(bytes(blob))

        reopened = SegmentStore(tmp_path)
        assert reopened.stats()["scan_reopens"] == 1
        assert contents(reopened) == expected


@pytest.mark.concurrency
class TestCompactionCrash:
    def test_crash_before_swap_leaves_sources_authoritative(
        self, tmp_path, monkeypatch
    ):
        """Kill the background compaction before its first output
        rename: the staged ``.seg.tmp`` is garbage-collected on reopen
        and the source segments still serve everything."""
        store = SegmentStore(
            tmp_path,
            wal=True,
            compact_dead_ratio=1.0,  # no auto-trigger while staging state
        )
        put_n(store, 12)
        store.checkpoint()
        put_n(store, 12)  # supersede the whole first segment: dead bytes
        store.checkpoint()
        expected = contents(store)
        assert store.dead_ratio > 0.3

        class _Killed(RuntimeError):
            pass

        def exploding_replace(source, target):
            raise _Killed("crash before commit rename")

        monkeypatch.setattr(store_mod, "_replace_file", exploding_replace)
        store.compact_dead_ratio = 0.3
        assert store.maybe_compact()
        assert store.quiesce_maintenance()
        stats = store.stats()
        assert stats["maintenance_errors"] >= 1
        assert stats["compactions"] == 0
        assert contents(store) == expected
        monkeypatch.undo()

        reopened = SegmentStore(tmp_path, wal=True)
        assert list(tmp_path.glob("*.tmp")) == []
        assert contents(reopened) == expected

    def test_lineage_sidecar_commits_before_segment_rename(
        self, tmp_path, monkeypatch
    ):
        """The commit protocol: when the output segment is renamed into
        place, its ``replaces_up_to`` sidecar must already sit under the
        final name — a crash can therefore never leave a visible
        compaction output whose scan fallback would misorder it after a
        concurrent flush.  A crash between the two renames leaves only
        an orphan sidecar, which reopening deletes."""
        store = SegmentStore(
            tmp_path,
            compact_dead_ratio=1.0,
        )
        put_n(store, 10)
        store.checkpoint()
        put_n(store, 10)
        store.checkpoint()
        expected = contents(store)

        class _Killed(RuntimeError):
            pass

        seen = {"lineage_present": False}
        real_load = load_segment_index

        def asserting_replace(source, target):
            # Lineage first: the sidecar is already valid at commit time.
            index = real_load(
                sidecar_path(target), source.stat().st_size
            )
            assert index is not None
            assert index.replaces_up_to > 0
            seen["lineage_present"] = True
            raise _Killed("crash between sidecar commit and rename")

        monkeypatch.setattr(store_mod, "_replace_file", asserting_replace)
        store.compact_dead_ratio = 0.3
        assert store.maybe_compact()
        assert store.quiesce_maintenance()
        assert seen["lineage_present"]
        assert store.stats()["maintenance_errors"] >= 1
        assert contents(store) == expected
        monkeypatch.undo()

        reopened = SegmentStore(tmp_path)
        # The orphan sidecar (segment never committed) is gone, and
        # every surviving sidecar names an existing segment.
        for idx in tmp_path.glob("segment-*.idx"):
            assert idx.with_suffix(".seg").exists()
        assert contents(reopened) == expected

    def test_crash_after_swap_before_source_unlink(self, tmp_path):
        """The narrowest window: output renamed into place, sources not
        yet deleted.  Recovery applies the output right after the
        sources it replaces (last write wins over identical live
        records), so the reopen state is exactly the pre-crash one."""
        store = SegmentStore(tmp_path, compact_dead_ratio=1.0)
        put_n(store, 10)
        put_n(store, 10)
        store.close()
        sources = sorted(tmp_path.glob("segment-*.seg"))
        source_data = {
            seg.name: (seg.read_bytes(), sidecar_path(seg).read_bytes())
            for seg in sources
        }
        expected = contents(store)

        # Run a full compaction, then resurrect the source files as if
        # the crash hit before their unlink.
        store.compact()
        store.close()
        for name, (seg_bytes, idx_bytes) in source_data.items():
            (tmp_path / name).write_bytes(seg_bytes)
            sidecar_path(tmp_path / name).write_bytes(idx_bytes)

        reopened = SegmentStore(tmp_path)
        assert contents(reopened) == expected

    def test_compaction_output_never_shadows_newer_flush(self, tmp_path):
        """A compaction output carries ``replaces_up_to``: on recovery
        it must apply right after its sources, *before* any segment that
        was flushed concurrently with the compaction — otherwise the
        compacted (older) copy of a key would shadow the newer write."""
        store = SegmentStore(tmp_path, compact_dead_ratio=1.0)
        key = frozenset({"hot"})
        store.put(key, make_postings(range(3)), 3, 0)
        store.put(key, make_postings(range(4)), 4, 0)
        # The staged output carries the lineage of the sources it
        # replaces.
        store.compact_dead_ratio = 0.1
        assert store.maybe_compact()
        assert store.quiesce_maintenance()
        # A newer write lands after the compaction (higher segment id).
        store.put(key, make_postings(range(5)), 5, 0)
        store.close()

        reopened = SegmentStore(tmp_path)
        postings = reopened.get_postings(key)
        assert [p.doc_id for p in postings] == [0, 1, 2, 3, 4]
        # Sanity: the compaction output really does carry its lineage.
        lineages = []
        for seg in sorted(tmp_path.glob("segment-*.seg")):
            index = load_segment_index(
                sidecar_path(seg), seg.stat().st_size
            )
            if index is not None:
                lineages.append(index.replaces_up_to)
        assert any(lineage > 0 for lineage in lineages)

    def test_failed_compaction_leaves_no_output_to_resurrect_a_delete(
        self, tmp_path, monkeypatch
    ):
        """A compaction that fails after committing one of its outputs
        must unlink that output.  Left behind, it would sit outside the
        directory — the next compaction neither reads nor unlinks it —
        and replay after its sources on reopen, bringing back a key
        that was deleted and whose tombstone that next compaction
        dropped."""
        store = SegmentStore(
            tmp_path, segment_max_bytes=128, compact_dead_ratio=1.0
        )
        put_n(store, 12)
        put_n(store, 12)
        store.checkpoint()

        class _Killed(RuntimeError):
            pass

        real_replace = store_mod._replace_file
        calls = {"n": 0}

        def second_rename_fails(source, target):
            calls["n"] += 1
            if calls["n"] == 2:
                raise _Killed("second output rename")
            real_replace(source, target)

        monkeypatch.setattr(store_mod, "_replace_file", second_rename_fails)
        store.compact_dead_ratio = 0.3
        assert store.maybe_compact()
        assert store.quiesce_maintenance()
        stats = store.stats()
        assert stats["maintenance_errors"] == 1
        assert stats["compactions"] == 0
        assert calls["n"] == 2  # one output committed before the failure
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp")) == []

        # The dead ratio is still past 0.3, so the delete itself wakes
        # the maintenance thread.
        store.delete(frozenset({"k000"}))
        assert store.quiesce_maintenance()
        assert store.stats()["compactions"] == 1
        expected = contents(store)
        assert len(expected) == 11
        store.close()

        reopened = SegmentStore(tmp_path)
        assert frozenset({"k000"}) not in reopened
        assert len(reopened) == 11
        assert contents(reopened) == expected
        reopened.close()


@pytest.mark.concurrency
class TestBackgroundCompaction:
    def test_background_compaction_compacts_without_blocking(
        self, tmp_path
    ):
        store = SegmentStore(
            tmp_path,
            wal=True,
            compact_dead_ratio=1.0,
            memtable_bytes=256,
        )
        put_n(store, 20)
        store.checkpoint()
        put_n(store, 20)
        store.checkpoint()
        before = contents(store)
        assert store.dead_ratio > 0.3
        store.compact_dead_ratio = 0.3
        assert store.maybe_compact()
        assert store.quiesce_maintenance()
        stats = store.stats()
        assert stats["compactions"] >= 1
        assert stats["maintenance_errors"] == 0
        assert contents(store) == before
        store.close()

        reopened = SegmentStore(tmp_path, wal=True)
        assert contents(reopened) == before

    def test_reads_during_background_compaction_stay_consistent(
        self, tmp_path
    ):
        """Hammer reads while compactions churn segments underneath:
        every read must observe the latest value of its key."""
        import threading

        store = SegmentStore(
            tmp_path,
            wal=True,
            memtable_bytes=512,
            compact_dead_ratio=0.2,
        )
        keys = [frozenset({f"k{i:02d}"}) for i in range(10)]
        for rounds in range(3):
            for i, key in enumerate(keys):
                store.put(
                    key, make_postings(range(i + 1)), i + 1, 0
                )
        errors: list[str] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                for i, key in enumerate(keys):
                    postings = store.get_postings(key)
                    if postings is None or len(postings) != i + 1:
                        errors.append(f"{sorted(key)}: {postings!r}")

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for rounds in range(5):
            for i, key in enumerate(keys):
                store.put(key, make_postings(range(i + 1)), i + 1, 0)
        stop.set()
        for thread in threads:
            thread.join()
        assert store.quiesce_maintenance()
        assert errors == []
        store.close()
