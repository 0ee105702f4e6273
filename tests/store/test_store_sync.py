"""The opt-in ``sync=True`` durability knob (fsync on rollover/close,
manifest fsync on snapshot save)."""

from __future__ import annotations

import os

import pytest

from repro.config import HDKParameters
from repro.corpus.synthetic import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.engine.service import SearchService
from repro.index.postings import Posting, PostingList
from repro.store.segment import (
    STATUS_DK,
    SegmentWriter,
    SegmentRecord,
    scan_segment,
)
from repro.store.store import SegmentStore


@pytest.fixture
def fsync_calls(monkeypatch):
    """Count os.fsync calls without suppressing them."""
    calls: list[int] = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls


def record_for(i: int) -> SegmentRecord:
    postings = PostingList([Posting(doc_id=i, tf=1)])
    return SegmentRecord.from_postings(
        frozenset({f"term-{i:04d}"}), postings, 1, STATUS_DK
    )


class TestSegmentWriter:
    def test_sync_close_fsyncs_once(self, tmp_path, fsync_calls):
        writer = SegmentWriter(tmp_path / "seg.seg", sync=True)
        writer.append(record_for(1))
        writer.close()
        assert len(fsync_calls) == 1
        assert not scan_segment(tmp_path / "seg.seg").truncated

    def test_default_never_fsyncs(self, tmp_path, fsync_calls):
        writer = SegmentWriter(tmp_path / "seg.seg")
        writer.append(record_for(1))
        writer.close()
        assert fsync_calls == []


class TestSegmentStore:
    def test_rollover_and_close_fsync_every_segment(
        self, tmp_path, fsync_calls
    ):
        store = SegmentStore(
            tmp_path, cache_bytes=0, segment_max_bytes=256, sync=True
        )
        for i in range(40):
            record = record_for(i)
            store.put_record(record)
        store.close()
        segments = len(list(tmp_path.glob("segment-*.seg")))
        assert segments > 1  # rollover actually happened
        # One fsync per retired segment plus one for the active close.
        assert len(fsync_calls) == segments
        # Reopen: every record survived intact.
        reopened = SegmentStore(tmp_path, cache_bytes=0)
        assert len(reopened) == 40
        reopened.close()

    def test_sync_off_by_default(self, tmp_path, fsync_calls):
        store = SegmentStore(
            tmp_path, cache_bytes=0, segment_max_bytes=256
        )
        for i in range(40):
            store.put_record(record_for(i))
        store.close()
        assert fsync_calls == []

    def test_stats_report_the_knob(self, tmp_path):
        store = SegmentStore(tmp_path, sync=True)
        assert store.stats()["sync"] is True
        store.close()


class TestSyncCompaction:
    def _make_dead_bytes(self, store: SegmentStore, n: int = 12) -> None:
        for i in range(n):
            store.put_record(record_for(i))
        for i in range(n):  # supersede everything: 50% dead
            store.put_record(record_for(i))

    @pytest.mark.concurrency
    @pytest.mark.parametrize("run", ["compact", "maybe_compact"])
    def test_background_compaction_fsyncs_lineage_sidecar(
        self, tmp_path, fsync_calls, run
    ):
        """``sync=True``: the staged output, its ``replaces_up_to``
        sidecar, and the directory are all fsynced before the sources
        are unlinked — whether :meth:`compact` runs the rewrite in the
        caller's thread or the threshold wakes the maintenance thread."""
        from repro.store.segindex import load_segment_index, sidecar_path

        store = SegmentStore(
            tmp_path,
            cache_bytes=0,
            sync=True,
            compact_dead_ratio=1.0,
        )
        self._make_dead_bytes(store)
        fsync_calls.clear()
        if run == "compact":
            store.compact()
        else:
            store.compact_dead_ratio = 0.3
            assert store.maybe_compact()
            assert store.quiesce_maintenance()
        stats = store.stats()
        assert stats["maintenance_errors"] == 0
        assert stats["compactions"] == 1
        # At least: output segment close, sidecar content, directory
        # before the segment rename, directory before source unlink.
        assert len(fsync_calls) >= 4
        lineages = [
            load_segment_index(sidecar_path(seg), seg.stat().st_size)
            for seg in sorted(tmp_path.glob("segment-*.seg"))
        ]
        assert any(
            index is not None and index.replaces_up_to > 0
            for index in lineages
        )
        store.close()
        reopened = SegmentStore(tmp_path, cache_bytes=0)
        assert len(reopened) == 12
        reopened.close()


class TestServiceSave:
    @pytest.fixture(scope="class")
    def collection(self):
        config = SyntheticCorpusConfig(
            vocabulary_size=300, mean_doc_length=30, num_topics=5
        )
        return SyntheticCorpusGenerator(config, seed=3).generate(80)

    @pytest.fixture(scope="class")
    def params(self):
        return HDKParameters(
            df_max=6, window_size=6, s_max=3, ff=2_000, fr=2
        )

    def test_save_sync_fsyncs_manifest_and_segments(
        self, collection, params, tmp_path, fsync_calls
    ):
        service = SearchService.build(
            collection, num_peers=3, backend="hdk", params=params
        )
        service.index()
        service.save(tmp_path / "snap", sync=True)
        assert len(fsync_calls) >= 2  # >= 1 segment + the manifest
        loaded = SearchService.load(tmp_path / "snap")
        assert (
            loaded.stored_postings_total()
            == service.stored_postings_total()
        )

    def test_save_inherits_service_sync_default(
        self, collection, params, tmp_path, fsync_calls
    ):
        service = SearchService.build(
            collection,
            num_peers=3,
            backend="hdk",
            params=params,
            sync=True,
        )
        service.index()
        service.save(tmp_path / "snap")
        assert len(fsync_calls) >= 2

    def test_save_sync_off_never_fsyncs(
        self, collection, params, tmp_path, fsync_calls
    ):
        service = SearchService.build(
            collection, num_peers=3, backend="hdk", params=params
        )
        service.index()
        service.save(tmp_path / "snap")
        assert fsync_calls == []

    def test_disk_backend_threads_sync_to_its_store(
        self, collection, params, tmp_path
    ):
        service = SearchService.build(
            collection,
            num_peers=3,
            backend="hdk_disk",
            params=params,
            store_dir=tmp_path / "store",
            memory_budget_bytes=350,
            sync=True,
        )
        assert service.backend.global_index.store.sync is True
