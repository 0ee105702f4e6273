"""The disk-backed segmented key→posting store — generation 2, a
mini-LSM.

:class:`SegmentStore` layers four structures:

- a **write-ahead log** (:mod:`repro.store.wal`, opt-in via ``wal=True``)
  that makes every acknowledged write crash-durable the moment it
  returns;
- an in-memory **memtable** (:mod:`repro.store.memtable`) absorbing
  WAL-logged writes until its encoded size passes ``memtable_bytes``,
  at which point it is flushed into a fresh sealed segment and the WAL
  is dropped;
- append-only **segment files** (:mod:`repro.store.segment`), each
  sealed one carrying a crc-protected sidecar offset index
  (:mod:`repro.store.segindex`) so reopening a directory is O(segments)
  metadata reads instead of a checksum-scan of every record — record
  bodies are still crc-verified lazily on first read, and segments
  without a valid sidecar (gen-1 snapshots, torn tails) fall back to
  the scan transparently;
- one **compactor** that rewrites the live record set and drops
  superseded/tombstoned records without blocking readers: outputs are
  staged as ``.seg.tmp``, committed by atomic rename plus a brief
  directory swap under the lock, and superseded segments are unlinked
  immediately but their file descriptors retired only once no pinned
  reader still holds them.  Crossing the dead-byte threshold wakes it
  on a :class:`MaintenanceWorker` thread; :meth:`SegmentStore.compact`
  runs the same rewrite in the caller's thread.

Only an *offset directory* — per-key metadata plus the latest record's
location (a segment, or the memtable) — is held in memory, fronted by a
bounded LRU :class:`~repro.store.blockcache.BlockCache` of decoded
lists, budgeted in encoded bytes.

Crash recovery composes the layers: orphaned temp files from a killed
compaction are deleted, segments are replayed in ``(replaces_up_to,
id)`` order (so a half-committed compaction can never shadow a newer
concurrent flush), torn tails are skipped, and surviving WAL files are
replayed idempotently into the memtable — reopening recovers exactly
the last durable prefix.  The ordering argument leans on the commit
protocol, not luck: a compaction output's lineage sidecar is renamed
into place *before* the segment itself (and fsynced under ``sync``), so
a visible output always carries its ``replaces_up_to``; a sidecar whose
segment never committed is deleted on reopen.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

from ..errors import IndexError_, StoreError
from ..index.codec import decode_posting_list
from ..index.postings import PostingList
from ..obs.trace import NOOP_SPAN, get_tracer
from .blockcache import BlockCache, BlockCacheStats
from .maintenance import MaintenanceWorker
from .memtable import MEMTABLE_ID, Memtable
from .segindex import (
    IndexedRecord,
    SegmentColumns,
    SegmentIndex,
    load_segment_index,
    sidecar_path,
    write_segment_index,
)
from .segment import (
    MAGIC,
    STATUS_TOMBSTONE,
    SegmentRecord,
    SegmentWriter,
    encode_record_body,
    framed_length,
    fsync_dir,
    key_from_canonical,
    key_to_canonical,
    read_payload_pread,
    scan_segment,
)
from .wal import WalWriter, scan_wal, wal_ids, wal_path

__all__ = ["SegmentStore", "StoredMeta", "DEFAULT_CACHE_BYTES",
           "DEFAULT_MEMTABLE_BYTES"]

_SEGMENT_PATTERN = re.compile(r"^segment-(\d{6})\.seg$")

#: Default segment rollover size; small enough that compaction can drop
#: whole files of dead records at repro scale.
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

#: Default decoded-block cache budget, in encoded bytes.
DEFAULT_CACHE_BYTES = 1 * 1024 * 1024

#: Default memtable flush threshold, in encoded bytes.
DEFAULT_MEMTABLE_BYTES = 1 * 1024 * 1024


def _replace_file(source: Path, target: Path) -> None:
    """Atomic rename — the commit point of staged compaction outputs.
    A module-level seam so fault-injection tests can kill a compaction
    mid-swap."""
    os.replace(source, target)


class StoredMeta(NamedTuple):
    """Directory metadata of one live key (everything but the postings).

    A NamedTuple: reopen builds one per stored key, and tuple
    construction keeps the sidecar cold-start path cheap."""

    global_df: int
    status_code: int
    contributors: tuple[int, ...]
    posting_count: int


class _DirEntry(NamedTuple):
    segment_id: int  # MEMTABLE_ID when the record is memtable-resident
    offset: int      # memtable residents: the admission sequence number
    length: int      # encoded frame length (either way)
    meta: StoredMeta


class SegmentStore:
    """Mini-LSM store with an in-memory offset directory.

    Args:
        directory: where segments/WAL live; ``None`` creates a private
            temporary directory that lives as long as the store object.
        cache_bytes: budget of the decoded-block LRU cache in encoded
            bytes (``0`` disables it).
        segment_max_bytes: active segment rollover size.
        compact_dead_ratio: trigger compaction when at least this
            fraction of on-disk record bytes is superseded/tombstoned
            (checked after every write; ``1.0`` disables auto-compaction).
        sync: opt-in durability — fsync every segment file when it is
            closed and every WAL append, so acknowledged writes survive
            power loss, not just process kills.  Advisory sidecar
            indexes are not fsynced (losing one only costs a scan), but
            a compaction output's lineage sidecar is — its
            ``replaces_up_to`` is recovery-ordering correctness, not a
            shortcut — and compaction makes its rewritten segments
            durable before unlinking the sources they replace.
        wal: log every write to a WAL and buffer it in the memtable
            (crash-durable incremental writes); off by default — bulk
            writers (snapshot saves) append straight to segments.
        memtable_bytes: encoded-byte flush threshold of the memtable.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        compact_dead_ratio: float = 0.5,
        sync: bool = False,
        wal: bool = False,
        memtable_bytes: int = DEFAULT_MEMTABLE_BYTES,
    ) -> None:
        if segment_max_bytes < 1:
            raise StoreError(
                f"segment_max_bytes must be >= 1, got {segment_max_bytes}"
            )
        if not 0.0 < compact_dead_ratio <= 1.0:
            raise StoreError(
                "compact_dead_ratio must be in (0, 1], got "
                f"{compact_dead_ratio}"
            )
        if memtable_bytes < 0:
            raise StoreError(
                f"memtable_bytes must be >= 0, got {memtable_bytes}"
            )
        # Built first: a bad budget must fail before a directory exists.
        self.cache = BlockCache(cache_bytes)
        # One reentrant lock serializes the directory, memtable, writer,
        # reader table, and accounting.  Disk I/O leaves the lock: reads
        # pread through pinned descriptors, compaction scans and stages
        # outside it and only re-enters for the commit swap.
        self._lock = threading.RLock()
        self._tmp: tempfile.TemporaryDirectory | None = None
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-store-")
            directory = self._tmp.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.compact_dead_ratio = compact_dead_ratio
        self.sync = sync
        self.wal_enabled = bool(wal)
        self.memtable_bytes_limit = memtable_bytes
        self.memtable = Memtable()
        # The offset directory is keyed by the *canonical byte form* of
        # each term-set key (repro.store.segment.key_to_canonical, the
        # same rule overlay hashing uses).  API-level frozenset keys are
        # encoded at the method boundary; on the sidecar reopen path the
        # keys arrive as ready-made byte slices and no term-set is ever
        # materialized — that is most of the generation-2 cold-start win.
        self._dir: dict[bytes, _DirEntry] = {}
        self._live_bytes = 0
        #: Valid record bytes per on-disk segment (dead ratio is derived:
        #: total - live).
        self._seg_bytes: dict[int, int] = {}
        self._total_record_bytes = 0
        self._compactions = 0
        self._flushes = 0
        self._truncated_tails = 0
        self._wal_truncated_tails = 0
        self._wal_replayed = 0
        self._sidecar_reopens = 0
        self._scan_reopens = 0
        self._writer: SegmentWriter | None = None
        #: Every record appended to the current active segment, in file
        #: order — the sidecar written when it seals.
        self._active_records: list[IndexedRecord] = []
        self._active_id: int | None = None
        self._next_id = 1
        self._wal: WalWriter | None = None
        self._next_wal_id = 1
        #: Open read handles (one per segment read from), pin counts of
        #: in-flight preads, and segments unlinked-but-held by a pin.
        self._readers: dict[int, BinaryIO] = {}
        self._reader_pins: dict[int, int] = {}
        self._retired: set[int] = set()
        #: Serializes compactions (:meth:`compact` vs. the maintenance
        #: thread); never acquired while holding ``_lock``.
        self._compact_mutex = threading.Lock()
        #: Its thread starts on the first wake, so a store that never
        #: crosses its dead-byte threshold runs none.
        self._maintenance = MaintenanceWorker(self._compact)
        self._recover()

    # -- startup / recovery ------------------------------------------------------

    def _segment_path(self, segment_id: int) -> Path:
        return self.directory / f"segment-{segment_id:06d}.seg"

    def _segment_ids(self) -> list[int]:
        ids = []
        for path in self.directory.iterdir():
            match = _SEGMENT_PATTERN.match(path.name)
            if match:
                ids.append(int(match.group(1)))
        return sorted(ids)

    def _recover(self) -> None:
        """Rebuild the offset directory from disk: sidecars where valid,
        scans where not, then replay any surviving WAL."""
        # A killed compaction leaves staged outputs (*.tmp) that were
        # never renamed into place, and possibly a sidecar whose segment
        # never committed; neither was ever visible to the directory.
        # missing_ok: several processes may open one shared snapshot
        # directory at once (the serving worker pool), and a sibling's
        # sidecar self-heal (mkstemp + rename) or its own cleanup can
        # win the race between our glob and our unlink.
        for leftover in self.directory.glob("*.tmp"):
            leftover.unlink(missing_ok=True)
        for idx in self.directory.glob("segment-*.idx"):
            if not idx.with_suffix(".seg").exists():
                idx.unlink(missing_ok=True)
        ids = self._segment_ids()
        loaded: list[tuple[int, SegmentIndex | None]] = []
        for segment_id in ids:
            path = self._segment_path(segment_id)
            index = load_segment_index(
                sidecar_path(path), path.stat().st_size
            )
            loaded.append((segment_id, index))
        # Replay order: compaction outputs carry the highest source id
        # they replace and must apply right after those sources — a
        # crash between output rename and source unlink must not let
        # compacted (older) records shadow a flush that raced the
        # compaction with newer data.
        loaded.sort(
            key=lambda item: (
                item[1].replaces_up_to
                if item[1] is not None and item[1].replaces_up_to
                else item[0],
                item[0],
            )
        )
        for segment_id, index in loaded:
            if index is not None:
                assert index.columns is not None
                self._bulk_apply_columns(segment_id, index.columns)
                self._account_segment(
                    segment_id, index.data_len - len(MAGIC)
                )
                self._sidecar_reopens += 1
                continue
            scan = scan_segment(self._segment_path(segment_id))
            if scan.truncated:
                self._truncated_tails += 1
            records = [
                IndexedRecord.from_record(offset, length, record)
                for offset, length, record in scan.records
            ]
            for rec in records:
                self._apply_indexed(segment_id, rec)
            self._account_segment(
                segment_id, max(0, scan.valid_bytes - len(MAGIC))
            )
            self._scan_reopens += 1
            self._heal_sidecar(segment_id, scan, records)
        # Always start fresh ids: never append after a possibly-torn
        # tail, and never collide with a crashed compaction's outputs.
        self._next_id = (ids[-1] + 1) if ids else 1
        # WAL replay — newest-last across files, last write wins, and
        # re-applying records that already made it into a segment is
        # idempotent (the directory is keyed by key, the memtable copy
        # simply supersedes the identical segment copy).
        existing_wals = wal_ids(self.directory)
        tracer = get_tracer()
        if existing_wals and tracer.active:
            with tracer.span(
                "store.wal_replay", wal_files=len(existing_wals)
            ) as span:
                self._replay_wals(existing_wals)
                span.set_attr("records", self._wal_replayed)
        else:
            self._replay_wals(existing_wals)
        self._next_wal_id = (existing_wals[-1] + 1) if existing_wals else 1
        if existing_wals and not self.wal_enabled:
            # A WAL-less open of a WAL-ful directory (legacy readers,
            # snapshot tooling) must not strand durable records in a
            # log it will never rotate: checkpoint them into segments
            # immediately.
            self._flush_memtable_locked()

    def _replay_wals(self, existing_wals: list[int]) -> None:
        for wal_id in existing_wals:
            scan = scan_wal(wal_path(self.directory, wal_id))
            if scan.truncated:
                self._wal_truncated_tails += 1
            for record in scan.records:
                self._memtable_insert(record)
                self._wal_replayed += 1

    def _account_segment(self, segment_id: int, record_bytes: int) -> None:
        self._seg_bytes[segment_id] = record_bytes
        self._total_record_bytes += record_bytes

    def _bulk_apply_columns(
        self, segment_id: int, cols: SegmentColumns
    ) -> None:
        """Recovery fast path: :meth:`_apply_indexed` inlined over one
        whole sidecar-indexed segment, fed straight from the decoded
        sidecar columns (no per-record object is ever built).  Correct
        only while the memtable is empty (recovery replays the WAL
        *after* all segments), which lets the loop skip the
        memtable-resident accounting branch and hoist every attribute
        lookup — directory rebuild cost is the cold-start headline, so
        this loop is deliberately flat."""
        directory = self._dir
        pop = directory.pop
        entry_of = _DirEntry
        meta_of = StoredMeta
        tombstone = STATUS_TOMBSTONE
        live = self._live_bytes
        for key, offset, length, global_df, status_code, contributors, (
            posting_count
        ) in zip(
            cols.keys,
            cols.offsets,
            cols.lengths,
            cols.global_dfs,
            cols.status_codes,
            cols.contributors,
            cols.posting_counts,
        ):
            previous = pop(key, None)
            if previous is not None:
                live -= previous.length
            if status_code == tombstone:
                continue
            directory[key] = entry_of(
                segment_id,
                offset,
                length,
                meta_of(
                    global_df, status_code, contributors, posting_count
                ),
            )
            live += length
        self._live_bytes = live

    def _apply_indexed(self, segment_id: int, rec: IndexedRecord) -> None:
        previous = self._dir.pop(rec.key, None)
        if previous is not None and previous.segment_id != MEMTABLE_ID:
            self._live_bytes -= previous.length
        if rec.is_tombstone:
            return
        self._dir[rec.key] = _DirEntry(
            segment_id=segment_id,
            offset=rec.offset,
            length=rec.length,
            meta=StoredMeta(
                global_df=rec.global_df,
                status_code=rec.status_code,
                contributors=rec.contributors,
                posting_count=rec.posting_count,
            ),
        )
        self._live_bytes += rec.length

    def _heal_sidecar(
        self, segment_id: int, scan, records: list[IndexedRecord]
    ) -> None:
        """After a scan fallback, persist the sidecar the segment was
        missing (gen-1 segments index themselves on first reopen).
        Best-effort: torn segments stay sidecar-less (their file size
        exceeds the valid prefix, so a sidecar would be stale by
        construction), and read-only directories are tolerated."""
        path = self._segment_path(segment_id)
        if scan.truncated or path.stat().st_size != scan.valid_bytes:
            return
        try:
            write_segment_index(
                sidecar_path(path),
                SegmentIndex(
                    data_len=scan.valid_bytes,
                    replaces_up_to=0,
                    records=records,
                ),
            )
        except OSError:
            pass

    # -- write path --------------------------------------------------------------

    def _allocate_id(self) -> int:
        segment_id = self._next_id
        self._next_id += 1
        return segment_id

    def _active_writer(self) -> SegmentWriter:
        if (
            self._writer is not None
            and self._writer.offset >= self.segment_max_bytes
        ):
            self._seal_active_locked()
            self._active_id = None
        if self._writer is None:
            if self._active_id is None:
                self._active_id = self._allocate_id()
                self._active_records = []
            self._writer = SegmentWriter(
                self._segment_path(self._active_id), sync=self.sync
            )
        return self._writer

    def _seal_active_locked(self) -> None:
        """Close the active segment and persist its sidecar.  The id is
        kept (a later write may reopen and append; the next seal then
        rewrites the sidecar over the fuller record list)."""
        if self._writer is None:
            return
        data_len = self._writer.offset
        self._writer.close()
        self._writer = None
        assert self._active_id is not None
        try:
            write_segment_index(
                sidecar_path(self._segment_path(self._active_id)),
                SegmentIndex(
                    data_len=data_len,
                    replaces_up_to=0,
                    records=list(self._active_records),
                ),
            )
        except OSError:
            pass

    def _append(self, record: SegmentRecord) -> None:
        writer = self._active_writer()
        offset, length = writer.append(record)
        assert self._active_id is not None
        self._seg_bytes[self._active_id] = (
            self._seg_bytes.get(self._active_id, 0) + length
        )
        self._total_record_bytes += length
        indexed = IndexedRecord.from_record(offset, length, record)
        self._active_records.append(indexed)
        self._apply_indexed(self._active_id, indexed)

    def _active_wal(self) -> WalWriter:
        if self._wal is None:
            self._wal = WalWriter(
                wal_path(self.directory, self._next_wal_id),
                sync=self.sync,
            )
            self._next_wal_id += 1
        return self._wal

    def _memtable_insert(
        self, record: SegmentRecord, length: int | None = None
    ) -> int:
        if length is None:
            length = framed_length(len(encode_record_body(record)))
        seq = self.memtable.put(record, length)
        canonical = key_to_canonical(record.key)
        previous = self._dir.pop(canonical, None)
        if previous is not None and previous.segment_id != MEMTABLE_ID:
            self._live_bytes -= previous.length
        if not record.is_tombstone:
            self._dir[canonical] = _DirEntry(
                segment_id=MEMTABLE_ID,
                offset=seq,
                length=length,
                meta=StoredMeta(
                    global_df=record.global_df,
                    status_code=record.status_code,
                    contributors=record.contributors,
                    posting_count=record.posting_count(),
                ),
            )
        return seq

    def _insert(self, record: SegmentRecord) -> None:
        """WAL-aware single-record write (callers hold the lock)."""
        if self.wal_enabled:
            body = encode_record_body(record)
            self._active_wal().append_body(body)
            self._memtable_insert(record, framed_length(len(body)))
            if self.memtable.data_bytes > self.memtable_bytes_limit:
                self._flush_memtable_locked()
        else:
            self._append(record)

    def put(
        self,
        key: frozenset[str],
        postings: PostingList,
        global_df: int,
        status_code: int,
        contributors: tuple[int, ...] = (),
    ) -> None:
        """Write (or supersede) the record for ``key``."""
        canonical = key_to_canonical(key)
        with self._lock:
            previous = self._dir.get(canonical)
            if previous is not None:
                # The superseded record's block is now unreachable but
                # would keep consuming the cache's byte budget.
                self.cache.invalidate(
                    (previous.segment_id, previous.offset)
                )
            self.put_record(
                SegmentRecord.from_postings(
                    key, postings, global_df, status_code, contributors
                )
            )
            # Write-through: the freshly encoded list is the hottest
            # block.
            entry = self._dir[canonical]
            self.cache.put(
                (entry.segment_id, entry.offset),
                postings,
                nbytes=entry.length,
            )

    def put_record(self, record: SegmentRecord) -> None:
        """Write an already-encoded record (raw snapshot copies)."""
        if record.is_tombstone:
            raise StoreError("use delete() to write tombstones")
        with self._lock:
            self._insert(record)
            self.maybe_compact()

    def delete(self, key: frozenset[str]) -> None:
        """Tombstone ``key``; a no-op when the key is not stored."""
        with self._lock:
            entry = self._dir.get(key_to_canonical(key))
            if entry is None:
                return
            self.cache.invalidate((entry.segment_id, entry.offset))
            self._insert(SegmentRecord.tombstone(key))
            self.maybe_compact()

    # -- memtable flush ----------------------------------------------------------

    def _flush_memtable_locked(self) -> None:
        """Write the memtable into sealed segments, then drop the WAL.

        Ordering is the durability argument: the flushed segment is
        sealed (fsynced when ``sync``) *before* any WAL file is deleted,
        so every crash window either keeps the WAL (replay recovers) or
        has the segment durable already."""
        tracer = get_tracer()
        with (
            tracer.span(
                "store.memtable_flush",
                records=len(self.memtable),
                bytes=self.memtable.data_bytes,
            )
            if tracer.active
            else NOOP_SPAN
        ):
            stale_blocks = [
                (MEMTABLE_ID, seq) for seq in self.memtable.seqs()
            ]
            if len(self.memtable) > 0:
                for record in self.memtable.records_sorted():
                    self._append(record)
                self._seal_active_locked()
                self._active_id = None
                self._flushes += 1
                if self.sync:
                    # The sealed segment's directory entry must be
                    # durable before the WAL that covers it disappears
                    # — fsyncing the file alone does not persist its
                    # dirent.
                    fsync_dir(self.directory)
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            for wal_id in wal_ids(self.directory):
                wal_path(self.directory, wal_id).unlink()
            self.memtable.clear()
            for block_id in stale_blocks:
                self.cache.invalidate(block_id)

    def checkpoint(self) -> None:
        """Make the on-disk segments self-contained *now*: flush the
        memtable, drop the WAL, and seal the active segment (with its
        sidecar) so a reopen needs neither replay nor scan."""
        with self._lock:
            self._flush_memtable_locked()
            self._seal_active_locked()

    # -- read path ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._dir)

    def __contains__(self, key: frozenset[str]) -> bool:
        with self._lock:
            return key_to_canonical(key) in self._dir

    def keys(self) -> Iterator[frozenset[str]]:
        with self._lock:
            canonicals = list(self._dir)
        return iter([key_from_canonical(kb) for kb in canonicals])

    def items(self) -> list[tuple[frozenset[str], StoredMeta]]:
        """Snapshot of ``(key, metadata)`` pairs — one canonical decode
        per key, cheaper than ``keys()`` plus a ``meta()`` re-encode
        when walking the whole directory (snapshot population)."""
        with self._lock:
            pairs = [
                (canonical, entry.meta)
                for canonical, entry in self._dir.items()
            ]
        return [
            (key_from_canonical(canonical), meta)
            for canonical, meta in pairs
        ]

    def meta(self, key: frozenset[str]) -> StoredMeta | None:
        """Directory metadata of ``key`` (no disk access), or None."""
        with self._lock:
            entry = self._dir.get(key_to_canonical(key))
            return entry.meta if entry is not None else None

    def _reader(self, segment_id: int) -> BinaryIO:
        handle = self._readers.get(segment_id)
        if handle is None:
            handle = open(self._segment_path(segment_id), "rb")
            self._readers[segment_id] = handle
        return handle

    def _pin_reader(self, segment_id: int) -> int:
        """Open (or reuse) the segment's read handle and pin it; returns
        the file descriptor for lock-free pread.  Callers hold the lock
        and must unpin when the pread completes."""
        handle = self._reader(segment_id)
        self._reader_pins[segment_id] = (
            self._reader_pins.get(segment_id, 0) + 1
        )
        return handle.fileno()

    def _unpin_reader(self, segment_id: int) -> None:
        pins = self._reader_pins.get(segment_id, 0) - 1
        if pins > 0:
            self._reader_pins[segment_id] = pins
            return
        self._reader_pins.pop(segment_id, None)
        if segment_id in self._retired:
            # Last reader out closes the descriptor of a compacted-away
            # segment; the file itself was already unlinked.
            self._retired.discard(segment_id)
            handle = self._readers.pop(segment_id, None)
            if handle is not None:
                handle.close()

    def _retire_reader(self, segment_id: int) -> None:
        """A segment was removed from the directory: close its handle if
        no pread is in flight, else defer to the last unpin."""
        if self._reader_pins.get(segment_id, 0) > 0:
            self._retired.add(segment_id)
            return
        handle = self._readers.pop(segment_id, None)
        if handle is not None:
            handle.close()

    def _close_readers(self) -> None:
        for segment_id in list(self._readers):
            self._retire_reader(segment_id)

    def get_postings(self, key: frozenset[str]) -> PostingList | None:
        """Decode the stored posting list of ``key`` (through the block
        cache), or None when the key is absent."""
        canonical = key_to_canonical(key)
        with self._lock:
            entry = self._dir.get(canonical)
        if entry is None:
            return None
        # Probe the block cache outside the store lock (it has its own):
        # cached reads must not queue behind a concurrent cold read's
        # disk I/O.  Block ids (segment ids and memtable sequence
        # numbers) are never reused, so a stale id can only miss.
        cached = self.cache.get((entry.segment_id, entry.offset))
        if cached is not None:
            return cached
        read = self._read_payload(key, canonical)
        if read is None:
            return None
        entry, payload = read
        block_id = (entry.segment_id, entry.offset)
        # Varint decode outside the lock too.  A racing duplicate fill
        # of the same block id is idempotent (same bytes).
        try:
            postings = (
                decode_posting_list(payload) if payload else PostingList()
            )
        except IndexError_ as exc:
            raise StoreError(
                f"{self._segment_path(entry.segment_id)}@{entry.offset}: "
                f"malformed posting payload: {exc}"
            ) from exc
        with self._lock:
            # Fill only if the record has not moved since the read — a
            # flush or compaction retires the old block id forever, and
            # caching under it would strand a dead resident.
            entry = self._dir.get(canonical)
            if (
                entry is not None
                and (entry.segment_id, entry.offset) == block_id
            ):
                self.cache.put(block_id, postings, nbytes=entry.length)
        return postings

    def get_payload(self, key: frozenset[str]) -> bytes | None:
        """The encoded posting payload of ``key`` (no decode, no block
        cache), or None when the key is absent — what a snapshot save
        copies segment-to-segment."""
        read = self._read_payload(key, key_to_canonical(key))
        return read[1] if read is not None else None

    def _read_payload(
        self, key: frozenset[str], canonical: bytes
    ) -> tuple[_DirEntry, bytes] | None:
        """Locate → pin → pread: the one read of a stored record.

        Returns the directory entry it read and that record's posting
        payload, or None when the key is absent.  Re-locating under the
        lock sees any flush or compaction that moved the record since
        the caller last looked.  A memtable resident returns its
        record's payload."""
        with self._lock:
            entry = self._dir.get(canonical)
            if entry is None:
                return None
            segment_id = entry.segment_id
            if segment_id == MEMTABLE_ID:
                record = self.memtable.get(key)
                assert record is not None
                return entry, record.payload
            if segment_id == self._active_id and self._writer is not None:
                # The active segment's bytes may still sit in the
                # writer's buffer.
                self._writer.flush()
            fileno = self._pin_reader(segment_id)

        def label() -> str:
            # A path join per cold read would cost more than the read's
            # crc check, so the name is only built for an error.
            return str(self._segment_path(segment_id))

        # pread outside the lock: positional reads don't share seek
        # state, and the pin keeps the descriptor alive across a
        # concurrent compaction's retirement.
        try:
            tracer = get_tracer()
            with (
                tracer.span(
                    "store.segment_read",
                    segment=segment_id,
                    offset=entry.offset,
                    length=entry.length,
                )
                if tracer.active
                else NOOP_SPAN
            ):
                payload = read_payload_pread(
                    fileno, entry.offset, entry.length, label
                )
        finally:
            with self._lock:
                self._unpin_reader(segment_id)
        return entry, payload

    # -- compaction --------------------------------------------------------------

    @property
    def dead_bytes(self) -> int:
        """On-disk record bytes no longer reachable from the directory
        (superseded copies, tombstones)."""
        return max(0, self._total_record_bytes - self._live_bytes)

    @property
    def dead_ratio(self) -> float:
        total = self._total_record_bytes
        return self.dead_bytes / total if total else 0.0

    def _over_dead_threshold(self) -> bool:
        return (
            self.compact_dead_ratio < 1.0
            and self.dead_bytes > 0
            and self.dead_ratio >= self.compact_dead_ratio
        )

    def maybe_compact(self) -> bool:
        """Wake the maintenance thread to compact when the dead-byte
        ratio passes the threshold."""
        with self._lock:
            if not self._over_dead_threshold():
                return False
            self._maintenance.wake()
            return True

    def compact(self) -> None:
        """Checkpoint, then rewrite the live record set in the caller's
        thread — the maintenance thread's rewrite, run now and whatever
        the dead-byte ratio."""
        self.checkpoint()
        self._compact(force=True)

    def _compact(self, force: bool = False) -> None:
        """The one compaction: rewrite the live records of every sealed
        segment into fresh segments, dropping superseded records and
        tombstones.  Sources are snapshotted under the lock, scanned and
        staged outside it, and swapped in under it again.  Readers are
        never blocked — they keep serving from the sources until the
        swap, and pinned descriptors outlive the unlink.  Unforced (the
        maintenance thread's run) it first re-checks the threshold."""
        tracer = get_tracer()
        with self._compact_mutex, (
            tracer.span("store.compaction", phase="maintenance")
            if tracer.active
            else NOOP_SPAN
        ) as span:
            with self._lock:
                if not (force or self._over_dead_threshold()):
                    return
                self._seal_active_locked()
                self._active_id = None
                source_ids = sorted(self._seg_bytes)
                live_at = {
                    (entry.segment_id, entry.offset): key
                    for key, entry in self._dir.items()
                    if entry.segment_id != MEMTABLE_ID
                }
            if not source_ids:
                return
            # Scan sources outside the lock: they are sealed and
            # immutable; concurrent writes land in the new active
            # segment or the memtable.  Each survivor keeps the block id
            # it was read from: the swap moves only unmoved records.
            survivors: dict[bytes, tuple[SegmentRecord, tuple]] = {}
            for segment_id in source_ids:
                scan = scan_segment(self._segment_path(segment_id))
                for offset, _, record in scan.records:
                    key = live_at.get((segment_id, offset))
                    if key is not None:
                        survivors[key] = (record, (segment_id, offset))
            # Deterministic rewrite order (sorted term lists), so
            # compacted segment bytes are reproducible.
            outputs = self._stage_outputs(
                [
                    record
                    for record, _ in sorted(
                        survivors.values(),
                        key=lambda item: sorted(item[0].key),
                    )
                ],
                replaces_up_to=max(source_ids),
            )
            # Swap the directory and retire the sources.
            with self._lock:
                for segment_id, writer, records in outputs:
                    self._account_segment(
                        segment_id, writer.offset - len(MAGIC)
                    )
                    for rec in records:
                        entry = self._dir.get(rec.key)
                        source = survivors[rec.key][1]
                        if entry is not None and (
                            entry.segment_id,
                            entry.offset,
                        ) == source:
                            self.cache.invalidate(source)
                            self._dir[rec.key] = _DirEntry(
                                segment_id=segment_id,
                                offset=rec.offset,
                                length=rec.length,
                                meta=entry.meta,
                            )
                        # else: superseded or deleted mid-compaction —
                        # the output copy is dead weight until the next
                        # pass (total/live accounting already says so).
                for segment_id in source_ids:
                    self._total_record_bytes -= self._seg_bytes.pop(
                        segment_id, 0
                    )
                    self._retire_reader(segment_id)
                    self._segment_path(segment_id).unlink()
                    sidecar_path(self._segment_path(segment_id)).unlink(
                        missing_ok=True
                    )
                self._compactions += 1
            span.set_attr("compactions", self._compactions)

    def _stage_outputs(
        self, records: list[SegmentRecord], replaces_up_to: int
    ) -> list[tuple[int, SegmentWriter, list[IndexedRecord]]]:
        """Write ``records`` into fresh segments and commit each one;
        returns ``(segment id, closed writer, indexed records)`` per
        output.  If anything raises, every output of this run — staged
        ``.seg.tmp``, renamed ``.seg`` and sidecars — is unlinked before
        the error propagates: the sources were never touched and stay
        authoritative, whereas a committed output left outside the
        directory would be neither read nor unlinked by the next
        compaction and would replay after its sources on reopen."""
        outputs: list[tuple[int, SegmentWriter, list[IndexedRecord]]] = []
        try:
            # Stage outputs as .seg.tmp; rename is the commit point.
            for record in records:
                if (
                    not outputs
                    or outputs[-1][1].offset >= self.segment_max_bytes
                ):
                    if outputs:
                        outputs[-1][1].close()
                    with self._lock:
                        segment_id = self._allocate_id()
                    path = self._segment_path(segment_id)
                    outputs.append((
                        segment_id,
                        SegmentWriter(
                            path.with_suffix(".seg.tmp"), sync=self.sync
                        ),
                        [],
                    ))
                _, writer, indexed = outputs[-1]
                offset, length = writer.append(record)
                indexed.append(
                    IndexedRecord.from_record(offset, length, record)
                )
            if outputs:
                outputs[-1][1].close()
            # Commit each output: the lineage sidecar first, under its
            # final name, *then* the segment rename.  A scan-recovered
            # output would be ordered by its own (highest) id — after
            # any concurrent memtable flush — letting stale compacted
            # records shadow newer writes, so an output must never be
            # visible without its ``replaces_up_to``.  This ordering
            # guarantees that for process kills; under ``sync`` the
            # sidecar and the directory are also fsynced between the
            # two renames, extending the guarantee to power loss.  A
            # crash between the renames leaves an orphan sidecar that
            # recovery deletes (its segment never committed).
            for segment_id, writer, indexed in outputs:
                final = self._segment_path(segment_id)
                write_segment_index(
                    sidecar_path(final),
                    SegmentIndex(
                        data_len=writer.offset,
                        replaces_up_to=replaces_up_to,
                        records=indexed,
                    ),
                    sync=self.sync,
                )
                if self.sync:
                    fsync_dir(self.directory)
                _replace_file(final.with_suffix(".seg.tmp"), final)
            if outputs and self.sync:
                # Output renames durable before any source is unlinked:
                # power loss past this point must never cost the only
                # remaining copy of the rewritten live set.
                fsync_dir(self.directory)
        except BaseException:
            for segment_id, writer, _ in outputs:
                writer.close()
                final = self._segment_path(segment_id)
                for path in (
                    final.with_suffix(".seg.tmp"),
                    final,
                    sidecar_path(final),
                ):
                    path.unlink(missing_ok=True)
            if self.sync:
                fsync_dir(self.directory)
            raise
        return outputs

    def quiesce_maintenance(self, timeout: float | None = 10.0) -> bool:
        """Wait for any scheduled compaction to finish (tests and
        benchmarks use this for deterministic disk state)."""
        return self._maintenance.quiesce(timeout=timeout)

    # -- lifecycle / inspection --------------------------------------------------

    def flush(self) -> None:
        """Flush the active segment to the OS (WAL appends are already
        flushed per write)."""
        with self._lock:
            if self._writer is not None:
                self._writer.flush()

    def close(self) -> None:
        """Checkpoint and close every file handle (the store stays
        usable; reads reopen lazily)."""
        with self._lock:
            self._flush_memtable_locked()
            active_id = self._active_id
            self._seal_active_locked()
            # Keep the active id: a later write may append to the sealed
            # segment (its sidecar is rewritten at the next seal).
            self._active_id = active_id
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            self._close_readers()
        self._maintenance.stop()

    def stored_postings_total(self) -> int:
        """Total postings across live records (directory metadata only)."""
        with self._lock:
            return sum(e.meta.posting_count for e in self._dir.values())

    @property
    def cache_stats(self) -> BlockCacheStats:
        return self.cache.stats

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "directory": str(self.directory),
                "sync": self.sync,
                "keys": len(self._dir),
                "segments": len(self._segment_ids()),
                "live_bytes": self._live_bytes,
                "dead_bytes": self.dead_bytes,
                "dead_ratio": round(self.dead_ratio, 4),
                "compactions": self._compactions,
                "truncated_tails_skipped": self._truncated_tails,
                "cache_blocks": len(self.cache),
                "cache_postings": self.cache.held_postings,
                "cache_bytes": self.cache.held_bytes,
                "cache_hits": self.cache.stats.hits,
                "cache_misses": self.cache.stats.misses,
                "wal": self.wal_enabled,
                "wal_files": len(wal_ids(self.directory)),
                "wal_replayed_records": self._wal_replayed,
                "wal_truncated_tails_skipped": self._wal_truncated_tails,
                "memtable_keys": len(self.memtable),
                "memtable_bytes": self.memtable.data_bytes,
                "flushes": self._flushes,
                "sidecar_reopens": self._sidecar_reopens,
                "scan_reopens": self._scan_reopens,
                "background_compaction": True,
                "maintenance_runs": self._maintenance.runs,
                "maintenance_errors": self._maintenance.errors,
            }

    def __repr__(self) -> str:
        return (
            f"SegmentStore(dir={str(self.directory)!r}, "
            f"keys={len(self._dir)}, segments={len(self._segment_ids())})"
        )
