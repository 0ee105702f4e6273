"""Append-only segment files for the disk-backed key-index store.

A segment is a flat file of key→posting-list records:

- a 5-byte header (``RSEG`` + format version);
- records, back to back, each laid out as::

      [body_len varint][body][crc32(body), 4 bytes little-endian]

  where the body is the varint/delta encoding of one record: the key's
  canonical UTF-8 form, the entry metadata (global df, DK/NDK status,
  contributor overlay ids), and the posting-list payload produced by
  :func:`repro.index.codec.encode_posting_list`.

The layout is crash-safe by construction: a process killed mid-append
leaves a truncated or checksum-failing *tail*, and :func:`scan_segment`
detects it and returns only the valid record prefix — a torn write can
never be decoded as garbage postings.  Records for the same key are
superseded by later ones (last write wins across segments in id order);
tombstone records mark deletions until compaction drops them.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable

from ..errors import IndexError_, StoreError
from ..index.codec import (
    decode_posting_list,
    decode_varint,
    encode_posting_list,
    encode_varint,
)
from ..index.postings import PostingList
from ..net.node_id import canonical_term_set

__all__ = [
    "MAGIC",
    "STATUS_DK",
    "STATUS_NDK",
    "STATUS_TOMBSTONE",
    "SegmentRecord",
    "SegmentScan",
    "SegmentWriter",
    "decode_record_body",
    "encode_record",
    "encode_record_body",
    "framed_length",
    "fsync_dir",
    "fsync_file",
    "key_from_canonical",
    "key_to_canonical",
    "read_payload_pread",
    "read_record_at",
    "scan_segment",
]


def fsync_file(path: Path) -> None:
    """fsync an already-written file by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path) -> None:
    """Flush a directory's entries — makes renames/creates/unlinks in it
    durable (best effort: some platforms reject fsync on directory
    descriptors)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)

#: Segment file header: magic + one format-version byte.
MAGIC = b"RSEG\x01"

#: Status codes stored in record bodies (mirrors
#: :class:`repro.index.global_index.KeyStatus`, plus deletion markers).
STATUS_DK = 0
STATUS_NDK = 1
STATUS_TOMBSTONE = 2

_CRC_BYTES = 4
#: A varint never exceeds 10 bytes for the 63-bit values the codec allows.
_MAX_VARINT_BYTES = 10


def key_to_canonical(key: frozenset[str]) -> bytes:
    """Canonical byte form of a term-set key — the UTF-8 encoding of the
    same canonical string the network hashes into the id space (one
    shared rule in :func:`repro.net.node_id.canonical_term_set`)."""
    return canonical_term_set(key).encode("utf-8")


def key_from_canonical(data: bytes) -> frozenset[str]:
    """Inverse of :func:`key_to_canonical`."""
    return frozenset(data.decode("utf-8").split("\x1f"))


@dataclass(frozen=True)
class SegmentRecord:
    """One decoded segment record.

    Attributes:
        key: the term-set key.
        global_df: the entry's true global document frequency.
        status_code: ``STATUS_DK`` / ``STATUS_NDK`` / ``STATUS_TOMBSTONE``.
        contributors: overlay ids of the peers that inserted the key.
        payload: the encoded posting list (empty for tombstones).
    """

    key: frozenset[str]
    global_df: int
    status_code: int
    contributors: tuple[int, ...]
    payload: bytes

    def __post_init__(self) -> None:
        # Canonical contributor order: the codec delta-encodes them
        # ascending, so round-tripped records compare equal.
        object.__setattr__(
            self, "contributors", tuple(sorted(self.contributors))
        )

    @property
    def is_tombstone(self) -> bool:
        return self.status_code == STATUS_TOMBSTONE

    def posting_count(self) -> int:
        """Number of postings in the payload, read from its count prefix
        without decoding the list."""
        if not self.payload:
            return 0
        count, _ = decode_varint(self.payload, 0)
        return count

    def postings(self) -> PostingList:
        """Decode the payload into a :class:`PostingList`."""
        if not self.payload:
            return PostingList()
        return decode_posting_list(self.payload)

    @classmethod
    def from_postings(
        cls,
        key: frozenset[str],
        postings: PostingList,
        global_df: int,
        status_code: int,
        contributors: tuple[int, ...] = (),
    ) -> "SegmentRecord":
        return cls(
            key=key,
            global_df=global_df,
            status_code=status_code,
            contributors=contributors,
            payload=encode_posting_list(postings),
        )

    @classmethod
    def tombstone(cls, key: frozenset[str]) -> "SegmentRecord":
        return cls(
            key=key,
            global_df=0,
            status_code=STATUS_TOMBSTONE,
            contributors=(),
            payload=b"",
        )


def _encode_body(record: SegmentRecord) -> bytes:
    body = bytearray()
    key_bytes = key_to_canonical(record.key)
    encode_varint(len(key_bytes), body)
    body.extend(key_bytes)
    encode_varint(record.global_df, body)
    if record.status_code not in (STATUS_DK, STATUS_NDK, STATUS_TOMBSTONE):
        raise StoreError(f"unknown status code {record.status_code}")
    body.append(record.status_code)
    contributors = record.contributors  # sorted by __post_init__
    encode_varint(len(contributors), body)
    previous = 0
    for contributor in contributors:
        encode_varint(contributor - previous, body)
        previous = contributor
    encode_varint(len(record.payload), body)
    body.extend(record.payload)
    return bytes(body)


def _body_layout(body: bytes) -> tuple[slice, int, int, slice, int]:
    """Walk the header of one record body, the one reader of the layout
    :func:`_encode_body` writes: ``(key, global_df, status_code,
    contributors, payload_start)``, where ``key`` and ``contributors``
    slice the canonical key and the contributor delta varints out of
    ``body``.  The contributors are stepped over, not decoded.

    Raises:
        StoreError: on malformed bodies.
    """
    try:
        key_len, key_start = decode_varint(body, 0)
        key_end = key_start + key_len
        if key_end > len(body):
            raise StoreError("record key overruns body")
        global_df, position = decode_varint(body, key_end)
        if position >= len(body):
            raise StoreError("record body missing status byte")
        status_code = body[position]
        n_contributors, contributors_start = decode_varint(body, position + 1)
        position = contributors_start
        for _ in range(n_contributors):
            while body[position] & 0x80:
                position += 1
            position += 1
        contributors = slice(contributors_start, position)
        payload_len, position = decode_varint(body, position)
    except (IndexError, IndexError_) as exc:  # a varint runs off the end
        raise StoreError(f"malformed record body: {exc}") from exc
    if status_code not in (STATUS_DK, STATUS_NDK, STATUS_TOMBSTONE):
        raise StoreError(f"unknown status code {status_code}")
    if position + payload_len != len(body):
        raise StoreError("record payload length mismatch")
    return (
        slice(key_start, key_end),
        global_df,
        status_code,
        contributors,
        position,
    )


def decode_record_body(body: bytes) -> SegmentRecord:
    """Decode one record body (the checksummed span of a record).

    Raises:
        StoreError: on malformed bodies.
    """
    key, global_df, status_code, span, payload_start = _body_layout(body)
    try:
        key_terms = key_from_canonical(body[key])
        contributors = []
        previous = 0
        position = span.start
        while position < span.stop:
            delta, position = decode_varint(body, position)
            previous += delta
            contributors.append(previous)
    except Exception as exc:  # bad UTF-8, an over-long varint
        raise StoreError(f"malformed record body: {exc}") from exc
    return SegmentRecord(
        key=key_terms,
        global_df=global_df,
        status_code=status_code,
        contributors=tuple(contributors),
        payload=body[payload_start:],
    )


def encode_record_body(record: SegmentRecord) -> bytes:
    """Encode just the checksummed span of a record (no frame).  The
    WAL frames the same bodies under its own log, so one encoder serves
    both files and replayed records decode with the segment decoder."""
    return _encode_body(record)


def framed_length(body_len: int) -> int:
    """On-disk size of a record whose body is ``body_len`` bytes long
    (length prefix + body + crc trailer), without encoding anything."""
    prefix = bytearray()
    encode_varint(body_len, prefix)
    return len(prefix) + body_len + _CRC_BYTES


def encode_record(record: SegmentRecord) -> bytes:
    """Full on-disk form: length prefix, body, crc32 trailer."""
    body = _encode_body(record)
    out = bytearray()
    encode_varint(len(body), out)
    out.extend(body)
    out.extend(zlib.crc32(body).to_bytes(_CRC_BYTES, "little"))
    return bytes(out)


class SegmentWriter:
    """Appends records to one segment file.

    Creates the file with its header when absent; appending to an
    existing segment resumes at its current end (the store only does this
    for the active segment it itself wrote).

    Args:
        path: the segment file.
        sync: fsync on :meth:`close` — the durability knob.  The format
            is crash-safe either way (a torn tail is detected and
            skipped on reopen); syncing additionally guarantees that
            once a segment is *closed* — rollover, store close, snapshot
            completion — its records survive power loss, not just a
            process crash.
    """

    def __init__(self, path: Path, sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = sync
        existing = self.path.exists()
        self._file: BinaryIO = open(self.path, "ab")
        if not existing or self._file.tell() == 0:
            self._file.write(MAGIC)
        self._offset = self._file.tell()

    @property
    def offset(self) -> int:
        """Byte offset the next record will be written at."""
        return self._offset

    def append(self, record: SegmentRecord) -> tuple[int, int]:
        """Append ``record``; returns ``(offset, encoded_length)``."""
        encoded = encode_record(record)
        offset = self._offset
        self._file.write(encoded)
        self._offset += len(encoded)
        return offset, len(encoded)

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            if self.sync:
                os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class SegmentScan:
    """Outcome of scanning one segment file.

    Attributes:
        records: ``(offset, encoded_length, record)`` triples of every
            valid record, in file order.
        valid_bytes: length of the valid prefix (header + whole records).
        truncated: True when a torn/corrupt tail was detected and skipped.
    """

    records: list[tuple[int, int, SegmentRecord]]
    valid_bytes: int
    truncated: bool


def scan_segment(path: Path) -> SegmentScan:
    """Scan a segment, stopping at the first truncated or corrupt record.

    A file holding only a strict prefix of the header (a writer killed
    at segment creation, before its buffer flushed) is a torn tail like
    any other: the scan reports it truncated with zero records instead
    of failing, so a crash at rollover never bricks the store.

    Raises:
        StoreError: when the file is not a segment (bad header).
    """
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC):
        if MAGIC[: len(data)] == data:
            return SegmentScan(records=[], valid_bytes=0, truncated=True)
        raise StoreError(f"{path}: not a segment file (bad header)")
    if data[: len(MAGIC)] != MAGIC:
        raise StoreError(f"{path}: not a segment file (bad header)")
    records: list[tuple[int, int, SegmentRecord]] = []
    offset = len(MAGIC)
    truncated = False
    while offset < len(data):
        try:
            body_len, body_start = decode_varint(data, offset)
        except Exception:
            truncated = True
            break
        end = body_start + body_len + _CRC_BYTES
        if end > len(data):
            truncated = True
            break
        body = data[body_start : body_start + body_len]
        crc = int.from_bytes(
            data[body_start + body_len : end], "little"
        )
        if zlib.crc32(body) != crc:
            truncated = True
            break
        try:
            record = decode_record_body(body)
        except StoreError:
            truncated = True
            break
        records.append((offset, end - offset, record))
        offset = end
    # The loop leaves ``offset`` at the end of the last valid record
    # (the header when none decoded), which is the valid prefix length.
    return SegmentScan(
        records=records, valid_bytes=offset, truncated=truncated
    )


def read_payload_pread(
    fileno: int, offset: int, length: int, label: Callable[[], str]
) -> bytes:
    """Positional read of just the posting payload of the record framed
    at ``offset`` in ``length`` bytes: the crc check and a slice — the
    key and the contributors are skipped, not decoded.  ``label`` names
    the segment in an error message and is called only to raise one.

    Raises:
        StoreError: when the record is truncated, fails its checksum or
            its body is malformed.
    """
    body = _read_body_pread(fileno, offset, length, label)
    try:
        payload_start = _body_layout(body)[4]
    except StoreError as exc:
        raise StoreError(f"{label()}@{offset}: {exc}") from exc
    return body[payload_start:]


def _read_body_pread(
    fileno: int, offset: int, length: int, label: Callable[[], str]
) -> bytes:
    """The crc-checked body of the record framed at ``offset``: one
    pread of ``length`` bytes when they hold the whole frame, a second
    of the rest when they do not."""
    frame = os.pread(fileno, length, offset)
    try:
        body_len, start = decode_varint(frame, 0)
    except IndexError_ as exc:
        raise StoreError(
            f"{label()}@{offset}: unreadable record length"
        ) from exc
    end = start + body_len
    if len(frame) < end + _CRC_BYTES:
        frame += os.pread(
            fileno, end + _CRC_BYTES - len(frame), offset + len(frame)
        )
        if len(frame) < end + _CRC_BYTES:
            raise StoreError(f"{label()}@{offset}: truncated record")
    body = frame[start:end]
    crc = int.from_bytes(frame[end : end + _CRC_BYTES], "little")
    if zlib.crc32(body) != crc:
        raise StoreError(f"{label()}@{offset}: record checksum mismatch")
    return body


def read_record_at(path: Path, offset: int) -> SegmentRecord:
    """Random-access read of the whole record at ``offset`` (opens
    ``path``).

    Raises:
        StoreError: when the record is truncated, fails its checksum or
            its body is malformed.
    """
    with open(path, "rb") as handle:
        return decode_record_body(
            _read_body_pread(
                handle.fileno(), offset, _MAX_VARINT_BYTES, lambda: str(path)
            )
        )
