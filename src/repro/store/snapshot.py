"""Snapshot layout: persist an indexed global key index to a directory.

A snapshot is the build-once / serve-many artifact of the store
subsystem::

    <dir>/
      manifest.json     backend, overlay, peer names, HDK parameters
      termstats.bin     ranking statistics directory (varint-encoded)
      segments/         every live (key, posting list) entry, one
                        SegmentStore written by a compacting pass

Saving walks the index's entries; entries whose postings are spilled are
copied segment-to-segment as raw encoded payloads (no decode).  Loading
offers two strategies: *eager* decodes every record back into plain
in-RAM entries (the ``hdk`` backend), while *lazy* only rebuilds the
offset directory and places length-only stubs, so a collection far
larger than RAM is queryable the moment the scan finishes (the
``hdk_disk`` backend).

The peers of the loading service must be registered with the network
before entries are placed, so DHT responsibility matches the hash-based
placement used here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import StoreError
from ..index.bm25 import TermStats
from ..index.codec import decode_varint, encode_varint
from ..index.global_index import GlobalEntry, GlobalKeyIndex
from ..net.network import P2PNetwork
from .segment import SegmentRecord, fsync_dir, fsync_file
from .spill import (
    SpilledPostings,
    SpillingGlobalKeyIndex,
    code_to_status,
    status_to_code,
)
from .store import SegmentStore

__all__ = [
    "MANIFEST_NAME",
    "SEGMENTS_DIRNAME",
    "TERMSTATS_NAME",
    "SnapshotManifest",
    "load_statistics",
    "populate_eager",
    "populate_lazy",
    "read_manifest",
    "save_index_snapshot",
]

MANIFEST_NAME = "manifest.json"
SEGMENTS_DIRNAME = "segments"
TERMSTATS_NAME = "termstats.bin"

#: Version written by this build.  v2 snapshots differ from v1 only by
#: additions: segment ``.idx`` sidecars (O(segments) reopen) and the
#: ``store_generation`` / ``wal`` manifest fields.  v1 snapshots stay
#: fully readable — their segments simply take the scan path once (and
#: self-heal sidecars where the directory is writable).
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = frozenset({1, 2})
_TERMSTATS_MAGIC = b"RTST\x01"


@dataclass
class SnapshotManifest:
    """Everything needed to rebuild a queryable service around the
    persisted entries."""

    backend: str
    overlay: str
    peer_names: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    key_count: int = 0
    stored_postings: int = 0
    format_version: int = _FORMAT_VERSION
    repro_version: str = ""
    #: Replication degree the snapshot was built with (1 = unreplicated;
    #: older manifests omit the field and read back as 1).
    replication: int = 1
    #: Exported ReplicationManager state (origin sequence numbers and
    #: per-replica version vectors) so a reloaded service resumes
    #: anti-entropy from the persisted vectors; empty when replication=1.
    replication_state: dict = field(default_factory=dict)
    #: Store generation that wrote ``segments/``: 1 = scan-indexed
    #: (pre-sidecar), 2 = sidecar-indexed (v1 manifests omit the field
    #: and read back as 1).
    store_generation: int = 1
    #: Directory (relative to the snapshot root) where a WAL-enabled
    #: reopening of the snapshot writes its logs; empty for read-only
    #: artifacts of generation-1 builds.
    wal: str = ""


def save_index_snapshot(
    path: str | Path,
    *,
    backend_name: str,
    overlay_name: str,
    peer_names: list[str],
    params: dict,
    global_index: GlobalKeyIndex,
    sync: bool = False,
    replication: int = 1,
    replication_state: dict | None = None,
) -> SnapshotManifest:
    """Write a snapshot of ``global_index`` under ``path``.

    With ``sync=True`` every segment file is fsynced as it is closed
    and the manifest (the snapshot's commit point — :func:`read_manifest`
    refuses a directory without one) is fsynced after it is written, so
    a completed save survives power loss, not just a process crash.

    Raises:
        StoreError: when ``path`` already holds a snapshot.
    """
    target = Path(path)
    if (target / MANIFEST_NAME).exists():
        raise StoreError(
            f"snapshot already exists at {target}; choose a fresh directory"
        )
    target.mkdir(parents=True, exist_ok=True)
    source_store = (
        global_index.store
        if isinstance(global_index, SpillingGlobalKeyIndex)
        else None
    )
    # wal=False: bulk writes go straight to segments; close() below
    # seals them with their sidecar indexes, so loading this snapshot
    # takes the O(segments) reopen path.
    out = SegmentStore(
        target / SEGMENTS_DIRNAME, cache_bytes=0, sync=sync, wal=False
    )
    entries = sorted(
        _unique_entries(global_index), key=lambda entry: sorted(entry.key)
    )
    stored_postings = 0
    for entry in entries:
        contributors = tuple(sorted(entry.contributors))
        status_code = status_to_code(entry.status)
        postings = entry.postings
        if (
            source_store is not None
            and isinstance(postings, SpilledPostings)
            and not postings.is_loaded
        ):
            # Cold entry: copy the encoded payload segment-to-segment.
            payload = source_store.get_payload(entry.key)
            if payload is None:
                raise StoreError(
                    f"spilled entry {sorted(entry.key)} missing from "
                    f"backing store during snapshot"
                )
            out.put_record(
                SegmentRecord(
                    key=entry.key,
                    global_df=entry.global_df,
                    status_code=status_code,
                    contributors=contributors,
                    payload=payload,
                )
            )
        else:
            out.put_record(
                SegmentRecord.from_postings(
                    entry.key,
                    postings,
                    entry.global_df,
                    status_code,
                    contributors,
                )
            )
        stored_postings += len(postings)
    out.close()
    _write_statistics(target / TERMSTATS_NAME, global_index)
    if sync:
        # Everything the manifest will point at must be durable before
        # the manifest itself is: the statistics file, and the
        # segments/ directory entries naming the (already-fsynced)
        # segment files.
        fsync_file(target / TERMSTATS_NAME)
        fsync_dir(target / SEGMENTS_DIRNAME)
    # Imported here: repro/__init__ pulls in the engine (and through it
    # this module) before it defines __version__.
    from .. import __version__ as repro_version

    manifest = SnapshotManifest(
        backend=backend_name,
        overlay=overlay_name,
        peer_names=list(peer_names),
        params=dict(params),
        key_count=len(entries),
        stored_postings=stored_postings,
        repro_version=repro_version,
        replication=replication,
        replication_state=dict(replication_state or {}),
        store_generation=2,
        wal=SEGMENTS_DIRNAME,
    )
    (target / MANIFEST_NAME).write_text(
        json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if sync:
        fsync_file(target / MANIFEST_NAME)
        fsync_dir(target)
    return manifest




def read_manifest(path: str | Path) -> SnapshotManifest:
    """Read and validate the manifest of a snapshot directory."""
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise StoreError(f"no snapshot manifest at {manifest_path}")
    try:
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreError(f"unreadable manifest {manifest_path}: {exc}") from exc
    version = data.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise StoreError(
            f"unsupported snapshot format_version {version!r} "
            f"(this build reads {sorted(_SUPPORTED_VERSIONS)})"
        )
    known = {f for f in SnapshotManifest.__dataclass_fields__}
    try:
        return SnapshotManifest(
            **{key: value for key, value in data.items() if key in known}
        )
    except TypeError as exc:  # structurally valid JSON, fields missing
        raise StoreError(
            f"incomplete manifest {manifest_path}: {exc}"
        ) from exc


def segments_dir(path: str | Path) -> Path:
    """The segment-store directory inside a snapshot."""
    return Path(path) / SEGMENTS_DIRNAME


# -- statistics directory ---------------------------------------------------------


def _write_statistics(path: Path, global_index: GlobalKeyIndex) -> None:
    term_stats, num_documents, total_doc_length = (
        global_index.export_statistics()
    )
    out = bytearray(_TERMSTATS_MAGIC)
    encode_varint(num_documents, out)
    encode_varint(total_doc_length, out)
    encode_varint(len(term_stats), out)
    for term in sorted(term_stats):
        stats = term_stats[term]
        encoded = term.encode("utf-8")
        encode_varint(len(encoded), out)
        out.extend(encoded)
        encode_varint(stats.document_frequency, out)
        encode_varint(stats.collection_frequency, out)
    path.write_bytes(bytes(out))


def load_statistics(
    path: str | Path, global_index: GlobalKeyIndex
) -> None:
    """Restore the ranking statistics directory from a snapshot."""
    stats_path = Path(path) / TERMSTATS_NAME
    data = stats_path.read_bytes()
    if data[: len(_TERMSTATS_MAGIC)] != _TERMSTATS_MAGIC:
        raise StoreError(f"{stats_path}: not a statistics file")
    offset = len(_TERMSTATS_MAGIC)
    num_documents, offset = decode_varint(data, offset)
    total_doc_length, offset = decode_varint(data, offset)
    n_terms, offset = decode_varint(data, offset)
    term_stats: dict[str, TermStats] = {}
    for _ in range(n_terms):
        term_len, offset = decode_varint(data, offset)
        term = data[offset : offset + term_len].decode("utf-8")
        offset += term_len
        df, offset = decode_varint(data, offset)
        cf, offset = decode_varint(data, offset)
        term_stats[term] = TermStats(
            term=term, document_frequency=df, collection_frequency=cf
        )
    global_index.restore_statistics(
        term_stats, num_documents, total_doc_length
    )


# -- entry placement --------------------------------------------------------------


def _unique_entries(global_index: GlobalKeyIndex) -> list[GlobalEntry]:
    """One entry per key: with replication installed every key is stored
    at R replicas and a snapshot persists exactly one convergent copy —
    the *effective* owner's, so the bytes are deterministic and, if a
    replica was lagging at save time, the serving copy is what is kept."""
    network = global_index.network
    if network.replication is None:
        return global_index.entries()
    unique: dict = {}
    for storage in network.storages():
        for stored in storage:
            if not isinstance(stored.value, GlobalEntry):
                continue
            if stored.key in unique:
                continue
            owner = network.effective_owner(stored.key_id)
            value = (
                network.storage_by_id(owner).get(stored.key)
                if owner is not None
                else stored.value
            )
            unique[stored.key] = value
    return list(unique.values())


def _place_entry(network: P2PNetwork, key, make_entry) -> None:
    """Put a freshly built entry directly into the storage of *each*
    live owner — snapshot restoration is local I/O, not protocol
    traffic.  ``make_entry`` is called once per owner: replicas must
    never share a mutable entry, or a later merge at one would silently
    mutate the others.  Without replication there is one owner, the
    responsible peer."""
    key_id = network.key_id(key)
    if network.replication is not None:
        owners = network.replication.owners(key_id)
    else:
        owners = (network.overlay.responsible_peer(key_id),)
    for owner in owners:
        if not network.is_live(owner):
            continue
        network.storage_by_id(owner).put(key, key_id, make_entry())


def populate_eager(
    path: str | Path, global_index: GlobalKeyIndex
) -> int:
    """Decode every snapshot record into in-RAM entries (``hdk``).

    Returns the number of keys placed.
    """
    reader = SegmentStore(segments_dir(path), cache_bytes=0)
    placed = 0
    for key, meta in reader.items():
        postings = reader.get_postings(key)
        assert postings is not None

        def make_entry(
            key=key, meta=meta, postings=postings
        ) -> GlobalEntry:
            return GlobalEntry(
                key=key,
                postings=postings,
                global_df=meta.global_df,
                status=code_to_status(meta.status_code),
                contributors=set(meta.contributors),
            )

        _place_entry(global_index.network, key, make_entry)
        placed += 1
    reader.close()
    load_statistics(path, global_index)
    return placed


def populate_lazy(
    path: str | Path, global_index: SpillingGlobalKeyIndex
) -> int:
    """Place length-only stubs for every snapshot record (``hdk_disk``).

    The index's backing store must already be opened over the snapshot's
    ``segments/`` directory (its offset directory is the source of
    truth); no posting list is decoded here.

    Returns the number of keys placed.
    """
    store = global_index.store
    expected = segments_dir(path).resolve()
    if store.directory.resolve() != expected:
        raise StoreError(
            f"lazy load requires the index store to be opened over "
            f"{expected}, not {store.directory}"
        )
    placed = 0
    for key, meta in store.items():

        def make_entry(key=key, meta=meta) -> GlobalEntry:
            # One stub per owner, all backed by the shared snapshot
            # store: a backup materializing its copy never aliases the
            # effective owner's resident list.
            return GlobalEntry(
                key=key,
                postings=SpilledPostings(
                    store,
                    key,
                    meta.posting_count,
                    global_index._note_loaded,
                ),
                global_df=meta.global_df,
                status=code_to_status(meta.status_code),
                contributors=set(meta.contributors),
            )

        _place_entry(global_index.network, key, make_entry)
        placed += 1
    load_statistics(path, global_index)
    return placed
