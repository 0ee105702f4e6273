"""Merkle trees over replica key ranges.

Anti-entropy must find *which* keys two replicas disagree on without
shipping the keys themselves.  Each replica summarizes its slice of a
key range as a hash tree: key ids are bucketized, every bucket digests
its (key id, value fingerprint) pairs in sorted order, and the root
digests the bucket digests.  Two replicas first exchange roots (one
metadata message); only on mismatch do they descend, exchanging the
divergent buckets' digests and then the divergent keys — so repair
traffic is proportional to the divergence, never to the range size.

Fingerprints cover the stored *state* (postings, global df, DK/NDK
status, contributors), deliberately not the repair bookkeeping: two
replicas holding identical entries are convergent no matter how they
got there.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping

__all__ = ["MerkleTree", "value_fingerprint"]

#: Digest width; 16 bytes keeps collision odds negligible at any
#: realistic key count while halving digest-exchange payloads.
_DIGEST_SIZE = 16

DEFAULT_BUCKETS = 64


def _hash(parts: Iterable[bytes]) -> bytes:
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for part in parts:
        digest.update(part)
    return digest.digest()


def value_fingerprint(value: Any) -> bytes:
    """Stable content hash of one stored value.

    Understands the global index's entry shape (``postings`` /
    ``global_df`` / ``status`` / ``contributors``) without importing it —
    the net/replication layers stay value-agnostic — and falls back to
    ``repr`` for anything else.  Spilled posting-list stubs materialize
    through their normal load path, so ``hdk_disk`` replicas
    fingerprint the same bytes as in-memory ones.
    """
    postings = getattr(value, "postings", None)
    if postings is not None:
        digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        digest.update(str(getattr(value, "global_df", 0)).encode())
        status = getattr(value, "status", None)
        digest.update(str(getattr(status, "value", status)).encode())
        contributors = getattr(value, "contributors", ())
        digest.update(",".join(map(str, sorted(contributors))).encode())
        doc_ids, tfs, doc_lens, offsets, term_tfs = postings.columns()
        for row, doc_id in enumerate(doc_ids):
            own_tfs = term_tfs[offsets[row] : offsets[row + 1]]
            digest.update(
                (
                    f"{doc_id}:{tfs[row]}:"
                    f"{','.join(map(str, own_tfs))}:"
                    f"{doc_lens[row]};"
                ).encode()
            )
        return digest.digest()
    return _hash([repr(value).encode()])


class MerkleTree:
    """A two-level hash tree over ``{key_id: value fingerprint}`` leaves.

    Args:
        leaves: one fingerprint per key id in the summarized range.
        buckets: leaf-bucket count; more buckets mean finer divergence
            localization at the cost of a longer digest list.
    """

    def __init__(
        self, leaves: Mapping[int, bytes], buckets: int = DEFAULT_BUCKETS
    ) -> None:
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.buckets = buckets
        self._bucket_keys: list[list[int]] = [[] for _ in range(buckets)]
        self._leaves = dict(leaves)
        for key_id in sorted(self._leaves):
            self._bucket_keys[key_id % buckets].append(key_id)
        self._bucket_digests = [
            _hash(
                f"{key_id}=".encode() + self._leaves[key_id]
                for key_id in bucket
            )
            for bucket in self._bucket_keys
        ]
        self.root = _hash(self._bucket_digests)

    def __len__(self) -> int:
        return len(self._leaves)

    def keys_in_bucket(self, index: int) -> list[int]:
        """Key ids summarized by bucket ``index``, ascending."""
        return list(self._bucket_keys[index])

    def diff(self, other: "MerkleTree") -> list[int]:
        """Indexes of the buckets whose digests differ from ``other``'s
        (the descend step after a root mismatch)."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot diff trees with {self.buckets} vs "
                f"{other.buckets} buckets"
            )
        return [
            index
            for index in range(self.buckets)
            if self._bucket_digests[index] != other._bucket_digests[index]
        ]
