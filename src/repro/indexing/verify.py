"""Canonical build-state fingerprints (determinism verification).

The build's contract is *byte-identity*: every backend and build path
that claims equivalence (``hdk`` vs ``hdk_disk``, a join vs a rebuild
where the protocol allows it) must produce exactly the same global
index, statistics directory, per-peer reports, and traffic totals.
This module turns each of those into a plain, comparable Python value so
harnesses (tests, benchmarks, CI smoke runs) can assert the contract
with one ``==`` — and print a meaningful diff when it breaks.

All fingerprints are pure reads: no messages are logged and no state is
mutated (reading a spilled ``hdk_disk`` posting list does materialize it
through the block cache, which is residency, not state).
"""

from __future__ import annotations

from typing import Any

from ..hdk.indexer import IndexingReport
from ..index.global_index import GlobalKeyIndex
from ..index.postings import PostingList
from ..net.accounting import TrafficSnapshot

__all__ = [
    "build_fingerprint",
    "entries_fingerprint",
    "postings_fingerprint",
    "reports_fingerprint",
    "termstats_fingerprint",
    "traffic_fingerprint",
]


def postings_fingerprint(postings: PostingList) -> tuple:
    """A posting list as a tuple of posting tuples, in stored order
    (stored order is part of the byte-identity contract: NDK truncation
    depends on it)."""
    return tuple(
        (posting.doc_id, posting.tf, tuple(posting.term_tfs), posting.doc_len)
        for posting in postings
    )


def entries_fingerprint(global_index: GlobalKeyIndex) -> tuple:
    """Every stored entry — key, status, global df, contributors, and
    full postings — sorted by canonical key."""
    entries = []
    for entry in global_index.entries():
        entries.append(
            (
                tuple(sorted(entry.key)),
                entry.status.value,
                entry.global_df,
                tuple(sorted(entry.contributors)),
                postings_fingerprint(entry.postings),
            )
        )
    entries.sort()
    return tuple(entries)


def termstats_fingerprint(global_index: GlobalKeyIndex) -> tuple:
    """The statistics directory in *iteration order* (dict order is what
    snapshot files serialize, so it is part of byte-identity), plus the
    global document count and total length."""
    term_stats, num_documents, total_doc_length = (
        global_index.export_statistics()
    )
    return (
        tuple(
            (term, stats.document_frequency, stats.collection_frequency)
            for term, stats in term_stats.items()
        ),
        num_documents,
        total_doc_length,
    )


def traffic_fingerprint(
    snapshot: TrafficSnapshot | None, postings_only: bool = False
) -> tuple | None:
    """A traffic snapshot as sorted (name, count) tuples.

    Args:
        snapshot: a charge or accounting snapshot (``None`` passes
            through).
        postings_only: drop message/hop/kind counters — the comparison
            level for *cross-backend* equivalence, where routing (and
            therefore hops, message shapes, and maintenance chatter)
            legitimately differs while posting payloads must not.
    """
    if snapshot is None:
        return None
    postings = tuple(
        sorted(
            (phase.value, count)
            for phase, count in snapshot.postings_by_phase.items()
            if count
        )
    )
    if postings_only:
        return (postings,)
    return (
        postings,
        tuple(
            sorted(
                (phase.value, count)
                for phase, count in snapshot.messages_by_phase.items()
                if count
            )
        ),
        tuple(
            sorted(
                (phase.value, count)
                for phase, count in snapshot.hops_by_phase.items()
                if count
            )
        ),
        tuple(
            sorted(
                (kind.value, count)
                for kind, count in snapshot.messages_by_kind.items()
                if count
            )
        ),
    )


def reports_fingerprint(
    reports: list[IndexingReport], include_traffic: bool = True
) -> tuple:
    """Per-peer indexing reports, sorted by peer name.

    Args:
        include_traffic: include each report's full per-peer traffic
            window; cross-backend comparisons pass ``False`` (hop counts
            depend on routing) and compare posting totals through the
            global :func:`traffic_fingerprint` instead.
    """
    rows = []
    for report in reports:
        rows.append(
            (
                report.peer_name,
                tuple(sorted(report.inserted_postings_by_size.items())),
                tuple(sorted(report.candidate_keys_by_size.items())),
                tuple(sorted(report.ndk_keys_by_size.items())),
                traffic_fingerprint(report.traffic)
                if include_traffic
                else None,
            )
        )
    rows.sort()
    return tuple(rows)


def build_fingerprint(
    global_index: GlobalKeyIndex,
    reports: list[IndexingReport] | None = None,
    traffic: TrafficSnapshot | None = None,
    strict: bool = True,
) -> dict[str, Any]:
    """The full build-state fingerprint of one indexed world.

    Args:
        global_index: the built index.
        reports: per-peer indexing reports (omitted: not compared).
        traffic: a cumulative accounting snapshot (omitted: not
            compared).
        strict: ``True`` compares everything byte for byte (same
            backend, different worker counts); ``False`` compares the
            routing-independent view (entries, statistics, per-peer
            posting costs, per-phase posting totals) for cross-backend
            equivalence.
    """
    fingerprint: dict[str, Any] = {
        "entries": entries_fingerprint(global_index),
        "termstats": termstats_fingerprint(global_index),
    }
    if reports is not None:
        fingerprint["reports"] = reports_fingerprint(
            reports, include_traffic=strict
        )
    if traffic is not None:
        fingerprint["traffic"] = traffic_fingerprint(
            traffic, postings_only=not strict
        )
    return fingerprint
