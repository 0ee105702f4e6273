"""The differential equivalence harness.

One place to assert the repo's strongest invariant: every HDK-family
backend (``hdk``, ``hdk_disk``, ``hdk_super``) must produce the *same
search system* — same global index
bytes, same statistics directory, same per-peer indexing costs, same
top-k, same per-query posting transfers.  Backend tests used to spell
out ad-hoc pairwise subsets of these checks; new suites should build a
:func:`service_fingerprint` / :func:`query_fingerprint` pair and
compare through :func:`assert_fingerprints_equal` instead.

Two comparison levels:

- **strict** — byte-identity, for worlds that differ only in execution
  (rebuilds, memory budgets, ``replication=1``): everything is compared,
  including per-peer report traffic and full message/hop/kind counters.
- **results** (``strict=False``) — routing-independent equivalence, for
  worlds that differ in routing/residency (``hdk`` vs ``hdk_super``):
  entries, statistics, report posting costs, indexing/retrieval posting
  totals, top-k, and per-query transfers are compared; hop and message
  counts are allowed to differ (that is the point of the overlay).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.querylog import Query, QueryLogGenerator
from repro.engine.service import SearchService
from repro.indexing import build_fingerprint, traffic_fingerprint

__all__ = [
    "assert_crash_tolerant",
    "assert_fingerprints_equal",
    "build_indexed_service",
    "make_querylog",
    "query_fingerprint",
    "service_fingerprint",
]


def build_indexed_service(
    collection: DocumentCollection,
    backend: str,
    params: HDKParameters,
    num_peers: int,
    **kwargs: Any,
) -> SearchService:
    """Build + index a service with the result cache disabled (every
    query must pay its backend, or the comparison measures the cache)."""
    service = SearchService.build(
        collection,
        num_peers=num_peers,
        backend=backend,
        params=params,
        cache_capacity=None,
        **kwargs,
    )
    service.index()
    return service


def service_fingerprint(
    service: SearchService, strict: bool = True
) -> dict[str, Any]:
    """The indexed world's comparable state (see module docstring for
    what each strictness level includes)."""
    global_index = service.backend.global_index
    fingerprint = build_fingerprint(
        global_index,
        service.indexing_reports,
        traffic=service.network.accounting.snapshot() if strict else None,
        strict=strict,
    )
    if not strict:
        # Routing-independent traffic: the paper's cost unit (postings)
        # for the two analyzed phases.  Maintenance chatter and hop
        # counts legitimately differ across routing substrates.
        snapshot = service.network.accounting.snapshot()
        fingerprint["traffic_postings"] = {
            "indexing": snapshot.indexing_postings,
            "retrieval": snapshot.retrieval_postings,
        }
    return fingerprint


def query_fingerprint(
    service: SearchService,
    queries: Sequence[Query | str],
    k: int = 10,
    strict: bool = True,
    source_peer: str | None = None,
) -> list[dict[str, Any]]:
    """Run ``queries`` and capture each response's comparable fields."""
    rows: list[dict[str, Any]] = []
    for query in queries:
        response = service.search(query, k=k, source_peer=source_peer)
        row: dict[str, Any] = {
            "results": tuple(
                (ranked.doc_id, round(ranked.score, 9))
                for ranked in response.results
            ),
            "postings_transferred": response.postings_transferred,
            "keys_looked_up": response.keys_looked_up,
            "keys_found": response.keys_found,
            "dk_keys": response.dk_keys,
            "ndk_keys": response.ndk_keys,
        }
        if strict:
            row["traffic"] = traffic_fingerprint(response.traffic)
        rows.append(row)
    return rows


def assert_crash_tolerant(
    service: SearchService,
    queries: Sequence[Query | str],
    k: int = 10,
) -> list[dict[str, Any]]:
    """The kill-peer fault-injection level: crash every peer in turn.

    For each victim: kill it (storage destroyed, no handoff), assert the
    query rows are *identical* to the healthy run — with ``replication
    >= 2`` a single crash must be invisible in results, transfers, and
    key-hit counts — then respawn it empty, run one anti-entropy pass,
    and assert the healed world still matches before moving to the next
    victim (so every peer is crashed against a converged network).

    Returns the healthy reference rows.
    """
    reference = query_fingerprint(service, queries, k=k, strict=False)
    total_repaired = 0
    default_source = service.peers[0].name
    fallback_source = (
        service.peers[1].name if len(service.peers) > 1 else default_source
    )
    for peer in service.peers:
        # A crashed peer cannot originate queries; when the victim is
        # the default query source, ask from a surviving peer (response
        # rows are source-independent — hops are excluded at this
        # comparison level).
        source = (
            fallback_source if peer.name == default_source else default_source
        )
        service.kill_peer(peer.name)
        degraded = query_fingerprint(
            service, queries, k=k, strict=False, source_peer=source
        )
        assert_fingerprints_equal(
            reference, degraded, context=f"crash of {peer.name}"
        )
        service.respawn_peer(peer.name)
        report = service.run_anti_entropy()
        total_repaired += report.keys_repaired
        healed = query_fingerprint(service, queries, k=k, strict=False)
        assert_fingerprints_equal(
            reference, healed, context=f"repair of {peer.name}"
        )
    assert total_repaired > 0, (
        "no victim held any repairable keys — the fault injection "
        "exercised nothing"
    )
    return reference


def make_querylog(
    collection: DocumentCollection,
    params: HDKParameters,
    num_queries: int = 12,
    seed: int = 17,
) -> list[Query]:
    """A deterministic mixed-size query log over ``collection``."""
    return QueryLogGenerator(
        collection,
        window_size=params.window_size,
        min_hits=3,
        seed=seed,
        size_weights={1: 0.2, 2: 0.5, 3: 0.3},
    ).generate(num_queries)


def assert_fingerprints_equal(
    reference: dict[str, Any] | list,
    other: dict[str, Any] | list,
    context: str = "",
) -> None:
    """Compare fingerprints section by section for readable failures."""
    where = f" [{context}]" if context else ""
    if isinstance(reference, dict):
        assert set(reference) == set(other), (
            f"fingerprint sections differ{where}: "
            f"{sorted(reference)} vs {sorted(other)}"
        )
        for section in reference:
            assert other[section] == reference[section], (
                f"section {section!r} diverges{where}"
            )
    else:
        assert len(reference) == len(other), (
            f"fingerprint row counts differ{where}"
        )
        for position, (ref_row, other_row) in enumerate(
            zip(reference, other)
        ):
            assert other_row == ref_row, (
                f"row {position} diverges{where}: "
                f"{ref_row!r} != {other_row!r}"
            )
