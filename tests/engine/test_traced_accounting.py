"""Traced accounting equals untraced accounting.

Every simulated message goes through one funnel that counts its fields
and, only when a trace is in flight, also formats its key and records a
``net.msg`` span.  Tracing must never change what is counted: a build,
two joins and a query log produce the same totals and the same
per-response traffic with tracing on and off, on every HDK backend at
one and two replicas.
"""

from __future__ import annotations

import pytest
from harness.messages import recorded_messages

from repro.corpus.querylog import QueryLogGenerator
from repro.engine.service import SearchService
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from tests.conftest import SMALL_PARAMS

INITIAL_DOCS = 100
JOIN_DOCS = 4
QUERIES = 200


def run(collection, backend, replication, tmp_path, traced):
    """Build, join twice, replay the query log; returns the network
    totals and every response's traffic."""
    ids = collection.doc_ids()
    initial = collection.subset(ids[:INITIAL_DOCS])
    kwargs = {"store_dir": tmp_path / "store"} if backend == "hdk_disk" else {}
    queries = QueryLogGenerator(
        initial, window_size=SMALL_PARAMS.window_size, min_hits=2, seed=3
    ).generate(QUERIES)

    def scenario():
        service = SearchService.build(
            initial,
            num_peers=4,
            backend=backend,
            params=SMALL_PARAMS,
            cache_capacity=None,
            replication=replication,
            **kwargs,
        )
        service.index()
        for join in range(2):
            start = INITIAL_DOCS + join * JOIN_DOCS
            service.add_peers(
                collection.subset(ids[start : start + JOIN_DOCS]), 1
            )
        traffic = [
            service.search(query, k=10).traffic.as_dict()
            for query in queries
        ]
        return service.network.accounting.snapshot().as_dict(), traffic

    if not traced:
        return scenario()
    with recorded_messages() as messages:
        totals, traffic = scenario()
    # The trace saw every counted message, once.
    assert len(messages) == totals["total_messages"]
    assert sum(m["hops"] for m in messages) == totals["total_hops"]
    return totals, traffic


@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("backend", ["hdk", "hdk_disk", "hdk_super"])
def test_traced_run_counts_what_the_untraced_run_counts(
    small_collection, tmp_path, backend, replication
):
    untraced = run(
        small_collection, backend, replication, tmp_path / "off", False
    )
    traced = run(small_collection, backend, replication, tmp_path / "on", True)
    assert traced[0] == untraced[0]
    assert traced[1] == untraced[1]
    assert untraced[0]["retrieval_postings"] > 0


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize(
    "fields", [{"postings": -1}, {"hops": -1}], ids=["postings", "hops"]
)
def test_negative_fields_rejected_traced_or_not(traced, fields):
    net = P2PNetwork()
    if traced:
        with recorded_messages() as messages, pytest.raises(ValueError):
            net.log_message(MessageKind.REPLICA_REPAIR, 1, 2, **fields)
        assert messages == []
    else:
        with pytest.raises(ValueError):
            net.log_message(MessageKind.REPLICA_REPAIR, 1, 2, **fields)
    assert net.accounting.snapshot().total_messages == 0
