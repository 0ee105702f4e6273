"""Tests for the message vocabulary and the network's message funnel."""

from __future__ import annotations

import pytest

from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork


def test_defaults():
    net = P2PNetwork()
    net.log_message(MessageKind.LOOKUP, source=1, destination=2)
    snapshot = net.accounting.snapshot()
    assert snapshot.postings_by_phase == {Phase.INDEXING: 0}
    assert snapshot.hops_by_phase == {Phase.INDEXING: 1}
    assert snapshot.messages_by_kind == {MessageKind.LOOKUP: 1}


def test_negative_postings_rejected():
    net = P2PNetwork()
    with pytest.raises(ValueError):
        net.log_message(MessageKind.INSERT, 1, 2, postings=-1)
    with pytest.raises(ValueError):
        net.log_maintenance(MessageKind.HANDOFF, 1, 2, postings=-1)
    assert net.accounting.snapshot().total_messages == 0


def test_negative_hops_rejected():
    net = P2PNetwork()
    with pytest.raises(ValueError):
        net.log_message(MessageKind.INSERT, 1, 2, hops=-1)
    with pytest.raises(ValueError):
        net.log_maintenance(MessageKind.HANDOFF, 1, 2, hops=-1)
    assert net.accounting.snapshot().total_messages == 0


def test_negative_response_size_rejected():
    # A flat lookup's response is counted in the request's call; its
    # posting count is checked like any other message's.
    net = P2PNetwork()
    net.add_peer("peer-0")
    accounted = net.accounting.snapshot()
    with pytest.raises(ValueError):
        net.lookup("peer-0", frozenset({"a"}), lambda value: -1)
    assert net.accounting.snapshot() == accounted


def test_kind_values_cover_protocol():
    kinds = {k.value for k in MessageKind}
    assert kinds == {
        "insert",
        "lookup",
        "response",
        "ndk_notify",
        "stats_publish",
        "handoff",
        "cluster_join",
        "cluster_split",
        "cluster_merge",
        "cache_invalidate",
        "routing_update",
        "replica_write",
        "replica_probe",
        "replica_digest",
        "replica_repair",
    }
