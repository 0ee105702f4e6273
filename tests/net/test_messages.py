"""Tests for protocol messages."""

from __future__ import annotations

import pytest

from repro.net.messages import Message, MessageKind


def test_message_ids_monotonic():
    a = Message(kind=MessageKind.INSERT, source=1, destination=2)
    b = Message(kind=MessageKind.LOOKUP, source=1, destination=2)
    assert b.message_id > a.message_id


def test_defaults():
    msg = Message(kind=MessageKind.LOOKUP, source=1, destination=2)
    assert msg.postings == 0
    assert msg.hops == 1
    assert msg.key_repr == ""


def test_message_is_immutable():
    msg = Message(kind=MessageKind.LOOKUP, source=1, destination=2)
    with pytest.raises(AttributeError):
        msg.hops = 3


def test_explicit_message_id_kept_and_positional_order():
    msg = Message(MessageKind.INSERT, 1, 2, 5, 3, "k", 99)
    assert (msg.postings, msg.hops, msg.key_repr, msg.message_id) == (
        5, 3, "k", 99,
    )


def test_negative_postings_rejected():
    with pytest.raises(ValueError):
        Message(kind=MessageKind.INSERT, source=1, destination=2, postings=-1)


def test_negative_hops_rejected():
    with pytest.raises(ValueError):
        Message(kind=MessageKind.INSERT, source=1, destination=2, hops=-1)


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
