"""Snapshot round-trips of replication state.

A saved replicated service must come back with its replica placement,
origin sequence numbers, and version vectors intact: the reloaded
network resumes anti-entropy from the persisted vectors, and because a
snapshot stores one convergent copy per key, the first repair pass after
a load ships nothing.
"""

from __future__ import annotations

import pytest

from repro.corpus.querylog import QueryLogGenerator
from repro.engine.service import SearchService
from repro.errors import ConfigurationError
from repro.store import snapshot as snapshot_io
from tests.conftest import SMALL_PARAMS


def build(collection, replication, backend="hdk", **kwargs):
    service = SearchService.build(
        collection,
        num_peers=4,
        backend=backend,
        params=SMALL_PARAMS,
        cache_capacity=None,
        replication=replication,
        **kwargs,
    )
    service.index()
    return service


def rankings(service, querylog):
    return [
        [
            (ranked.doc_id, round(ranked.score, 9))
            for ranked in service.search(query, k=10).results
        ]
        for query in querylog
    ]


@pytest.fixture(scope="module")
def querylog(small_collection):
    return QueryLogGenerator(
        small_collection,
        window_size=SMALL_PARAMS.window_size,
        min_hits=3,
        seed=17,
    ).generate(10)


@pytest.fixture(scope="module")
def replicated_service(small_collection):
    return build(small_collection, replication=2)


@pytest.fixture(scope="module")
def saved(replicated_service, tmp_path_factory):
    path = tmp_path_factory.mktemp("snapshots") / "replicated"
    replicated_service.save(path)
    return path


def test_manifest_records_replication_state(replicated_service, saved):
    manifest = snapshot_io.read_manifest(saved)
    assert manifest.replication == 2
    state = manifest.replication_state
    assert state["origin_seqs"]
    assert state["write_clock"] > 0
    assert state["version_vectors"]
    assert state == replicated_service.replication_manager.export_state()


def test_load_restores_replication(replicated_service, saved, querylog):
    loaded = SearchService.load(saved, cache_capacity=None)
    assert loaded.replication == 2
    manager = loaded.replication_manager
    assert manager is not None
    # Sequencing and vectors resume exactly where the save left off.
    assert manager.export_state() == (
        replicated_service.replication_manager.export_state()
    )
    assert rankings(loaded, querylog) == rankings(
        replicated_service, querylog
    )


def test_loaded_replicas_are_convergent(saved):
    """First anti-entropy pass after a load ships nothing: every entry
    was placed identically at all R owners with uniform versions."""
    loaded = SearchService.load(saved, cache_capacity=None)
    report = loaded.run_anti_entropy()
    assert report.groups_checked > 0
    assert report.keys_repaired == 0
    assert report.postings_shipped == 0


def test_loaded_service_survives_crash(saved, querylog):
    """The reloaded replica placement really serves failover reads."""
    loaded = SearchService.load(saved, cache_capacity=None)
    reference = rankings(loaded, querylog)
    fresh = SearchService.load(saved, cache_capacity=None)
    fresh.kill_peer(fresh.peers[0].name)
    assert rankings(fresh, querylog) == reference


def test_unreplicated_snapshot_loads_with_override(
    small_collection, querylog, tmp_path
):
    """An R=1 snapshot can be re-served replicated: entries are placed
    at every owner and repair finds them convergent."""
    service = build(small_collection, replication=1)
    service.save(tmp_path / "snap")
    manifest = snapshot_io.read_manifest(tmp_path / "snap")
    assert manifest.replication == 1
    assert manifest.replication_state == {}
    loaded = SearchService.load(
        tmp_path / "snap", cache_capacity=None, replication=2
    )
    assert loaded.replication == 2
    report = loaded.run_anti_entropy()
    assert report.keys_repaired == 0
    assert rankings(loaded, querylog) == rankings(service, querylog)


def test_replicated_snapshot_loads_unreplicated(saved, querylog):
    """Override down to R=1: the manifest's replication state is
    ignored and the service runs the plain unreplicated stack."""
    loaded = SearchService.load(saved, cache_capacity=None, replication=1)
    assert loaded.replication == 1
    assert loaded.replication_manager is None
    with pytest.raises(ConfigurationError):
        loaded.run_anti_entropy()


def test_disk_backend_round_trips_replication(small_collection, tmp_path):
    service = build(
        small_collection, replication=2, backend="hdk_disk",
        memory_budget_bytes=1_750,
    )
    service.save(tmp_path / "snap")
    loaded = SearchService.load(tmp_path / "snap", cache_capacity=None)
    assert loaded.replication == 2
    report = loaded.run_anti_entropy()
    assert report.keys_repaired == 0
