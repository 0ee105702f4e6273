"""The public surface: every exported name resolves, the names
removed in 2.0.0 (the legacy engine shims and the serving-side
histogram re-export) and the build's shard plan are really gone from every package that exported
them, and a deployment knob is declared in ``ServiceConfig`` only."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import BackendContext, SearchService
from repro.config import ServiceConfig
from repro.serving import WorkerSpec

PACKAGES = ["repro"] + sorted(
    module.name
    for module in pkgutil.iter_modules(repro.__path__, prefix="repro.")
    if module.ispkg
)

REMOVED = [
    ("repro", "P2PSearchEngine"),
    ("repro", "EngineMode"),
    ("repro.engine", "P2PSearchEngine"),
    ("repro.engine", "EngineMode"),
    ("repro.retrieval", "CachingSearchEngine"),
    ("repro.serving", "LatencyHistogram"),
    ("repro.serving", "DEFAULT_BUCKET_BOUNDS_MS"),
    ("repro.indexing", "Shard"),
    ("repro.indexing", "plan_shards"),
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate in __all__"
    for name in exported:
        assert getattr(module, name, None) is not None, name


@pytest.mark.parametrize("package, name", REMOVED)
def test_removed_name_is_not_importable(package, name):
    module = importlib.import_module(package)
    assert name not in getattr(module, "__all__", [])
    assert not hasattr(module, name)


def test_legacy_engine_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.p2p_engine")


KNOBS = {knob.name for knob in dataclasses.fields(ServiceConfig)}


@pytest.mark.parametrize(
    "callable_",
    [SearchService.__init__, SearchService.build, SearchService.load],
    ids=["__init__", "build", "load"],
)
def test_facade_signatures_declare_no_knob(callable_):
    parameters = inspect.signature(callable_).parameters
    assert not KNOBS & set(parameters)
    assert "config" in parameters
    assert parameters["knobs"].kind is inspect.Parameter.VAR_KEYWORD


@pytest.mark.parametrize("carrier", [BackendContext, WorkerSpec])
def test_carriers_hold_the_config_not_its_fields(carrier):
    names = {field.name for field in dataclasses.fields(carrier)}
    assert not KNOBS & names
    assert "config" in names
