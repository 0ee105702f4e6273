"""Tests for model and experiment parameters, and for the deployment
knobs: declared once in ``ServiceConfig``, checked there, and carried
from the facade's keywords and the CLI's flags to where they are read."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.config import (
    ExperimentParameters,
    HDKParameters,
    PAPER_PARAMETERS,
    SMALL_SCALE_PARAMETERS,
    ServiceConfig,
)
from repro.corpus.collection import DocumentCollection
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.errors import ConfigurationError


class TestHDKParameters:
    def test_paper_defaults(self):
        params = HDKParameters()
        assert params.df_max == 400
        assert params.window_size == 20
        assert params.s_max == 3
        assert params.ff == 100_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HDKParameters(df_max=0)
        with pytest.raises(ConfigurationError):
            HDKParameters(window_size=1)
        with pytest.raises(ConfigurationError):
            HDKParameters(s_max=0)
        with pytest.raises(ConfigurationError):
            HDKParameters(s_max=25, window_size=20)
        with pytest.raises(ConfigurationError):
            HDKParameters(ff=0)
        with pytest.raises(ConfigurationError):
            HDKParameters(fr=200_000)  # fr > ff
        with pytest.raises(ConfigurationError):
            HDKParameters(ndk_truncation="weird")

    def test_with_df_max(self):
        params = HDKParameters().with_df_max(500)
        assert params.df_max == 500
        assert params.window_size == 20  # others preserved

    def test_with_window(self):
        assert HDKParameters().with_window(10).window_size == 10

    def test_as_dict_roundtrip(self):
        original = HDKParameters(df_max=123, fr=7)
        assert HDKParameters.from_dict(original.as_dict()) == original

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigurationError):
            HDKParameters.from_dict({"df_max": 10, "bogus": 1})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            HDKParameters().df_max = 1  # type: ignore[misc]


class TestExperimentParameters:
    def test_paper_peer_counts(self):
        assert PAPER_PARAMETERS.peer_counts() == [4, 8, 12, 16, 20, 24, 28]

    def test_paper_document_counts(self):
        counts = PAPER_PARAMETERS.document_counts()
        assert counts[0] == 20_000
        assert counts[-1] == 140_000

    def test_small_scale_is_valid(self):
        assert SMALL_SCALE_PARAMETERS.peer_counts()[0] == 4

    def test_irregular_step_includes_max(self):
        params = ExperimentParameters(
            initial_peers=2, peer_step=3, max_peers=9, docs_per_peer=10
        )
        assert params.peer_counts() == [2, 5, 8, 9]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentParameters(initial_peers=0)
        with pytest.raises(ConfigurationError):
            ExperimentParameters(peer_step=0)
        with pytest.raises(ConfigurationError):
            ExperimentParameters(initial_peers=8, max_peers=4)
        with pytest.raises(ConfigurationError):
            ExperimentParameters(docs_per_peer=0)


KNOBS = [knob.name for knob in dataclasses.fields(ServiceConfig)]

#: One out-of-range (or wrongly typed) setting per knob.
OUT_OF_RANGE = {
    "cache_capacity": -5,
    "store_dir": 7,
    "memory_budget_bytes": -1,
    "wal": "on",
    "overlay_fanout": 0,
    "path_cache_capacity": -1,
    "overlay_adaptive": None,
    "overlay_split_threshold": 0,
    "overlay_merge_threshold": -1,
    "sync": "yes",
    "replication": 0,
}


class TestServiceConfig:
    def test_every_knob_has_an_out_of_range_case(self):
        assert sorted(OUT_OF_RANGE) == sorted(KNOBS)

    @pytest.mark.parametrize("knob", KNOBS)
    def test_out_of_range_names_the_field(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            ServiceConfig(**{knob: OUT_OF_RANGE[knob]})

    def test_merge_threshold_must_stay_below_split(self):
        with pytest.raises(
            ConfigurationError, match="overlay_merge_threshold"
        ):
            ServiceConfig(
                overlay_merge_threshold=9, overlay_split_threshold=4
            )

    def test_disabled_and_unset_values_are_in_range(self):
        config = ServiceConfig(
            cache_capacity=None, path_cache_capacity=0, replication=None
        )
        assert config.cache_capacity is None
        assert ServiceConfig(cache_capacity=0).cache_capacity == 0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServiceConfig().sync = True  # type: ignore[misc]


@pytest.fixture(scope="module")
def tiny_collection():
    return SyntheticCorpusGenerator(
        SyntheticCorpusConfig(vocabulary_size=150, mean_doc_length=25),
        seed=3,
    ).generate(24)


class TestKnobsReachTheService:
    """``config`` and ``**knobs`` on the facade: checked before anything
    is built, whatever the backend."""

    @pytest.mark.parametrize("backend", ["hdk", "hdk_disk", "centralized"])
    @pytest.mark.parametrize(
        "knob", ["cache_capacity", "memory_budget_bytes"]
    )
    def test_build_rejects_up_front_on_every_backend(self, backend, knob):
        def no_split(*args, **kwargs):
            raise AssertionError("peers were spawned before the check")

        collection = DocumentCollection()
        collection.split = no_split  # type: ignore[method-assign]
        with pytest.raises(ConfigurationError, match=knob):
            SearchService.build(
                collection,
                num_peers=2,
                backend=backend,
                **{knob: OUT_OF_RANGE[knob]},
            )

    def test_misspelt_knob_is_a_type_error_naming_the_key(self):
        with pytest.raises(TypeError, match="overlay_fanuot"):
            SearchService.build(
                DocumentCollection(), num_peers=2, overlay_fanuot=3
            )

    def test_keyword_overrides_one_field_of_the_config(self, tiny_collection):
        base = ServiceConfig(overlay_fanout=2, cache_capacity=None)
        service = SearchService.build(
            tiny_collection,
            num_peers=4,
            backend="hdk_super",
            config=base,
            overlay_fanout=4,
        )
        assert service.config == dataclasses.replace(base, overlay_fanout=4)
        assert service.cache is None
        assert service.stats()["overlay"]["fanout"] == 4

    def test_load_honours_knobs_and_rejects_store_dir(
        self, tiny_collection, tmp_path
    ):
        service = SearchService.build(tiny_collection, num_peers=2)
        service.index()
        service.save(tmp_path / "snap")
        loaded = SearchService.load(tmp_path / "snap", cache_capacity=None)
        assert loaded.cache is None
        assert loaded.replication == 1
        with pytest.raises(ConfigurationError, match="store_dir"):
            SearchService.load(tmp_path / "snap", store_dir=tmp_path / "x")


REQUIRED = {"search": ["t00001"], "serve": ["--snapshot", "."]}


def _subparser(name):
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if action.dest == "command"
    )
    return subparsers.choices[name]


def _knob_flags(command):
    """The knobs ``command`` exposes, by field name."""
    defaults = vars(_subparser(command).parse_args(REQUIRED[command]))
    return [knob for knob in KNOBS if knob in defaults]


def _non_default_argv(knob, tmp_path):
    """Command-line words setting ``knob`` to a value that is not its
    default, and that value."""
    flag = "--" + knob.replace("_", "-")
    default = getattr(ServiceConfig(), knob)
    if knob == "store_dir":
        return [flag, str(tmp_path)], tmp_path
    if knob == "wal":
        return ["--no-wal"], False
    if default is False:
        return [flag], True
    value = 3 if default is None else default + 1
    return [flag, str(value)], value


class _Captured(Exception):
    pass


class TestCliKnobs:
    """Every knob flag is generated from its ``ServiceConfig`` field."""

    def test_search_has_every_knob_and_serve_exactly_todays_two(self):
        assert _knob_flags("search") == KNOBS
        assert _knob_flags("serve") == [
            "cache_capacity",
            "memory_budget_bytes",
        ]

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_parser_defaults_are_the_config_defaults(self, command):
        args = _subparser(command).parse_args(REQUIRED[command])
        for knob in _knob_flags(command):
            assert getattr(args, knob) == getattr(ServiceConfig(), knob)

    @pytest.mark.parametrize("how", ["build", "load"])
    @pytest.mark.parametrize("knob", KNOBS)
    def test_search_value_arrives_in_the_config(
        self, knob, how, tmp_path, monkeypatch
    ):
        seen = {}

        def spy(cls, *args, config, **kwargs):
            seen["config"] = config
            raise _Captured

        monkeypatch.setattr(SearchService, how, classmethod(spy))
        words, value = _non_default_argv(knob, tmp_path)
        argv = ["search", "t00001", "--docs", "5"] + words
        if how == "load":
            argv += ["--load", str(tmp_path)]
        with pytest.raises(_Captured):
            main(argv)
        assert seen["config"] == dataclasses.replace(
            ServiceConfig(), **{knob: value}
        )

    @pytest.mark.parametrize("knob", _knob_flags("serve"))
    def test_serve_value_arrives_in_the_worker_spec(
        self, knob, tmp_path, monkeypatch
    ):
        import repro.serving

        seen = {}

        def spy(**kwargs):
            seen.update(kwargs)
            raise _Captured

        monkeypatch.setattr(repro.serving, "WorkerSpec", spy)
        words, value = _non_default_argv(knob, tmp_path)
        with pytest.raises(_Captured):
            main(["serve", "--snapshot", str(tmp_path)] + words)
        assert seen["config"] == dataclasses.replace(
            ServiceConfig(), **{knob: value}
        )

    def test_load_with_store_dir_is_a_one_line_exit(
        self, tiny_collection, tmp_path
    ):
        service = SearchService.build(tiny_collection, num_peers=2)
        service.index()
        service.save(tmp_path / "snap")
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["search", "t00001", "--load", str(tmp_path / "snap")]
                + ["--store-dir", str(tmp_path / "x")]
            )
        assert "--store-dir" in str(excinfo.value)
