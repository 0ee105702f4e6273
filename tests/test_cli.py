"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestStats:
    def test_synthetic_stats(self, capsys):
        code = main(["stats", "--docs", "30", "--vocabulary", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total number of documents M" in out
        assert "30" in out

    def test_text_dir(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("apple pie crust baking")
        (tmp_path / "b.txt").write_text("quantum computing hardware")
        code = main(["stats", "--text-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2" in out

    def test_empty_text_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", "--text-dir", str(tmp_path)])


class TestSearch:
    def test_end_to_end(self, capsys):
        code = main(
            [
                "search",
                "t00001 t00002",
                "--docs",
                "60",
                "--vocabulary",
                "200",
                "--peers",
                "3",
                "--df-max",
                "5",
                "--window",
                "6",
                "--ff",
                "2000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "indexed 60 documents" in out
        assert "n_k=" in out

    def test_single_term_mode(self, capsys):
        code = main(
            [
                "search",
                "t00001",
                "--docs",
                "40",
                "--vocabulary",
                "150",
                "--peers",
                "2",
                "--backend",
                "single_term",
                "--df-max",
                "5",
                "--window",
                "6",
            ]
        )
        assert code == 0

    def test_pgrid_overlay(self, capsys):
        code = main(
            [
                "search",
                "t00001",
                "--docs",
                "40",
                "--vocabulary",
                "150",
                "--peers",
                "2",
                "--overlay",
                "pgrid",
                "--df-max",
                "5",
                "--window",
                "6",
            ]
        )
        assert code == 0


class TestSearchBackends:
    BASE = [
        "search",
        "--docs",
        "60",
        "--vocabulary",
        "200",
        "--peers",
        "3",
        "--df-max",
        "5",
        "--window",
        "6",
    ]

    @pytest.mark.parametrize(
        "backend",
        ["hdk", "hdk_super", "single_term", "single_term_bloom", "centralized"],
    )
    def test_every_backend_end_to_end(self, backend, capsys):
        code = main(
            self.BASE + ["t00001 t00002", "--backend", backend]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"backend={backend}" in out
        assert "n_k=" in out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["t00001", "--backend", "kademlia"])

    def test_batch_reports_traffic_and_cache(self, capsys):
        code = main(self.BASE + ["--batch", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "postings transferred" in out
        assert "cache hits" in out

    def test_batch_no_cache(self, capsys):
        code = main(self.BASE + ["--batch", "5", "--cache-capacity", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache hit rate" in out

    def test_query_required_without_batch(self):
        with pytest.raises(SystemExit):
            main(self.BASE)

    def test_query_and_batch_conflict(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["t00001", "--batch", "5"])
        assert "t00001" in str(excinfo.value)

    def test_negative_batch_rejected(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--batch", "-5"])


class TestOverlayFlags:
    BASE = TestSearchBackends.BASE + ["--backend", "hdk_super"]

    def test_super_backend_end_to_end(self, capsys):
        code = main(
            self.BASE
            + [
                "t00001 t00002",
                "--overlay-fanout",
                "2",
                "--path-cache-capacity",
                "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=hdk_super" in out

    def test_path_cache_disabled(self, capsys):
        code = main(
            self.BASE + ["t00001", "--path-cache-capacity", "0"]
        )
        assert code == 0

    def test_batch_through_the_hierarchy(self, capsys):
        code = main(self.BASE + ["--batch", "8", "--overlay-fanout", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "postings transferred" in out

    def test_invalid_fanout_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["t00001", "--overlay-fanout", "0"])
        assert "--overlay-fanout" in str(excinfo.value)

    def test_negative_path_cache_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["t00001", "--path-cache-capacity", "-1"])
        assert "--path-cache-capacity" in str(excinfo.value)


class TestSyncFlag:
    def test_sync_save_and_reload(self, tmp_path, capsys):
        snap = tmp_path / "snap"
        code = main(
            TestSearchBackends.BASE
            + [
                "t00001 t00002",
                "--backend",
                "hdk_disk",
                "--sync",
                "--store-dir",
                str(tmp_path / "store"),
                "--memory-budget-bytes",
                "700",
                "--save",
                str(snap),
            ]
        )
        assert code == 0
        assert "saved snapshot" in capsys.readouterr().out
        code = main(["search", "t00001 t00002", "--load", str(snap)])
        assert code == 0
        assert "loaded snapshot" in capsys.readouterr().out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestExperiment:
    TINY = [
        "experiment",
        "--docs-per-peer",
        "20",
        "--max-peers",
        "2",
        "--initial-peers",
        "2",
        "--vocabulary",
        "150",
        "--doc-length",
        "25",
        "--df-max-values",
        "5",
        "--df-max",
        "5",
        "--window",
        "6",
        "--queries",
        "4",
    ]

    def test_tiny_experiment(self, capsys):
        code = main(self.TINY)
        out = capsys.readouterr().out
        assert code == 0
        assert "top-20 overlap %" in out
        assert "ST" in out

    def test_backend_sweep(self, capsys):
        code = main(self.TINY + ["--backends", "hdk", "hdk_super"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HDK df_max=5" in out
        assert "hdk_super df_max=5" in out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(self.TINY + ["--backends", "kademlia"])


class TestPlan:
    def test_default_profile(self, capsys):
        code = main(["plan", "4200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recommended DF_max" in out
        assert "1000" in out  # 4200 / 4.2

    def test_custom_profile(self, capsys):
        code = main(["plan", "700", "--query-sizes", "2:1.0"])
        out = capsys.readouterr().out
        assert code == 0
        # nk = 3 -> DF_max = 233.
        assert "233" in out


class TestTraffic:
    def test_table(self, capsys):
        code = main(["traffic", "--doc-counts", "653546", "1000000000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ST/HDK" in out
        assert "x" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("stats", "search", "experiment", "plan", "traffic"):
            assert name in out


class TestRemovedFlags:
    """Prefix matching is off, so a removed flag fails loudly instead of
    being re-read as a longer one (--memory-budget 500 must never become
    --memory-budget-bytes 500: bytes where postings were meant)."""

    @pytest.mark.parametrize(
        "removed",
        [["--memory-budget", "500"], ["--mode", "hdk"], ["--no-cache"]],
    )
    def test_removed_search_flag_unrecognized(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(TestSearchBackends.BASE + ["t00001"] + removed)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_serve_flag_unrecognized(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["serve", "--snapshot", str(tmp_path)]
                + ["--memory-budget", "500"]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_parser_abbreviates(self):
        parser = build_parser()
        assert parser.allow_abbrev is False
        (subparsers,) = (
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.dest == "command"
        )
        for name, subparser in subparsers.choices.items():
            assert subparser.allow_abbrev is False, name


class TestServeInputChecks:
    """`serve` rejects the values `search` rejects, before any worker
    process is spawned (the snapshot directory is never even opened)."""

    @pytest.mark.parametrize(
        "flag", ["--memory-budget-bytes", "--cache-capacity"]
    )
    def test_negative_value_rejected(self, flag, tmp_path, monkeypatch):
        from repro.serving import pool

        def no_spawn(*args, **kwargs):
            raise AssertionError("a worker pool was constructed")

        monkeypatch.setattr(pool, "WorkerPool", no_spawn)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--snapshot", str(tmp_path), flag, "-1"])
        assert flag in str(excinfo.value)

    def test_negative_memory_budget_bytes_rejected_by_search(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                TestSearchBackends.BASE
                + ["t00001", "--memory-budget-bytes", "-1"]
            )
        assert "--memory-budget-bytes" in str(excinfo.value)
