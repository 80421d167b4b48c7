"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCliList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "galaxy" in out
        assert "dyn_auto_multi" in out
        assert "fig08" in out

    def test_list_has_stream_column(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "stream" in out
        header = next(line for line in out.splitlines()
                      if line.strip().startswith("name "))
        col = header.split().index("stream")
        # multi runs the live streaming path, simple does not.
        multi_row = next(line for line in out.splitlines()
                         if line.strip().startswith("multi "))
        simple_row = next(line for line in out.splitlines()
                          if line.strip().startswith("simple "))
        assert multi_row.split()[col] == "yes"
        assert simple_row.split()[col] == "no"


class TestCliRun:
    def test_run_galaxy(self, capsys):
        code = main(
            [
                "run", "galaxy",
                "--mapping", "dyn_multi",
                "--processes", "4",
                "--time-scale", "0.002",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "internalExtinction.output: 100 items" in out

    def test_run_sentiment_hybrid(self, capsys):
        code = main(
            [
                "run", "sentiment",
                "--mapping", "hybrid_redis",
                "--processes", "8",
                "--articles", "30",
                "--time-scale", "0.002",
            ]
        )
        assert code == 0
        assert "top3" in capsys.readouterr().out

    def test_run_auto_prints_scaler(self, capsys):
        code = main(
            [
                "run", "galaxy",
                "--mapping", "dyn_auto_multi",
                "--processes", "4",
                "--time-scale", "0.002",
            ]
        )
        assert code == 0
        assert "auto-scaler" in capsys.readouterr().out

    def test_run_json_summary(self, capsys):
        code = main(
            [
                "run", "galaxy",
                "--mapping", "dyn_multi",
                "--processes", "4",
                "--time-scale", "0.002",
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mapping"] == "dyn_multi"
        assert summary["processes"] == 4
        assert summary["outputs"] == {"internalExtinction.output": 100}
        assert summary["total_outputs"] == 100
        assert summary["counters"]["tasks"] > 0
        assert summary["runtime"] > 0
        assert summary["process_time"] > 0

    def test_run_stream_prints_results_as_they_arrive(self, capsys):
        code = main(
            [
                "run", "galaxy",
                "--mapping", "dyn_auto_multi",
                "--processes", "4",
                "--time-scale", "0.002",
                "--stream",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("-> internalExtinction.output:") == 100
        assert "streamed     = 100 data units" in out
        assert "live ingestion" in out
        assert "runtime" in out

    def test_stream_and_json_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["run", "galaxy", "--stream", "--json"])

    def test_bad_mapping_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "galaxy", "--mapping", "warp"])

    def test_bad_workflow_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])


class TestCliBench:
    def test_bench_table1_tiny(self, capsys):
        code = main(["bench", "table1", "--time-scale", "0.001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dyn_auto_multi/dyn_multi" in out
        assert "[mean, std]" in out

    def test_bench_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])
