"""Tests for ASCII report rendering and the CLI entry point."""

import re

import pytest

from repro.analysis.report import (
    format_scaling_table,
    format_seconds,
    format_series,
    format_table1,
)
from repro.cli import main


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (2.5, "2.50s"),
            (0.0456, "45.60ms"),
            (1.5e-5, "15.0us"),
            (3e-9, "3ns"),
        ],
    )
    def test_scales(self, value, expected):
        assert format_seconds(value) == expected


class TestFormatSeries:
    def test_aligned_columns(self):
        out = format_series(
            "T", [0, 1], ("a", [10, 20]), ("b", [1])
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "b" in lines[2]
        assert lines[-1].endswith("-")  # short column padded

    def test_empty_labels(self):
        out = format_series("T", [], ("a", []))
        assert "T" in out


class TestFormatScalingTable:
    def test_contains_all_cells(self):
        out = format_scaling_table(
            "S", [8, 128], {"m": {8: 1.0, 128: 0.1}}
        )
        assert "P=8" in out and "P=128" in out
        assert "1.00s" in out and "100.00ms" in out


class TestFormatTable1:
    def test_rows_and_paper_columns(self):
        rows = {"bfs": {"bsp": 3.0, "graphct": 0.3, "ratio": 10.0}}
        out = format_table1(rows, paper_rows=rows)
        assert "10.0:1" in out
        assert out.count("3.00s") == 2  # measured + paper columns

    def test_without_paper(self):
        rows = {"bfs": {"bsp": 3.0, "graphct": 0.3, "ratio": 10.0}}
        out = format_table1(rows)
        assert "Paper" not in out


class TestCLI:
    """End-to-end CLI runs at a tiny scale (kept fast)."""

    ARGS = ["--scale", "9", "--seed", "1"]

    @pytest.mark.parametrize("flag", ["--version", "version"])
    def test_version(self, capsys, flag):
        assert main([flag]) == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"repro \d+\.\d+(\.\d+)?([a-z0-9.+-]*)?", out)

    def test_table1(self, capsys):
        assert main(["table1", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "connected components" in out
        assert "Paper ratio" in out

    def test_fig1(self, capsys):
        assert main(["fig1", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 (BSP)" in out
        assert "supersteps" in out

    def test_fig2(self, capsys):
        assert main(["fig2", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "frontier (GraphCT)" in out

    def test_fig3_paper_scale(self, capsys):
        assert main(["fig3", "--paper-scale", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "paper-scale work" in out
        assert "level" in out

    def test_fig4(self, capsys):
        assert main(["fig4", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "triangle counting" in out
        assert "write ratio" in out

    def test_anecdotes(self, capsys):
        assert main(["anecdotes", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "trinity_bfs_rmat" in out

    def test_all(self, capsys):
        assert main(["all", *self.ARGS]) == 0
        out = capsys.readouterr().out
        for token in ("Figure 1", "Figure 2", "Figure 3", "Figure 4",
                      "Table I", "Giraph"):
            assert token in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    @pytest.mark.parametrize(
        "bad", [["--scale", "25"], ["--scale", "-3"], ["--edge-factor", "0"]],
        ids=["scale-above-paper", "negative-scale", "zero-edge-factor"],
    )
    def test_bad_workload_is_a_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", *bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("repro: error: ")
        assert "Traceback" not in err

    def test_profile_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile"])
        assert exc.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["table1", *self.ARGS, "--json", str(path)]) == 0
        import json

        data = json.loads(path.read_text())
        assert set(data) == {
            "anecdotes", "config", "fig1", "fig2", "fig3", "fig4", "table1"
        }
        assert data["config"]["scale"] == 9
        assert data["table1"]["rows"]["triangle_counting"]["ratio"] > 1
        assert len(data["fig2"]["frontier_sizes"]) >= 3

    def test_graph500_subcommand(self, capsys):
        assert main(["graph500", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "harmonic-mean" in out
        assert "validated searches" in out

    def test_json_to_stdout(self, capsys):
        assert main(["table1", *self.ARGS, "--json", "-"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert "fig1" in data
