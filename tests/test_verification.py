"""Tests for the executable claim scorecard and the experiment table."""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.verification import (
    Criterion,
    VerificationReport,
    verify_all,
)
from repro.analysis.workload import ExperimentConfig


@pytest.fixture(scope="module")
def report():
    return verify_all(ExperimentConfig(scale=12, edge_factor=16, seed=1))


class TestVerifyAll:
    def test_every_criterion_passes_at_experiment_scale(self, report):
        failures = [r for r in report.results if not r.passed]
        assert not failures, "\n".join(
            f"{r.experiment}: {r.claim} -> {r.detail}" for r in failures
        )

    def test_covers_every_experiment(self, report):
        experiments = {r.experiment for r in report.results}
        assert experiments == {
            "Table I", "Figure 1", "Figure 2", "Figure 3", "Figure 4",
            "Anecdotes",
        }

    def test_counts(self, report):
        assert report.num_passed == len(report.results)
        assert report.all_passed
        assert len(report.results) >= 15

    def test_details_are_informative(self, report):
        for r in report.results:
            assert len(r.detail) > 10

    def test_render(self, report):
        text = report.render()
        assert "Verification scorecard" in text
        assert text.count("PASS") == report.num_passed
        assert "criteria passed" in text


class TestFailureHandling:
    def test_raising_check_becomes_failure(self):
        """The scorecard walk grades each criterion with
        ``Criterion.evaluate``: a check that raises is a FAIL carrying
        the exception, not a crash."""
        result = Criterion("boom", lambda res: 1 / 0).evaluate("X", None)
        assert (result.experiment, result.claim) == ("X", "boom")
        assert not result.passed
        assert result.detail.startswith("check raised ZeroDivisionError")
        report = VerificationReport(config=ExperimentConfig(), results=[result])
        assert not report.all_passed
        assert "FAIL" in report.render()


class TestExperimentTable:
    #: The seven algorithms the experiments price, by defining module.
    TRACED = {
        "bsp_connected_components": "repro.bsp_algorithms.connected_components",
        "connected_components": "repro.graphct.connected_components",
        "bsp_breadth_first_search": "repro.bsp_algorithms.bfs",
        "breadth_first_search": "repro.graphct.bfs",
        "bsp_count_triangles": "repro.bsp_algorithms.triangles",
        "count_triangles": "repro.graphct.triangles",
        "bsp_sssp": "repro.bsp_algorithms.sssp",
    }

    def test_each_algorithm_traced_once_per_config(self, monkeypatch, capsys):
        """``verify``, ``--json`` and every ``repro all`` renderer share
        one run of each algorithm, and none of them mutates it."""
        from repro.cli import collect_results, main

        calls = Counter()
        for name, home in self.TRACED.items():
            original = getattr(importlib.import_module(home), name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if (module_name.split(".")[0] == "repro"
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, counted)
        # A workload no other test builds, so no run of it is memoized.
        config = ExperimentConfig(scale=9, edge_factor=8, seed=4)
        payload = json.dumps(collect_results(config), default=float)
        verify_all(config)
        assert main(["all", "--scale", "9", "--edge-factor", "8",
                     "--seed", "4"]) == 0
        assert calls == dict.fromkeys(self.TRACED, 1)
        assert json.dumps(collect_results(config), default=float) == payload

    def test_criteria_read_the_configured_processor_counts(self):
        """No criterion assumes the default 8..128 sweep."""
        report = verify_all(
            ExperimentConfig(scale=10, processor_counts=(4, 16, 64))
        )
        raised = [r for r in report.results if "check raised" in r.detail]
        assert not raised, raised
        spans = [r.detail for r in report.results if "->" in r.detail]
        assert spans and all("8->128P" not in d for d in spans)
        assert any("4->64P" in d for d in spans)


def test_cli_verify_subcommand(capsys):
    from repro.cli import main

    assert main(["verify", "--scale", "10"]) == 0
    out = capsys.readouterr().out
    assert "Verification scorecard" in out
    assert "criteria passed" in out


def test_scorecard_matches_committed_file(capsys):
    """``repro verify`` at scale 14 is the committed scorecard, byte for
    byte: a change that moves any criterion's number fails here."""
    from repro.cli import main

    committed = Path(__file__).resolve().parents[1] / "results"
    expected = (committed / "verify_scale14.txt").read_bytes()
    assert main(["verify", "--scale", "14", "--edge-factor", "16",
                 "--seed", "1"]) == 0
    assert capsys.readouterr().out.encode() == expected
