"""Tests for the executable claim scorecard."""

from pathlib import Path

import pytest

from repro.analysis.verification import (
    Criterion,
    CriterionResult,
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
        report = VerificationReport(config=ExperimentConfig())
        crit = Criterion("X", "boom", lambda ctx: 1 / 0)
        try:
            passed, detail = crit.check({})
        except Exception as exc:
            passed, detail = False, f"check raised {exc!r}"
        report.results.append(
            CriterionResult("X", "boom", passed, detail)
        )
        assert not report.all_passed
        assert "FAIL" in report.render()


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
