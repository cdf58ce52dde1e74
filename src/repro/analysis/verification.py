"""Executable verification of the paper's claims.

EXPERIMENTS.md grades the reproduction against the paper's qualitative
and quantitative claims; this module makes that grading *runnable*.
Every claim is a :class:`Criterion` carried by its experiment's entry in
the experiment table, :data:`repro.analysis.experiments.EXPERIMENTS`,
and checked against that experiment's result.  :func:`verify_all` walks
the table; each algorithm behind it is traced once per workload
(:func:`repro.analysis.workload.traced`), however many experiments price
it.  ``python -m repro.cli verify`` prints the scorecard, and the test
suite pins its scale-14 rendering to ``results/verify_scale14.txt``
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.workload import ExperimentConfig

__all__ = ["Criterion", "CriterionResult", "VerificationReport", "verify_all"]


@dataclass(frozen=True)
class CriterionResult:
    experiment: str
    claim: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    """One checkable claim from the paper: ``check(result)`` grades its
    experiment's result as ``(passed, detail)``."""

    claim: str
    check: Callable[[Any], tuple[bool, str]]

    def evaluate(self, experiment: str, result: Any) -> CriterionResult:
        """Grade ``result``; a check that raises is a failure, not a crash."""
        try:
            passed, detail = self.check(result)
        except Exception as exc:  # surface, don't crash the scorecard
            passed, detail = False, f"check raised {exc!r}"
        return CriterionResult(experiment, self.claim, passed, detail)


@dataclass
class VerificationReport:
    """Outcome of a full verification run."""

    config: ExperimentConfig
    results: list[CriterionResult] = field(default_factory=list)

    @property
    def num_passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def all_passed(self) -> bool:
        return self.num_passed == len(self.results)

    def render(self) -> str:
        lines = [
            f"Verification scorecard (RMAT scale {self.config.scale}, "
            f"seed {self.config.seed})",
            "=" * 64,
        ]
        current = None
        for r in self.results:
            if r.experiment != current:
                current = r.experiment
                lines.append(f"\n[{current}]")
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"  {mark}  {r.claim}")
            lines.append(f"        -> {r.detail}")
        lines.append(
            f"\n{self.num_passed}/{len(self.results)} criteria passed"
        )
        return "\n".join(lines)


def verify_all(config: ExperimentConfig | None = None) -> VerificationReport:
    """Run every experiment that carries criteria and evaluate them,
    Table I first, then in table order."""
    # The table names this function as the ``verify`` experiment.
    from repro.analysis.experiments import EXPERIMENTS

    config = config or ExperimentConfig()
    graded = [entry for entry in EXPERIMENTS.values() if entry.criteria]
    report = VerificationReport(config=config)
    for entry in sorted(graded, key=lambda entry: entry.title != "Table I"):
        result = entry.run(config)
        report.results += [c.evaluate(entry.title, result) for c in entry.criteria]
    return report
