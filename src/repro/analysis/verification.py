"""Executable verification of the paper's claims.

EXPERIMENTS.md grades the reproduction against the paper's qualitative
and quantitative claims; this module makes that grading *runnable*:
every claim is a :class:`Criterion` with a check function over the
experiment results, and :func:`verify_all` evaluates the whole list —
``python -m repro.cli verify`` prints the scorecard, and the test
suite pins its scale-14 rendering to ``results/verify_scale14.txt``
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.experiments import (
    run_cluster_anecdotes,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
)
from repro.analysis.workload import ExperimentConfig

__all__ = ["Criterion", "CriterionResult", "VerificationReport", "verify_all"]


@dataclass(frozen=True)
class Criterion:
    """One checkable claim from the paper."""

    experiment: str
    claim: str
    check: Callable[[dict], tuple[bool, str]]


@dataclass(frozen=True)
class CriterionResult:
    experiment: str
    claim: str
    passed: bool
    detail: str


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


def _table1_criteria() -> list[Criterion]:
    def graphct_wins(ctx):
        ratios = {k: v["ratio"] for k, v in ctx["table1"].rows.items()}
        ok = all(r > 1.0 for r in ratios.values())
        return ok, ", ".join(f"{k}={v:.1f}:1" for k, v in ratios.items())

    def within_band(ctx):
        ratios = [v["ratio"] for v in ctx["table1"].rows.values()]
        ok = all(1.0 < r <= 20.0 for r in ratios)
        return ok, (
            f"ratios {', '.join(f'{r:.1f}' for r in ratios)} "
            f"(paper: 4.1/10.1/9.4, 'within a factor of 10')"
        )

    return [
        Criterion("Table I", "GraphCT wins every algorithm", graphct_wins),
        Criterion("Table I", "BSP within the factor-of-~10 band",
                  within_band),
    ]


def _fig1_criteria() -> list[Criterion]:
    def inflation(ctx):
        f1 = ctx["fig1"]
        value = f1.superstep_inflation
        return value >= 1.4, (
            f"{f1.bsp.num_supersteps} supersteps vs "
            f"{f1.graphct.num_iterations} iterations = {value:.2f}x "
            f"(paper: 13/6 = 2.2x; bar 1.4x at miniature scale)"
        )

    def collapse(ctx):
        msgs = ctx["fig1"].bsp.messages_per_superstep
        ok = msgs[0] > 100 * max(msgs[-2], 1)
        return ok, f"messages per superstep {msgs}"

    def constant_iterations(ctx):
        per = list(ctx["fig1"].graphct_times[128]["by_iteration"].values())
        ok = max(per) <= 1.2 * min(per)
        return ok, (
            f"per-iteration spread {max(per) / min(per):.3f}x "
            f"(constant-work claim)"
        )

    def heavy_scales(ctx):
        sweep = ctx["fig1"].bsp_times_paper_scale
        s = sweep[8]["by_iteration"][0] / sweep[128]["by_iteration"][0]
        return s > 8, f"superstep-0 speedup 8->128P = {s:.1f}x (ideal 16x)"

    def tail_flat(ctx):
        sweep = ctx["fig1"].bsp_times
        last = max(sweep[8]["by_iteration"])
        s = sweep[8]["by_iteration"][last] / sweep[128]["by_iteration"][last]
        return s < 1.5, f"last-superstep speedup 8->128P = {s:.2f}x (flat)"

    return [
        Criterion("Figure 1", "BSP superstep count inflated vs shared "
                              "memory", inflation),
        Criterion("Figure 1", "activity collapses after early supersteps",
                  collapse),
        Criterion("Figure 1", "shared-memory iterations constant work",
                  constant_iterations),
        Criterion("Figure 1", "heavy supersteps scale ~linearly",
                  heavy_scales),
        Criterion("Figure 1", "near-empty tail supersteps stop scaling",
                  tail_flat),
    ]


def _fig2_criteria() -> list[Criterion]:
    def apex_interior(ctx):
        f = ctx["fig2"].frontier_sizes
        apex = int(np.argmax(f))
        ok = 0 < apex < len(f) - 1
        return ok, f"frontier {f} (apex at level {apex})"

    def blowup(ctx):
        r = ctx["fig2"].peak_message_to_frontier_ratio
        return r > 10, (
            f"peak delivered/frontier = {r:.0f}x "
            f"(paper: 'an order of magnitude')"
        )

    def tail_decline(ctx):
        msgs = ctx["fig2"].bsp_messages
        apex = int(np.argmax(msgs))
        ok = all(msgs[i] >= msgs[i + 1] for i in range(apex, len(msgs) - 1))
        return ok, f"messages {msgs} decline monotonically past the apex"

    return [
        Criterion("Figure 2", "frontier ramps, peaks, contracts",
                  apex_interior),
        Criterion("Figure 2", "post-apex messages dwarf the true frontier",
                  blowup),
        Criterion("Figure 2", "messages decline exponentially at the tail",
                  tail_decline),
    ]


def _fig3_criteria() -> list[Criterion]:
    def apex_scales(ctx):
        f3 = ctx["fig3"]
        best = max(
            f3.speedup("graphct", lvl, paper_scale=True)
            for lvl in f3.levels
        )
        return best > 8, f"best per-level speedup {best:.1f}x (ideal 16x)"

    def edges_flat(ctx):
        f3 = ctx["fig3"]
        worst = min(
            f3.speedup("graphct", lvl, paper_scale=True)
            for lvl in f3.levels
        )
        return worst < 4, f"flattest per-level speedup {worst:.1f}x"

    def bsp_above(ctx):
        f3 = ctx["fig3"]
        ok = all(
            f3.bsp_total[p] > f3.graphct_total[p]
            for p in f3.config.processor_counts
        )
        return ok, "BSP total above GraphCT at every processor count"

    return [
        Criterion("Figure 3", "frontier-apex levels scale ~linearly",
                  apex_scales),
        Criterion("Figure 3", "early/late levels show flat scaling",
                  edges_flat),
        Criterion("Figure 3", "BSP per-level times above GraphCT's",
                  bsp_above),
    ]


def _fig4_criteria() -> list[Criterion]:
    def both_linear(ctx):
        f4 = ctx["fig4"]
        b = f4.speedup("bsp", paper_scale=True)
        g = f4.speedup("graphct", paper_scale=True)
        return b > 10 and g > 10, (
            f"speedups 8->128P: BSP {b:.1f}x, GraphCT {g:.1f}x"
        )

    def write_blowup(ctx):
        r = ctx["fig4"].write_ratio
        return r > 5, (
            f"BSP/GraphCT write ratio {r:.0f}x "
            f"(paper: 181x at scale 24; grows with scale)"
        )

    def counts_agree(ctx):
        f4 = ctx["fig4"]
        ok = f4.bsp.total_triangles == f4.graphct.total_triangles
        return ok, (
            f"{f4.bsp.possible_triangles:,} possible -> "
            f"{f4.bsp.total_triangles:,} actual triangles (both models)"
        )

    return [
        Criterion("Figure 4", "both models scale linearly", both_linear),
        Criterion("Figure 4", "BSP write volume dwarfs shared memory",
                  write_blowup),
        Criterion("Figure 4", "possible >> actual triangles, counts agree",
                  counts_agree),
    ]


def _anecdote_criteria() -> list[Criterion]:
    def within_oom(ctx):
        an = ctx["anecdotes"]
        ok = all(an.within_order_of_magnitude(k) for k in an.rows)
        detail = ", ".join(
            f"{k}: {v['simulated']:.0f}s vs ~{v['paper']:.0f}s"
            for k, v in an.rows.items()
        )
        return ok, detail

    def sssp_flat(ctx):
        flat = ctx["anecdotes"].sssp_flat_counts
        return 85 in flat, f"flat machine counts {flat} (paper: 30-85)"

    return [
        Criterion("Anecdotes", "cluster systems within an order of "
                               "magnitude", within_oom),
        Criterion("Anecdotes", "Giraph SSSP scaling goes flat", sssp_flat),
    ]


def verify_all(config: ExperimentConfig | None = None) -> VerificationReport:
    """Run every experiment and evaluate every claim."""
    config = config or ExperimentConfig()
    context = {
        "table1": run_table1(config),
        "fig1": run_fig1(config),
        "fig2": run_fig2(config),
        "fig3": run_fig3(config),
        "fig4": run_fig4(config),
        "anecdotes": run_cluster_anecdotes(config),
    }
    criteria = (
        _table1_criteria()
        + _fig1_criteria()
        + _fig2_criteria()
        + _fig3_criteria()
        + _fig4_criteria()
        + _anecdote_criteria()
    )
    report = VerificationReport(config=config)
    for criterion in criteria:
        try:
            passed, detail = criterion.check(context)
        except Exception as exc:  # surface, don't crash the scorecard
            passed, detail = False, f"check raised {exc!r}"
        report.results.append(
            CriterionResult(
                experiment=criterion.experiment,
                claim=criterion.claim,
                passed=passed,
                detail=detail,
            )
        )
    return report
