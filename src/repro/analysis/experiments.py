"""The experiment table: the paper's figures and table, and every
``repro <name>``.

Each ``run_figN`` / ``run_table1`` / ``run_cluster_anecdotes`` prices,
on the XMT machine model at each processor count, the work traces of
algorithm runs that :func:`~repro.analysis.workload.traced` makes once
per workload.  Results carry both the simulated series and the raw
counts, plus the paper's reference values.

:data:`EXPERIMENTS` is the one list of experiments: each
:class:`Experiment` carries its run, its renderer, its ``--json``
section and its scorecard criteria, whose checks sit beside their
experiment below.  ``repro <name>``, ``repro all``, ``repro verify``
and ``--json`` are walks over it.  ``measured-vs-modeled``
(:func:`run_measured_vs_modeled`) is the one entry that reads a clock,
so it has neither a section nor criteria.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.charts import log_ascii_chart
from repro.analysis.report import (
    format_scaling_table,
    format_seconds,
    format_series,
    format_table1,
)
from repro.analysis.verification import Criterion, verify_all
from repro.analysis.workload import (
    ExperimentConfig,
    Workload,
    build_workload,
    traced,
)
from repro.bsp import BSPEngine, make_engine
from repro.bsp_algorithms.bfs import (
    BSPBFSResult,
    BSPBreadthFirstSearch,
    bsp_breadth_first_search,
)
from repro.bsp_algorithms.connected_components import (
    BSPComponentsResult,
    BSPConnectedComponents,
    bsp_connected_components,
)
from repro.bsp_algorithms.triangles import BSPTriangleResult
from repro.graphct.bfs import BFSResult
from repro.graphct.connected_components import ComponentsResult
from repro.graphct.triangles import TriangleResult
from repro.telemetry.core import MAIN_TRACK, Telemetry
from repro.xmt.cost_model import simulate
from repro.xmt.trace import WorkTrace

__all__ = [
    "ALL",
    "EXPERIMENTS",
    "ClusterAnecdotesResult",
    "Experiment",
    "run_cluster_anecdotes",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "MEASURED_ENGINES",
    "MeasuredVsModeledResult",
    "Table1Result",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_measured_vs_modeled",
    "run_table1",
]

#: Reference values from the paper (128-processor Cray XMT, scale-24 RMAT).
PAPER_TABLE1 = {
    "connected_components": {"bsp": 5.40, "graphct": 1.31, "ratio": 4.1},
    "breadth_first_search": {"bsp": 3.12, "graphct": 0.310, "ratio": 10.1},
    "triangle_counting": {"bsp": 444.0, "graphct": 47.4, "ratio": 9.4},
}


@dataclass(frozen=True)
class Experiment:
    """One ``repro <name>``: how it runs, prints and is graded."""

    #: ``config -> result``.
    run: Callable[[ExperimentConfig], Any]
    #: ``(result, paper_scale, chart) -> text``.
    render: Callable[[Any, bool, bool], str]
    #: ``result -> dict``, the experiment's ``--json`` section; the
    #: experiments that have one are :data:`ALL`.
    section: Callable[[Any], dict] | None = None
    #: The scorecard heading of :attr:`criteria`.
    title: str = ""
    criteria: tuple[Criterion, ...] = ()


def _sweep(
    trace: WorkTrace, config: ExperimentConfig, *, extrapolate: bool = False
) -> dict[int, dict]:
    """Price ``trace`` at every processor count.

    ``extrapolate`` scales per-region work to the paper's graph size
    first (the miniature's active sets are too small to saturate 128
    simulated processors; the paper-scale sweep restores the regime the
    paper's scaling plots live in).

    Returns ``{P: {"total": seconds, "by_iteration": {i: seconds}}}``.
    """
    if extrapolate:
        trace = trace.scaled(config.extrapolation_factor)
    out: dict[int, dict] = {}
    for p in config.processor_counts:
        run = simulate(trace, config.machine(p))
        out[p] = {
            "total": run.total_seconds,
            "by_iteration": run.seconds_by_iteration(),
        }
    return out


def _totals(
    trace: WorkTrace, config: ExperimentConfig, *, extrapolate: bool = False
) -> dict[int, float]:
    """``{P: total seconds}`` of :func:`_sweep`."""
    sweep = _sweep(trace, config, extrapolate=extrapolate)
    return {p: priced["total"] for p, priced in sweep.items()}


def _ends(config: ExperimentConfig) -> tuple[int, int]:
    """The smallest and largest processor counts of the sweep."""
    return min(config.processor_counts), max(config.processor_counts)


# ----------------------------------------------------------------------
# Figure 1 — connected components time per superstep/iteration
# ----------------------------------------------------------------------
@dataclass
class Fig1Result:
    """Connected-components execution time by iteration (paper Fig. 1)."""

    config: ExperimentConfig
    bsp: BSPComponentsResult
    graphct: ComponentsResult
    #: {P: {"total": s, "by_iteration": {i: s}}} for each model.
    bsp_times: dict[int, dict] = field(default_factory=dict)
    graphct_times: dict[int, dict] = field(default_factory=dict)
    #: The same sweeps with work extrapolated to the paper's scale-24
    #: input (the regime of the published figure).
    bsp_times_paper_scale: dict[int, dict] = field(default_factory=dict)
    graphct_times_paper_scale: dict[int, dict] = field(default_factory=dict)

    @property
    def superstep_inflation(self) -> float:
        """BSP supersteps / shared-memory iterations.

        Paper: 13 vs 6 (2.2x) at scale 24; the gap narrows at miniature
        scale because both counts track graph eccentricity.  >= 1.4x is
        the miniature-scale acceptance bar (see EXPERIMENTS.md).
        """
        return self.bsp.num_supersteps / self.graphct.num_iterations

    def totals_at(self, processors: int) -> tuple[float, float]:
        return (
            self.bsp_times[processors]["total"],
            self.graphct_times[processors]["total"],
        )


def run_fig1(config: ExperimentConfig | None = None) -> Fig1Result:
    """Reproduce Figure 1 on the configured workload."""
    config = config or ExperimentConfig()
    bsp, shm = traced("bsp_cc", config), traced("graphct_cc", config)
    return Fig1Result(
        config=config,
        bsp=bsp,
        graphct=shm,
        bsp_times=_sweep(bsp.trace, config),
        graphct_times=_sweep(shm.trace, config),
        bsp_times_paper_scale=_sweep(bsp.trace, config, extrapolate=True),
        graphct_times_paper_scale=_sweep(shm.trace, config, extrapolate=True),
    )


def _render_fig1(res: Fig1Result, paper_scale: bool, chart: bool) -> str:
    counts = res.config.processor_counts
    sweeps = (
        res.bsp_times_paper_scale if paper_scale else res.bsp_times,
        res.graphct_times_paper_scale if paper_scale else res.graphct_times,
    )
    charts, out = [], []
    for name, sweep in zip(("BSP", "GraphCT"), sweeps):
        iters = sorted(next(iter(sweep.values()))["by_iteration"])
        if chart:
            series = {
                f"P={p}": [sweep[p]["by_iteration"][i] for i in iters]
                for p in counts
            }
            charts.append(log_ascii_chart(
                f"Figure 1 ({name}): seconds per iteration (log y)",
                series, x_labels=iters,
            ))
        columns = [
            (f"P={p}", [format_seconds(sweep[p]["by_iteration"][i])
                        for i in iters])
            for p in counts
        ]
        out.append(
            format_series(
                f"Figure 1 ({name}): connected components time per "
                f"{'superstep' if name == 'BSP' else 'iteration'}",
                iters,
                *columns,
            )
        )
    out.append(
        f"\nBSP supersteps: {res.bsp.num_supersteps}, GraphCT iterations: "
        f"{res.graphct.num_iterations} "
        f"(inflation {res.superstep_inflation:.2f}x; paper: 13 vs 6)"
    )
    p = max(counts)
    b, g = res.totals_at(p)
    out.append(
        f"Totals at P={p}: BSP {format_seconds(b)}, "
        f"GraphCT {format_seconds(g)} (paper: 5.40s vs 1.31s)"
    )
    return "\n\n".join(charts + out)


def _fig1_section(res: Fig1Result) -> dict:
    counts = res.config.processor_counts
    return {
        "bsp_supersteps": res.bsp.num_supersteps,
        "graphct_iterations": res.graphct.num_iterations,
        "superstep_inflation": res.superstep_inflation,
        "bsp_messages_per_superstep": res.bsp.messages_per_superstep,
        "bsp_seconds_by_superstep": {
            p: list(res.bsp_times[p]["by_iteration"].values()) for p in counts
        },
        "graphct_seconds_by_iteration": {
            p: list(res.graphct_times[p]["by_iteration"].values())
            for p in counts
        },
        "paper": {"bsp_supersteps": 13, "graphct_iterations": 6},
    }


def _fig1_inflation(res: Fig1Result) -> tuple[bool, str]:
    value = res.superstep_inflation
    return value >= 1.4, (
        f"{res.bsp.num_supersteps} supersteps vs "
        f"{res.graphct.num_iterations} iterations = {value:.2f}x "
        f"(paper: 13/6 = 2.2x; bar 1.4x at miniature scale)"
    )


def _fig1_collapse(res: Fig1Result) -> tuple[bool, str]:
    msgs = res.bsp.messages_per_superstep
    return msgs[0] > 100 * max(msgs[-2], 1), f"messages per superstep {msgs}"


def _fig1_constant_iterations(res: Fig1Result) -> tuple[bool, str]:
    _, hi = _ends(res.config)
    per = list(res.graphct_times[hi]["by_iteration"].values())
    return max(per) <= 1.2 * min(per), (
        f"per-iteration spread {max(per) / min(per):.3f}x "
        f"(constant-work claim)"
    )


def _fig1_heavy_scales(res: Fig1Result) -> tuple[bool, str]:
    lo, hi = _ends(res.config)
    sweep = res.bsp_times_paper_scale
    s = sweep[lo]["by_iteration"][0] / sweep[hi]["by_iteration"][0]
    return s > 8, (
        f"superstep-0 speedup {lo}->{hi}P = {s:.1f}x (ideal {hi / lo:g}x)"
    )


def _fig1_tail_flat(res: Fig1Result) -> tuple[bool, str]:
    lo, hi = _ends(res.config)
    sweep = res.bsp_times
    last = max(sweep[lo]["by_iteration"])
    s = sweep[lo]["by_iteration"][last] / sweep[hi]["by_iteration"][last]
    return s < 1.5, f"last-superstep speedup {lo}->{hi}P = {s:.2f}x (flat)"


# ----------------------------------------------------------------------
# Figure 2 — BFS frontier size vs messages generated
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    """Frontier size (GraphCT) vs message count (BSP) per level."""

    config: ExperimentConfig
    source: int
    #: GraphCT's true frontier per level — the red series.
    frontier_sizes: list[int]
    #: BSP messages generated per superstep — the green series.
    bsp_messages: list[int]
    bsp_result: BSPBFSResult = None
    graphct_result: BFSResult = None

    @property
    def peak_message_to_frontier_ratio(self) -> float:
        """Messages *delivered* at a level vs. that level's true frontier,
        maximized over post-apex levels.

        Messages sent during superstep s-1 arrive at superstep s, where
        only ``frontier_sizes[s]`` vertices are genuinely new — the rest
        of the deliveries are discarded (paper: "an order of magnitude
        larger than the real frontier").
        """
        apex = int(np.argmax(self.frontier_sizes))
        best = 0.0
        for level in range(apex + 1, len(self.frontier_sizes)):
            f = self.frontier_sizes[level]
            if f > 0 and level - 1 < len(self.bsp_messages):
                best = max(best, self.bsp_messages[level - 1] / f)
        return best


def run_fig2(config: ExperimentConfig | None = None) -> Fig2Result:
    """Reproduce Figure 2 on the configured workload."""
    wl = build_workload(config)
    shm, bsp = traced("graphct_bfs", wl.config), traced("bsp_bfs", wl.config)
    return Fig2Result(
        config=wl.config,
        source=wl.bfs_source,
        frontier_sizes=list(shm.frontier_sizes),
        bsp_messages=list(bsp.messages_per_superstep),
        bsp_result=bsp,
        graphct_result=shm,
    )


def _render_fig2(res: Fig2Result, paper_scale: bool, chart: bool) -> str:
    if chart:
        plot = log_ascii_chart(
            "Figure 2: frontier (GraphCT) vs messages (BSP), log y",
            {"frontier": res.frontier_sizes, "messages": res.bsp_messages},
            x_labels=list(range(len(res.bsp_messages))),
        )
        return (
            f"{plot}\n\npeak delivered-messages/frontier after the apex: "
            f"{res.peak_message_to_frontier_ratio:.0f}x"
        )
    table = format_series(
        "Figure 2: BFS frontier size vs BSP messages per level",
        list(range(max(len(res.frontier_sizes), len(res.bsp_messages)))),
        ("frontier (GraphCT)", res.frontier_sizes),
        ("messages (BSP)", res.bsp_messages),
    )
    return (
        f"{table}\n\npeak delivered-messages/frontier after the apex: "
        f"{res.peak_message_to_frontier_ratio:.0f}x "
        f"(paper: 'an order of magnitude larger')"
    )


def _fig2_section(res: Fig2Result) -> dict:
    return {
        "frontier_sizes": res.frontier_sizes,
        "bsp_messages": res.bsp_messages,
        "peak_delivered_to_frontier": res.peak_message_to_frontier_ratio,
    }


def _fig2_apex_interior(res: Fig2Result) -> tuple[bool, str]:
    f = res.frontier_sizes
    apex = int(np.argmax(f))
    return 0 < apex < len(f) - 1, f"frontier {f} (apex at level {apex})"


def _fig2_blowup(res: Fig2Result) -> tuple[bool, str]:
    r = res.peak_message_to_frontier_ratio
    return r > 10, (
        f"peak delivered/frontier = {r:.0f}x "
        f"(paper: 'an order of magnitude')"
    )


def _fig2_tail_decline(res: Fig2Result) -> tuple[bool, str]:
    msgs = res.bsp_messages
    apex = int(np.argmax(msgs))
    ok = all(msgs[i] >= msgs[i + 1] for i in range(apex, len(msgs) - 1))
    return ok, f"messages {msgs} decline monotonically past the apex"


# ----------------------------------------------------------------------
# Figure 3 — BFS per-level scalability
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    """Per-level time vs processor count for the middle BFS levels."""

    config: ExperimentConfig
    source: int
    #: Levels plotted (the paper uses 3..8 on a 10-level BFS at scale 24;
    #: the miniature plots its own middle band).
    levels: list[int]
    #: {model: {level: {P: seconds}}} at miniature scale.
    series: dict[str, dict[int, dict[int, float]]]
    #: Same series with work extrapolated to the paper's scale.
    series_paper_scale: dict[str, dict[int, dict[int, float]]]
    bsp_total: dict[int, float]
    graphct_total: dict[int, float]

    def speedup(self, model: str, level: int, *, paper_scale: bool = False) -> float:
        """time(P_min) / time(P_max) for one level's series."""
        source = self.series_paper_scale if paper_scale else self.series
        s = source[model][level]
        pmin, pmax = min(s), max(s)
        return s[pmin] / s[pmax] if s[pmax] > 0 else float("inf")


def run_fig3(config: ExperimentConfig | None = None) -> Fig3Result:
    """Reproduce Figure 3 on the configured workload."""
    wl = build_workload(config)
    shm, bsp = traced("graphct_bfs", wl.config), traced("bsp_bfs", wl.config)

    # The paper's levels 3-8 are the middle band of a ~10-level BFS;
    # take the analogous interior band here (skip first and last level).
    levels = list(range(1, max(shm.num_levels - 1, 2)))

    def series(extrapolate: bool) -> dict[str, dict[int, dict[int, float]]]:
        out = {}
        for model, run in (("bsp", bsp), ("graphct", shm)):
            sweep = _sweep(run.trace, wl.config, extrapolate=extrapolate)
            out[model] = {
                level: {
                    p: priced["by_iteration"].get(level, 0.0)
                    for p, priced in sweep.items()
                }
                for level in levels
            }
        return out

    return Fig3Result(
        config=wl.config,
        source=wl.bfs_source,
        levels=levels,
        series=series(False),
        series_paper_scale=series(True),
        bsp_total=_totals(bsp.trace, wl.config),
        graphct_total=_totals(shm.trace, wl.config),
    )


def _render_fig3(res: Fig3Result, paper_scale: bool, chart: bool) -> str:
    counts = res.config.processor_counts
    series = res.series_paper_scale if paper_scale else res.series
    out = [
        format_scaling_table(
            f"Figure 3 ({model}): BFS per-level time vs processors"
            + (" [paper-scale work]" if paper_scale else ""),
            counts,
            {f"level {lvl}": series[model][lvl] for lvl in res.levels},
        )
        for model in ("bsp", "graphct")
    ]
    p = max(counts)
    out.append(
        f"\nTotals at P={p}: BSP {format_seconds(res.bsp_total[p])}, "
        f"GraphCT {format_seconds(res.graphct_total[p])} "
        f"(paper: 3.12s vs 310ms)"
    )
    return "\n\n".join(out)


def _fig3_section(res: Fig3Result) -> dict:
    return {
        "levels": res.levels,
        "series": {
            model: {str(lvl): dict(times) for lvl, times in by_level.items()}
            for model, by_level in res.series.items()
        },
        "bsp_total": res.bsp_total,
        "graphct_total": res.graphct_total,
        "paper": {"bsp_total_128": 3.12, "graphct_total_128": 0.310},
    }


def _fig3_apex_scales(res: Fig3Result) -> tuple[bool, str]:
    lo, hi = _ends(res.config)
    best = max(
        res.speedup("graphct", lvl, paper_scale=True) for lvl in res.levels
    )
    return best > 8, (
        f"best per-level speedup {best:.1f}x (ideal {hi / lo:g}x)"
    )


def _fig3_edges_flat(res: Fig3Result) -> tuple[bool, str]:
    worst = min(
        res.speedup("graphct", lvl, paper_scale=True) for lvl in res.levels
    )
    return worst < 4, f"flattest per-level speedup {worst:.1f}x"


def _fig3_bsp_above(res: Fig3Result) -> tuple[bool, str]:
    ok = all(
        res.bsp_total[p] > res.graphct_total[p]
        for p in res.config.processor_counts
    )
    return ok, "BSP total above GraphCT at every processor count"


# ----------------------------------------------------------------------
# Figure 4 — triangle counting scalability + message accounting
# ----------------------------------------------------------------------
@dataclass
class Fig4Result:
    """Triangle-counting time vs processor count (paper Fig. 4)."""

    config: ExperimentConfig
    bsp: BSPTriangleResult
    graphct: TriangleResult
    bsp_times: dict[int, float] = field(default_factory=dict)
    graphct_times: dict[int, float] = field(default_factory=dict)
    bsp_times_paper_scale: dict[int, float] = field(default_factory=dict)
    graphct_times_paper_scale: dict[int, float] = field(default_factory=dict)

    @property
    def write_ratio(self) -> float:
        """BSP writes / shared-memory writes.

        Paper: 181x at scale 24.  The ratio tracks wedges/triangles,
        which shrinks at miniature scale (RMAT miniatures are relatively
        triangle-dense); >= 5x is the miniature acceptance bar.
        """
        shm_writes = self.graphct.trace.total_writes
        return self.bsp.trace.total_writes / max(shm_writes, 1.0)

    def speedup(self, model: str, *, paper_scale: bool = False) -> float:
        if paper_scale:
            times = (
                self.bsp_times_paper_scale
                if model == "bsp"
                else self.graphct_times_paper_scale
            )
        else:
            times = self.bsp_times if model == "bsp" else self.graphct_times
        pmin, pmax = min(times), max(times)
        return times[pmin] / times[pmax]


def run_fig4(config: ExperimentConfig | None = None) -> Fig4Result:
    """Reproduce Figure 4 on the configured workload."""
    config = config or ExperimentConfig()
    bsp, shm = traced("bsp_tc", config), traced("graphct_tc", config)
    return Fig4Result(
        config=config,
        bsp=bsp,
        graphct=shm,
        bsp_times=_totals(bsp.trace, config),
        graphct_times=_totals(shm.trace, config),
        bsp_times_paper_scale=_totals(bsp.trace, config, extrapolate=True),
        graphct_times_paper_scale=_totals(
            shm.trace, config, extrapolate=True
        ),
    )


def _render_fig4(res: Fig4Result, paper_scale: bool, chart: bool) -> str:
    series = {
        "BSP": res.bsp_times_paper_scale if paper_scale else res.bsp_times,
        "GraphCT": (
            res.graphct_times_paper_scale if paper_scale
            else res.graphct_times
        ),
    }
    if chart:
        return log_ascii_chart(
            "Figure 4: triangle counting, seconds vs processors (log y)",
            {name: list(times.values()) for name, times in series.items()},
            x_labels=list(res.config.processor_counts),
        )
    table = format_scaling_table(
        "Figure 4: triangle counting time vs processors"
        + (" [paper-scale work]" if paper_scale else ""),
        res.config.processor_counts,
        series,
    )
    return (
        f"{table}\n\n"
        f"possible triangles (messages): {res.bsp.possible_triangles:,} | "
        f"actual triangles: {res.bsp.total_triangles:,} | "
        f"BSP/GraphCT write ratio: {res.write_ratio:.0f}x\n"
        f"(paper: 5.5B possible, 30.9M actual, 181x writes, "
        f"444s vs 47.4s at 128P)"
    )


def _fig4_section(res: Fig4Result) -> dict:
    return {
        "bsp_times": res.bsp_times,
        "graphct_times": res.graphct_times,
        "possible_triangles": res.bsp.possible_triangles,
        "actual_triangles": res.bsp.total_triangles,
        "write_ratio": res.write_ratio,
        "paper": {
            "bsp_128": 444.0, "graphct_128": 47.4,
            "possible": 5.5e9, "actual": 30.9e6, "write_ratio": 181,
        },
    }


def _fig4_both_linear(res: Fig4Result) -> tuple[bool, str]:
    lo, hi = _ends(res.config)
    b = res.speedup("bsp", paper_scale=True)
    g = res.speedup("graphct", paper_scale=True)
    return b > 10 and g > 10, (
        f"speedups {lo}->{hi}P: BSP {b:.1f}x, GraphCT {g:.1f}x"
    )


def _fig4_write_blowup(res: Fig4Result) -> tuple[bool, str]:
    r = res.write_ratio
    return r > 5, (
        f"BSP/GraphCT write ratio {r:.0f}x "
        f"(paper: 181x at scale 24; grows with scale)"
    )


def _fig4_counts_agree(res: Fig4Result) -> tuple[bool, str]:
    ok = res.bsp.total_triangles == res.graphct.total_triangles
    return ok, (
        f"{res.bsp.possible_triangles:,} possible -> "
        f"{res.bsp.total_triangles:,} actual triangles (both models)"
    )


# ----------------------------------------------------------------------
# Table I — total execution times at full machine size
# ----------------------------------------------------------------------
@dataclass
class Table1Result:
    """Total times on the full machine for all three algorithms."""

    config: ExperimentConfig
    #: {algorithm: {"bsp": s, "graphct": s, "ratio": x}} at max P.
    rows: dict[str, dict[str, float]]
    #: Same rows with per-iteration work extrapolated to the paper's
    #: scale-24 input (see ExperimentConfig.extrapolation_factor).
    extrapolated_rows: dict[str, dict[str, float]]
    #: The paper's values for side-by-side reporting.
    paper_rows: dict[str, dict[str, float]] = field(
        default_factory=lambda: {k: dict(v) for k, v in PAPER_TABLE1.items()}
    )

    @property
    def max_ratio(self) -> float:
        return max(r["ratio"] for r in self.rows.values())


def run_table1(config: ExperimentConfig | None = None) -> Table1Result:
    """Reproduce Table I on the configured workload."""
    config = config or ExperimentConfig()
    machine = config.machine(max(config.processor_counts))
    factor = config.extrapolation_factor

    rows: dict[str, dict[str, float]] = {}
    extrapolated: dict[str, dict[str, float]] = {}
    for name, kernel in (
        ("connected_components", "cc"),
        ("breadth_first_search", "bfs"),
        ("triangle_counting", "tc"),
    ):
        traces = [traced(f"{m}_{kernel}", config).trace for m in ("bsp", "graphct")]
        for out, priced in (
            (rows, traces), (extrapolated, [t.scaled(factor) for t in traces])
        ):
            bsp_s, shm_s = (simulate(t, machine).total_seconds for t in priced)
            out[name] = {"bsp": bsp_s, "graphct": shm_s, "ratio": bsp_s / shm_s}

    return Table1Result(
        config=config, rows=rows, extrapolated_rows=extrapolated
    )


def _render_table1(res: Table1Result, paper_scale: bool, chart: bool) -> str:
    title = (
        f"Table I: execution times at P={max(res.config.processor_counts)}"
        + (" [paper-scale work]" if paper_scale else
           f" [RMAT scale {res.config.scale}]")
    )
    rows = res.extrapolated_rows if paper_scale else res.rows
    return format_table1(rows, title=title, paper_rows=res.paper_rows)


def _table1_section(res: Table1Result) -> dict:
    return {
        "processors": max(res.config.processor_counts),
        "rows": res.rows,
        "extrapolated_rows": res.extrapolated_rows,
        "paper_rows": res.paper_rows,
    }


def _table1_graphct_wins(res: Table1Result) -> tuple[bool, str]:
    ratios = {k: v["ratio"] for k, v in res.rows.items()}
    ok = all(r > 1.0 for r in ratios.values())
    return ok, ", ".join(f"{k}={v:.1f}:1" for k, v in ratios.items())


def _table1_within_band(res: Table1Result) -> tuple[bool, str]:
    ratios = [v["ratio"] for v in res.rows.values()]
    ok = all(1.0 < r <= 20.0 for r in ratios)
    return ok, (
        f"ratios {', '.join(f'{r:.1f}' for r in ratios)} "
        f"(paper: 4.1/10.1/9.4, 'within a factor of 10')"
    )


# ----------------------------------------------------------------------
# Cluster anecdotes (§III–§IV narrative comparisons)
# ----------------------------------------------------------------------
@dataclass
class ClusterAnecdotesResult:
    """Order-of-magnitude checks against the cited distributed systems."""

    #: {name: {"simulated": s, "paper": s, "machines": M}}.
    rows: dict[str, dict[str, float]]
    #: Machine counts at which Giraph-SSSP scaling went flat.
    sssp_flat_counts: list[int]

    def within_order_of_magnitude(self, name: str) -> bool:
        row = self.rows[name]
        ratio = row["simulated"] / row["paper"]
        return 0.1 <= ratio <= 10.0


def run_cluster_anecdotes(
    config: ExperimentConfig | None = None,
) -> ClusterAnecdotesResult:
    """Reproduce the paper's three distributed-BSP anecdotes.

    Each anecdote's workload is a miniature with the same shape, whose
    BSP trace is extrapolated to the cited graph size and priced on the
    cited cluster:

    * Giraph connected components, Wikipedia-scale (6M vertices / 200M
      edges), 6 nodes — "approximately 4 seconds", 12 supersteps;
    * Giraph SSSP, Twitter (43.7M / 688M), 60 machines — ~30 s, flat
      scaling from 30 to 85 machines (Kajdanowicz et al.);
    * Trinity BFS, RMAT 512M / 6.6B, 14 machines — ~400 s.
    """
    from repro.cluster.model import (
        ClusterMachine,
        flat_scaling_range,
        simulate_cluster_bsp,
    )

    wl = build_workload(config)
    arcs = wl.graph.num_arcs

    rows: dict[str, dict[str, float]] = {}

    # Giraph CC on Wikipedia: ~200M edges (400M arcs), 6M vertices,
    # 6 nodes, ~4 s in 12 supersteps.  Giraph's CC job uses a min
    # combiner, so at most (receiving vertices x machines) messages cross
    # the network per superstep.
    cc = traced("bsp_cc", wl.config)
    factor = 400e6 / arcs
    combiner_cap = 6e6 * 6
    msgs = [
        int(min(m * factor, combiner_cap))
        for m in cc.messages_per_superstep
    ]
    sim = simulate_cluster_bsp(
        cc.trace.scaled(factor),
        ClusterMachine(num_machines=6),
        messages_per_superstep=msgs,
    )
    rows["giraph_cc_wikipedia"] = {
        "simulated": sim.total_seconds, "paper": 4.0, "machines": 6
    }

    # Giraph SSSP on Twitter: ~688M edges (1.38B arcs), 60 machines, ~30 s.
    sssp_run = traced("bsp_sssp", wl.config)
    factor = 1.376e9 / arcs
    scaled = sssp_run.trace.scaled(factor)
    msgs = [int(m * factor) for m in sssp_run.messages_per_superstep]
    cluster60 = ClusterMachine(num_machines=60)
    sim = simulate_cluster_bsp(scaled, cluster60, messages_per_superstep=msgs)
    rows["giraph_sssp_twitter"] = {
        "simulated": sim.total_seconds, "paper": 30.0, "machines": 60
    }
    flat = flat_scaling_range(
        scaled, cluster60, [30, 40, 50, 60, 70, 85]
    )

    # Trinity BFS on RMAT 512M/6.6B (13.2B arcs), 14 machines, ~400 s.
    bfs_run = traced("bsp_bfs", wl.config)
    factor = 13.2e9 / arcs
    sim = simulate_cluster_bsp(
        bfs_run.trace.scaled(factor),
        ClusterMachine(num_machines=14),
        messages_per_superstep=[
            int(m * factor) for m in bfs_run.messages_per_superstep
        ],
    )
    rows["trinity_bfs_rmat"] = {
        "simulated": sim.total_seconds, "paper": 400.0, "machines": 14
    }

    return ClusterAnecdotesResult(rows=rows, sssp_flat_counts=flat)


def _render_anecdotes(
    res: ClusterAnecdotesResult, paper_scale: bool, chart: bool
) -> str:
    lines = ["Distributed-BSP anecdotes (order-of-magnitude checks)",
             "=" * 54]
    for name, row in res.rows.items():
        ok = "OK " if res.within_order_of_magnitude(name) else "OFF"
        lines.append(
            f"[{ok}] {name}: simulated {format_seconds(row['simulated'])} "
            f"vs paper ~{format_seconds(row['paper'])} "
            f"on {int(row['machines'])} machines"
        )
    lines.append(
        f"Giraph SSSP flat-scaling machine counts: {res.sssp_flat_counts} "
        f"(paper: flat from 30 to 85)"
    )
    return "\n".join(lines)


def _anecdotes_section(res: ClusterAnecdotesResult) -> dict:
    return {"rows": res.rows, "sssp_flat_counts": res.sssp_flat_counts}


def _anecdotes_within_oom(res: ClusterAnecdotesResult) -> tuple[bool, str]:
    ok = all(res.within_order_of_magnitude(k) for k in res.rows)
    return ok, ", ".join(
        f"{k}: {v['simulated']:.0f}s vs ~{v['paper']:.0f}s"
        for k, v in res.rows.items()
    )


def _anecdotes_sssp_flat(res: ClusterAnecdotesResult) -> tuple[bool, str]:
    flat = res.sssp_flat_counts
    return 85 in flat, f"flat machine counts {flat} (paper: 30-85)"


# ----------------------------------------------------------------------
# Beyond the paper: Graph500 and the ablations
# ----------------------------------------------------------------------
def _run_graph500(config: ExperimentConfig) -> Any:
    from repro.analysis.graph500 import run_graph500

    return run_graph500(
        scale=config.scale, edge_factor=config.edge_factor,
        num_searches=8, seed=config.seed,
    )


def _render_graph500(res: Any, paper_scale: bool, chart: bool) -> str:
    lines = [
        f"Graph500-style run (scale {res.scale}, {res.num_searches} "
        f"validated searches)",
        "=" * 60,
    ]
    for model in ("graphct", "bsp"):
        lines.append(
            f"harmonic-mean simulated TEPS [{model:7s}]: "
            f"{res.harmonic_mean_teps(model):.3e}"
        )
    lines.append(
        f"edges traversed per search: "
        f"{[f'{e:,}' for e in res.edges_traversed]}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Measured vs. modeled — each engine's wall clock beside the model
# ----------------------------------------------------------------------
#: The measured columns: ``make_engine`` ``(mode, num_workers)`` by name;
#: ``None`` is the per-vertex reference :class:`~repro.bsp.BSPEngine`.
MEASURED_ENGINES: dict[str, tuple[str, int | None] | None] = {
    "reference": None,
    "dense": ("dense", None),
    "sharded W=1": ("sharded", 1),
    "sharded W=2": ("sharded", 2),
}


@dataclass
class MeasuredVsModeledResult:
    """CC and BFS per superstep: the model's price beside the wall clock
    of every engine that ran them."""

    config: ExperimentConfig
    #: ``{"cc" | "bfs": the memoized traced() run}`` — the model side.
    modeled: dict[str, Any]
    #: ``{algorithm: {superstep: seconds}}`` at the largest processor
    #: count, and the same with work extrapolated to the paper's scale.
    modeled_seconds: dict[str, dict[int, float]]
    modeled_seconds_paper_scale: dict[str, dict[int, float]]
    #: ``{algorithm: {engine: (work trace, telemetry)}}`` — the measured
    #: side, one run per :data:`MEASURED_ENGINES` entry.
    measured: dict[str, dict[str, tuple[WorkTrace, Telemetry]]]

    def rows(self, algorithm: str, *, paper_scale: bool = False) -> list[dict]:
        """One row per superstep, joined on its index: ``active``,
        ``sent``, ``modeled`` seconds, each engine's measured seconds and
        where the W = 2 engine ran it (``parent``, ``workers``, or ``-``
        when nothing was sent)."""
        run = self.modeled[algorithm]
        modeled = (
            self.modeled_seconds_paper_scale if paper_scale
            else self.modeled_seconds
        )[algorithm]
        measured = {
            engine: {
                s.superstep: s.duration_seconds
                for s in tel.spans_named("superstep", track=MAIN_TRACK)
            }
            for engine, (_, tel) in self.measured[algorithm].items()
        }
        _, sharded = self.measured[algorithm]["sharded W=2"]
        local = {
            c.superstep: c.value
            for c in sharded.counters if c.name == "local_superstep"
        }
        return [
            {
                "superstep": i,
                "active": active,
                "sent": sent,
                "modeled": modeled[i],
                **{engine: by_step[i] for engine, by_step in measured.items()},
                "placement": (
                    ("parent" if local[i] else "workers") if i in local
                    else "-"
                ),
            }
            for i, (active, sent) in enumerate(
                zip(run.active_per_superstep, run.messages_per_superstep)
            )
        ]


def _measure(
    wl: Workload, algorithm: str, engine: tuple[str, int | None] | None
) -> tuple[WorkTrace, Telemetry]:
    """Run ``algorithm`` on ``engine`` with a :class:`Telemetry` on."""
    tel = Telemetry(f"{algorithm} {engine}")
    graph, source = wl.graph, wl.bfs_source
    if engine is None:
        program = (
            BSPConnectedComponents() if algorithm == "cc"
            else BSPBreadthFirstSearch(source)
        )
        result = BSPEngine(graph, telemetry=tel).run(
            program, trace_label=f"bsp/{algorithm}"
        )
        return result.trace, tel
    mode, workers = engine
    with make_engine(graph, mode, num_workers=workers, telemetry=tel) as eng:
        run = (
            bsp_connected_components(graph, engine=eng) if algorithm == "cc"
            else bsp_breadth_first_search(graph, source, engine=eng)
        )
    return run.trace, tel


def run_measured_vs_modeled(
    config: ExperimentConfig | None = None,
) -> MeasuredVsModeledResult:
    """Price CC and BFS per superstep at the largest processor count and
    run each on every engine of :data:`MEASURED_ENGINES`."""
    wl = build_workload(config)
    top = max(wl.config.processor_counts)
    res = MeasuredVsModeledResult(wl.config, {}, {}, {}, {})
    for algorithm in ("cc", "bfs"):
        run = res.modeled[algorithm] = traced(f"bsp_{algorithm}", wl.config)
        for extrapolate, out in (
            (False, res.modeled_seconds),
            (True, res.modeled_seconds_paper_scale),
        ):
            sweep = _sweep(run.trace, wl.config, extrapolate=extrapolate)
            out[algorithm] = sweep[top]["by_iteration"]
        res.measured[algorithm] = {
            name: _measure(wl, algorithm, engine)
            for name, engine in MEASURED_ENGINES.items()
        }
    return res


def _render_measured_vs_modeled(
    res: MeasuredVsModeledResult, paper_scale: bool, chart: bool
) -> str:
    top = max(res.config.processor_counts)
    out = []
    for algorithm in res.modeled:
        rows = res.rows(algorithm, paper_scale=paper_scale)
        total = {
            key: sum(r[key] for r in rows)
            for key in ("active", "sent", "modeled", *MEASURED_ENGINES)
        }
        rows.append({**total, "superstep": "all", "placement": ""})
        out.append(format_series(
            f"Measured vs. modeled: BSP {algorithm.upper()} per superstep "
            f"(RMAT scale {res.config.scale}"
            + (", paper-scale work)" if paper_scale else ")"),
            [r["superstep"] for r in rows],
            ("active", [r["active"] for r in rows]),
            ("sent", [r["sent"] for r in rows]),
            (f"modeled P={top}", [format_seconds(r["modeled"]) for r in rows]),
            *(
                (engine, [format_seconds(r[engine]) for r in rows])
                for engine in MEASURED_ENGINES
            ),
            ("W=2 ran in", [r["placement"] for r in rows]),
        ))
    out.append(
        "modeled: simulated Cray XMT seconds; the engine columns: this "
        "host's wall clock of each superstep span (ungraded)"
    )
    return "\n\n".join(out)


def _ablation(name: str) -> Experiment:
    """``ablation-<name>``: prints the dictionary returned by
    ``repro.analysis.ablations.run_<name>``, imported only when it runs."""

    def runner() -> Callable[[ExperimentConfig], dict]:
        from repro.analysis import ablations

        return getattr(ablations, f"run_{name}")

    def render(result: dict, paper_scale: bool, chart: bool) -> str:
        title = f"Ablation: {runner().__doc__.splitlines()[0]}"
        return f"{title}\n{'=' * len(title)}\n{json.dumps(result, indent=2)}"

    return Experiment(lambda config: runner()(config), render)


#: The ablations of EXPERIMENTS.md, each ``ablation-<name>`` below.
ABLATIONS = (
    "hotspot", "combiner", "degree_ordering", "scale_sweep",
    "queue_design", "partitioning", "triangle_density",
)

#: ``repro <name>`` → its :class:`Experiment`: the one list of them.
EXPERIMENTS: dict[str, Experiment] = {
    "fig1": Experiment(
        run_fig1, _render_fig1, _fig1_section, title="Figure 1", criteria=(
            Criterion("BSP superstep count inflated vs shared memory",
                      _fig1_inflation),
            Criterion("activity collapses after early supersteps",
                      _fig1_collapse),
            Criterion("shared-memory iterations constant work",
                      _fig1_constant_iterations),
            Criterion("heavy supersteps scale ~linearly", _fig1_heavy_scales),
            Criterion("near-empty tail supersteps stop scaling",
                      _fig1_tail_flat),
        ),
    ),
    "fig2": Experiment(
        run_fig2, _render_fig2, _fig2_section, title="Figure 2", criteria=(
            Criterion("frontier ramps, peaks, contracts", _fig2_apex_interior),
            Criterion("post-apex messages dwarf the true frontier",
                      _fig2_blowup),
            Criterion("messages decline exponentially at the tail",
                      _fig2_tail_decline),
        ),
    ),
    "fig3": Experiment(
        run_fig3, _render_fig3, _fig3_section, title="Figure 3", criteria=(
            Criterion("frontier-apex levels scale ~linearly",
                      _fig3_apex_scales),
            Criterion("early/late levels show flat scaling", _fig3_edges_flat),
            Criterion("BSP per-level times above GraphCT's", _fig3_bsp_above),
        ),
    ),
    "fig4": Experiment(
        run_fig4, _render_fig4, _fig4_section, title="Figure 4", criteria=(
            Criterion("both models scale linearly", _fig4_both_linear),
            Criterion("BSP write volume dwarfs shared memory",
                      _fig4_write_blowup),
            Criterion("possible >> actual triangles, counts agree",
                      _fig4_counts_agree),
        ),
    ),
    "table1": Experiment(
        run_table1, _render_table1, _table1_section, title="Table I",
        criteria=(
            Criterion("GraphCT wins every algorithm", _table1_graphct_wins),
            Criterion("BSP within the factor-of-~10 band",
                      _table1_within_band),
        ),
    ),
    "anecdotes": Experiment(
        run_cluster_anecdotes, _render_anecdotes, _anecdotes_section,
        title="Anecdotes", criteria=(
            Criterion("cluster systems within an order of magnitude",
                      _anecdotes_within_oom),
            Criterion("Giraph SSSP scaling goes flat", _anecdotes_sssp_flat),
        ),
    ),
    "graph500": Experiment(_run_graph500, _render_graph500),
    "measured-vs-modeled": Experiment(
        run_measured_vs_modeled, _render_measured_vs_modeled
    ),
    "verify": Experiment(
        verify_all, lambda report, paper_scale, chart: report.render()
    ),
    **{
        f"ablation-{name.replace('_', '-')}": _ablation(name)
        for name in ABLATIONS
    },
}

#: What ``repro all`` prints and ``--json`` writes, in this order: the
#: experiments with a ``--json`` section.
ALL = tuple(name for name, entry in EXPERIMENTS.items() if entry.section)
