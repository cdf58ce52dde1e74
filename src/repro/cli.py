"""Command-line entry point: ``python -m repro.cli <experiment>``.

Renders each of the paper's experiments as ASCII tables::

    python -m repro.cli table1            # Table I totals
    python -m repro.cli fig1              # CC time per superstep
    python -m repro.cli fig2              # BFS frontier vs messages
    python -m repro.cli fig3              # BFS per-level scaling
    python -m repro.cli fig4              # triangle-counting scaling
    python -m repro.cli anecdotes         # distributed-system anecdotes
    python -m repro.cli graph500          # validated batch BFS + TEPS
    python -m repro.cli verify            # executable claim scorecard
    python -m repro.cli all               # fig1..fig4, table1, anecdotes
    python -m repro.cli ablation-combiner # one of EXPERIMENTS.md's ablations
    python -m repro.cli profile ...       # wall-clock telemetry profiling
    python -m repro.cli serve ...         # long-lived graph-analytics server
    python -m repro.cli check ...         # BSP program linter / contracts
    python -m repro.cli top ...           # live per-worker engine view
    python -m repro.cli version           # exact package version

``profile`` is its own subcommand (see :mod:`repro.telemetry.profile`):
it runs one algorithm with telemetry enabled and writes a Chrome trace
plus a measured-vs-modeled report.  ``serve`` (see :mod:`repro.service.cli`)
loads one graph into the sharded engine's shared-memory CSR and serves
algorithm jobs over HTTP — submit, poll, fetch results / telemetry /
traces.  ``check`` (see :mod:`repro.check.cli`) statically lints vertex
programs for determinism/race hazards and property-tests combiner
contracts.  ``top`` (see :mod:`repro.telemetry.top`) attaches to a live
sharded engine — via its flight-recorder beacon or a ``repro serve``
URL — and renders per-worker phase/progress/rss like ``top(1)``.
``version`` (also ``--version``) prints the installed
package version, so benchmark provenance and bug reports can cite an
exact release.

The experiments are one table, :data:`EXPERIMENTS`, from name to
renderer.  Each ``ablation-<name>`` prints the dictionary returned by
``run_<name>`` in :mod:`repro.analysis.ablations`, which is imported
only when an ablation runs.

Options: ``--scale N`` (default 14), ``--seed S``, ``--paper-scale``
(render the processor sweeps with work extrapolated to the paper's
scale-24 input), ``--chart`` (ASCII log-scale figures), ``--json PATH``
(machine-readable dump of every experiment; ``-`` for stdout).

Installed as the ``repro-experiments`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.experiments import (
    run_cluster_anecdotes,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
)
from repro.analysis.charts import log_ascii_chart
from repro.analysis.report import (
    format_scaling_table,
    format_seconds,
    format_series,
    format_table1,
)
from repro.analysis.workload import ExperimentConfig

__all__ = ["main"]


def _fig1(config: ExperimentConfig, paper_scale: bool, chart: bool = False) -> str:
    res = run_fig1(config)
    sweeps = (
        res.bsp_times_paper_scale if paper_scale else res.bsp_times,
        res.graphct_times_paper_scale if paper_scale else res.graphct_times,
    )
    out = []
    if chart:
        for name, sweep in zip(("BSP", "GraphCT"), sweeps):
            iters = sorted(next(iter(sweep.values()))["by_iteration"])
            series = {
                f"P={p}": [sweep[p]["by_iteration"][i] for i in iters]
                for p in config.processor_counts
            }
            out.append(log_ascii_chart(
                f"Figure 1 ({name}): seconds per iteration (log y)",
                series, x_labels=iters,
            ))
    for name, sweep in zip(("BSP", "GraphCT"), sweeps):
        iters = sorted(next(iter(sweep.values()))["by_iteration"])
        columns = [
            (f"P={p}", [format_seconds(sweep[p]["by_iteration"][i])
                        for i in iters])
            for p in config.processor_counts
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
    b, g = res.totals_at(max(config.processor_counts))
    out.append(
        f"Totals at P={max(config.processor_counts)}: BSP "
        f"{format_seconds(b)}, GraphCT {format_seconds(g)} "
        f"(paper: 5.40s vs 1.31s)"
    )
    return "\n\n".join(out)


def _fig2(config: ExperimentConfig, chart: bool = False) -> str:
    res = run_fig2(config)
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


def _fig3(config: ExperimentConfig, paper_scale: bool) -> str:
    res = run_fig3(config)
    series = res.series_paper_scale if paper_scale else res.series
    out = []
    for model in ("bsp", "graphct"):
        out.append(
            format_scaling_table(
                f"Figure 3 ({model}): BFS per-level time vs processors"
                + (" [paper-scale work]" if paper_scale else ""),
                config.processor_counts,
                {f"level {lvl}": series[model][lvl] for lvl in res.levels},
            )
        )
    p = max(config.processor_counts)
    out.append(
        f"\nTotals at P={p}: BSP {format_seconds(res.bsp_total[p])}, "
        f"GraphCT {format_seconds(res.graphct_total[p])} "
        f"(paper: 3.12s vs 310ms)"
    )
    return "\n\n".join(out)


def _fig4(config: ExperimentConfig, paper_scale: bool, chart: bool = False) -> str:
    res = run_fig4(config)
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
            x_labels=list(config.processor_counts),
        )
    table = format_scaling_table(
        "Figure 4: triangle counting time vs processors"
        + (" [paper-scale work]" if paper_scale else ""),
        config.processor_counts,
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


def _table1(config: ExperimentConfig, paper_scale: bool) -> str:
    res = run_table1(config)
    rows = res.extrapolated_rows if paper_scale else res.rows
    title = (
        "Table I: execution times at P="
        f"{max(config.processor_counts)}"
        + (" [paper-scale work]" if paper_scale else
           f" [RMAT scale {config.scale}]")
    )
    return format_table1(rows, title=title, paper_rows=res.paper_rows)


def _verify(config: ExperimentConfig) -> str:
    from repro.analysis.verification import verify_all

    return verify_all(config).render()


def _graph500(config: ExperimentConfig) -> str:
    from repro.analysis.graph500 import run_graph500

    res = run_graph500(
        scale=config.scale, edge_factor=config.edge_factor,
        num_searches=8, seed=config.seed,
    )
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


def _anecdotes(config: ExperimentConfig) -> str:
    res = run_cluster_anecdotes(config)
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


def _ablation(name: str):
    """Renderer printing ``repro.analysis.ablations.run_<name>``."""

    def render(config: ExperimentConfig, args: argparse.Namespace) -> str:
        from repro.analysis import ablations

        run = getattr(ablations, f"run_{name}")
        title = f"Ablation: {run.__doc__.splitlines()[0]}"
        result = json.dumps(run(config), indent=2)
        return f"{title}\n{'=' * len(title)}\n{result}"

    return render


#: The ablations of EXPERIMENTS.md, each ``ablation-<name>`` below.
ABLATIONS = (
    "hotspot", "combiner", "degree_ordering", "scale_sweep",
    "queue_design", "partitioning", "streaming_clustering",
    "triangle_density",
)

#: ``repro <name>`` → renderer of ``(config, args)``.
EXPERIMENTS = {
    "fig1": lambda config, args: _fig1(config, args.paper_scale, args.chart),
    "fig2": lambda config, args: _fig2(config, args.chart),
    "fig3": lambda config, args: _fig3(config, args.paper_scale),
    "fig4": lambda config, args: _fig4(config, args.paper_scale, args.chart),
    "table1": lambda config, args: _table1(config, args.paper_scale),
    "anecdotes": lambda config, args: _anecdotes(config),
    "graph500": lambda config, args: _graph500(config),
    "verify": lambda config, args: _verify(config),
    **{
        f"ablation-{name.replace('_', '-')}": _ablation(name)
        for name in ABLATIONS
    },
}

#: What ``repro all`` prints, in this order.
ALL = ("fig1", "fig2", "fig3", "fig4", "table1", "anecdotes")


def collect_results(config: ExperimentConfig) -> dict:
    """All experiments as one JSON-serializable dictionary.

    The layout mirrors EXPERIMENTS.md: per-experiment measured series
    plus the paper's reference values.
    """
    f1 = run_fig1(config)
    f2 = run_fig2(config)
    f3 = run_fig3(config)
    f4 = run_fig4(config)
    t1 = run_table1(config)
    an = run_cluster_anecdotes(config)
    p_max = max(config.processor_counts)
    return {
        "config": {
            "scale": config.scale,
            "edge_factor": config.edge_factor,
            "seed": config.seed,
            "processor_counts": list(config.processor_counts),
        },
        "fig1": {
            "bsp_supersteps": f1.bsp.num_supersteps,
            "graphct_iterations": f1.graphct.num_iterations,
            "superstep_inflation": f1.superstep_inflation,
            "bsp_messages_per_superstep": f1.bsp.messages_per_superstep,
            "bsp_seconds_by_superstep": {
                p: list(f1.bsp_times[p]["by_iteration"].values())
                for p in config.processor_counts
            },
            "graphct_seconds_by_iteration": {
                p: list(f1.graphct_times[p]["by_iteration"].values())
                for p in config.processor_counts
            },
            "paper": {"bsp_supersteps": 13, "graphct_iterations": 6},
        },
        "fig2": {
            "frontier_sizes": f2.frontier_sizes,
            "bsp_messages": f2.bsp_messages,
            "peak_delivered_to_frontier": f2.peak_message_to_frontier_ratio,
        },
        "fig3": {
            "levels": f3.levels,
            "series": {
                model: {
                    str(lvl): dict(times)
                    for lvl, times in f3.series[model].items()
                }
                for model in f3.series
            },
            "bsp_total": f3.bsp_total,
            "graphct_total": f3.graphct_total,
            "paper": {"bsp_total_128": 3.12, "graphct_total_128": 0.310},
        },
        "fig4": {
            "bsp_times": f4.bsp_times,
            "graphct_times": f4.graphct_times,
            "possible_triangles": f4.bsp.possible_triangles,
            "actual_triangles": f4.bsp.total_triangles,
            "write_ratio": f4.write_ratio,
            "paper": {
                "bsp_128": 444.0, "graphct_128": 47.4,
                "possible": 5.5e9, "actual": 30.9e6, "write_ratio": 181,
            },
        },
        "table1": {
            "processors": p_max,
            "rows": t1.rows,
            "extrapolated_rows": t1.extrapolated_rows,
            "paper_rows": t1.paper_rows,
        },
        "anecdotes": {
            "rows": an.rows,
            "sssp_flat_counts": an.sssp_flat_counts,
        },
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli`` / ``repro-experiments``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "profile":
        from repro.telemetry.profile import main as profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.check.cli import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "top":
        from repro.telemetry.top import main as top_main

        return top_main(argv[1:])
    if argv and argv[0] in ("version", "--version"):
        from repro.bench.ledger import package_version

        print(f"repro {package_version()}")
        return 0
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's figures and table.",
    )
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    parser.add_argument("--scale", type=int, default=14)
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="extrapolate work to the paper's scale-24 graph",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="render figures as ASCII log-scale charts",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write all experiment data as JSON (use '-' for stdout)",
    )
    args = parser.parse_args(argv)
    config = ExperimentConfig(
        scale=args.scale, edge_factor=args.edge_factor, seed=args.seed
    )

    if args.json is not None:
        payload = json.dumps(collect_results(config), indent=2, default=float)
        if args.json == "-":
            print(payload)
            return 0
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.json}")

    names = ALL if args.experiment == "all" else (args.experiment,)
    sections = [EXPERIMENTS[name](config, args) for name in names]
    print(("\n\n" + "~" * 72 + "\n\n").join(sections))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
