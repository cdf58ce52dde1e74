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

The experiments are one table, :data:`repro.analysis.experiments.EXPERIMENTS`,
whose entries carry their run, renderer, ``--json`` section and scorecard
criteria; this module walks it.  Each algorithm behind it runs once per
workload (:func:`repro.analysis.workload.traced`).  Each ``ablation-<name>``
prints the dictionary returned by ``run_<name>`` in
:mod:`repro.analysis.ablations`, which is imported only when an ablation runs.

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

from repro.analysis.experiments import ALL, EXPERIMENTS
from repro.analysis.workload import ExperimentConfig

__all__ = ["main"]


def collect_results(config: ExperimentConfig) -> dict:
    """All experiments as one JSON-serializable dictionary.

    The layout mirrors EXPERIMENTS.md: per-experiment measured series
    plus the paper's reference values.
    """
    sections = {}
    for name in ALL:
        entry = EXPERIMENTS[name]
        sections[name] = entry.section(entry.run(config))
    return {
        "config": {
            "scale": config.scale,
            "edge_factor": config.edge_factor,
            "seed": config.seed,
            "processor_counts": list(config.processor_counts),
        },
        **sections,
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
    entries = [EXPERIMENTS[name] for name in names]
    sections = [
        entry.render(entry.run(config), args.paper_scale, args.chart)
        for entry in entries
    ]
    print(("\n\n" + "~" * 72 + "\n\n").join(sections))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
