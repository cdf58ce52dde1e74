"""The ``repro profile`` subcommand: measured wall-clock vs the model.

Runs one BSP algorithm on a synthetic RMAT graph with telemetry
enabled, then writes three artifacts:

* a Chrome trace-event file (``--trace``) loadable in Perfetto or
  ``chrome://tracing``, with one row per worker for the sharded engine;
* a schema-versioned JSON report (``--json``) embedding every span,
  counter sample, the measured-vs-modeled correlation rows, and the
  peak memory footprint (RSS plus per-superstep ``tracemalloc`` peaks —
  tracing is on by default here; disable with ``--no-tracemalloc`` to
  measure wall time without the tracing overhead);
* an ASCII measured-vs-modeled table per superstep on stdout.

Example::

    python -m repro.cli profile --algorithm cc --engine sharded \
        --workers 2 --scale 12
"""

from __future__ import annotations

import argparse
import json
import os
import tracemalloc

from repro.graph.generators import rmat
from repro.graph.properties import giant_component_vertex
from repro.telemetry.compare import (
    format_measured_vs_modeled,
    measured_vs_modeled,
)
from repro.telemetry.core import Telemetry
from repro.telemetry.export import (
    chrome_trace,
    memory_summary,
    telemetry_report,
)
from repro.xmt.machine import XMTMachine

__all__ = ["main", "run_profile"]

ALGORITHMS = ("cc", "bfs", "sssp", "pagerank", "kcore", "triangles")
ENGINES = ("reference", "dense", "sharded")

#: Report layout version; bump on breaking changes to the JSON payload.
PROFILE_SCHEMA_VERSION = 1


def _reference_run(algorithm: str, graph, source: int, telemetry: Telemetry):
    """Run the per-vertex program under the reference engine."""
    from repro.bsp.engine import BSPEngine
    from repro.bsp_algorithms.bfs import BSPBreadthFirstSearch
    from repro.bsp_algorithms.connected_components import (
        BSPConnectedComponents,
    )
    from repro.bsp_algorithms.sssp import BSPShortestPaths

    programs = {
        "cc": (BSPConnectedComponents, None),
        "bfs": (BSPBreadthFirstSearch, [source]),
        "sssp": (BSPShortestPaths, [source]),
    }
    if algorithm not in programs:
        raise SystemExit(
            f"--engine reference supports {sorted(programs)}; "
            f"use dense or sharded for {algorithm!r}"
        )
    cls, initial_active = programs[algorithm]
    program = cls(source) if algorithm in ("bfs", "sssp") else cls()
    engine = BSPEngine(graph, telemetry=telemetry)
    result = engine.run(
        program,
        initial_active=initial_active,
        trace_label=f"bsp/{algorithm}",
    )
    return result.trace, {"num_supersteps": result.num_supersteps}


def run_profile(
    algorithm: str,
    engine: str,
    *,
    scale: int = 12,
    edge_factor: int = 16,
    seed: int = 1,
    workers: int = 2,
    partition: str = "hash",
    source: int | None = None,
    k: int = 2,
    telemetry: Telemetry,
):
    """Run ``algorithm`` under ``engine`` with ``telemetry`` attached.

    Returns ``(trace, meta)``: the modeled :class:`WorkTrace` and a
    small dict of run facts for the report.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}")
    graph = rmat(scale=scale, edge_factor=edge_factor, seed=seed)
    if source is None and algorithm in ("bfs", "sssp"):
        source = giant_component_vertex(graph)
    src = 0 if source is None else int(source)

    if engine == "reference":
        return _reference_run(algorithm, graph, src, telemetry)

    num_workers = workers if engine == "sharded" else None
    if algorithm == "triangles":
        from repro.bsp_algorithms.triangles import bsp_count_triangles

        res = bsp_count_triangles(
            graph, num_workers=num_workers, telemetry=telemetry
        )
        return res.trace, {
            "num_supersteps": res.num_supersteps,
            "total_triangles": res.total_triangles,
            "possible_triangles": res.possible_triangles,
        }

    from repro.bsp import make_engine
    from repro.bsp_algorithms import (
        bsp_breadth_first_search,
        bsp_connected_components,
        bsp_k_core,
        bsp_pagerank,
        bsp_sssp,
    )

    with make_engine(
        graph, engine, num_workers=num_workers, partition=partition,
        telemetry=telemetry,
    ) as eng:
        if algorithm == "cc":
            res = bsp_connected_components(graph, engine=eng)
            meta = {"num_components": res.num_components}
        elif algorithm == "bfs":
            res = bsp_breadth_first_search(graph, src, engine=eng)
            meta = {"source": src, "vertices_reached": res.vertices_reached}
        elif algorithm == "sssp":
            res = bsp_sssp(graph, src, engine=eng)
            meta = {"source": src}
        elif algorithm == "pagerank":
            res = bsp_pagerank(graph, engine=eng)
            meta = {}
        else:  # kcore
            res = bsp_k_core(graph, k, engine=eng)
            meta = {"k": k}
    meta["num_supersteps"] = res.num_supersteps
    return res.trace, meta


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli profile``."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Profile one BSP algorithm: wall-clock spans, per-worker "
            "metrics, Chrome trace, and measured-vs-modeled table."
        ),
    )
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="cc")
    parser.add_argument("--engine", choices=ENGINES, default="dense")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=int, default=12)
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--partition", default="hash")
    parser.add_argument("--source", type=int, default=None)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument(
        "--processors", type=int, default=128,
        help="modeled XMT processor count for the comparison column",
    )
    parser.add_argument(
        "--out-dir", default="results/profile",
        help="directory for default artifact paths",
    )
    parser.add_argument(
        "--trace", default=None,
        help="Chrome trace path (default <out-dir>/trace_<run>.json)",
    )
    parser.add_argument(
        "--json", default=None,
        help="report path (default <out-dir>/profile_<run>.json)",
    )
    parser.add_argument(
        "--no-tracemalloc", dest="tracemalloc", action="store_false",
        help=(
            "skip Python-heap peak tracking (tracemalloc slows the run; "
            "disable it when wall-clock numbers matter more than "
            "allocation peaks)"
        ),
    )
    args = parser.parse_args(argv)

    label = f"{args.algorithm}-{args.engine}"
    if args.engine == "sharded":
        label += f"-w{args.workers}"
    tel = Telemetry(label=label)
    started_tracing = False
    if args.tracemalloc and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    try:
        trace, meta = run_profile(
            args.algorithm,
            args.engine,
            scale=args.scale,
            edge_factor=args.edge_factor,
            seed=args.seed,
            workers=args.workers,
            partition=args.partition,
            source=args.source,
            k=args.k,
            telemetry=tel,
        )
    finally:
        if started_tracing:
            tracemalloc.stop()

    machine = XMTMachine(num_processors=args.processors)
    rows = measured_vs_modeled(tel, trace, machine)

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = args.trace or os.path.join(
        args.out_dir, f"trace_{label}.json"
    )
    json_path = args.json or os.path.join(
        args.out_dir, f"profile_{label}.json"
    )
    with open(trace_path, "w", encoding="ascii") as fh:
        json.dump(chrome_trace(tel), fh, indent=1)
        fh.write("\n")
    payload = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "config": {
            "algorithm": args.algorithm,
            "engine": args.engine,
            "workers": args.workers if args.engine == "sharded" else 1,
            "scale": args.scale,
            "edge_factor": args.edge_factor,
            "seed": args.seed,
            "partition": args.partition,
            "processors": args.processors,
        },
        "run": meta,
        "measured_vs_modeled": rows,
        "memory": memory_summary(tel),
        "telemetry": telemetry_report(tel),
    }
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, default=float)
        fh.write("\n")

    print(
        format_measured_vs_modeled(
            rows,
            processors=args.processors,
            title=(
                f"{args.algorithm} on {args.engine} engine "
                f"(RMAT scale {args.scale})"
            ),
        )
    )
    mem = payload["memory"]
    if mem:
        parts = [
            f"{name}: {mem[name] / 2**20:.1f} MiB"
            for name in ("peak_rss_bytes", "tracemalloc_peak_bytes")
            if name in mem
        ]
        if "worker_peak_rss_bytes" in mem:
            worst = max(mem["worker_peak_rss_bytes"].values())
            parts.append(f"worker peak RSS: {worst / 2**20:.1f} MiB")
        print("\nmemory  " + " | ".join(parts))
    print(f"\nChrome trace: {trace_path}  (open in Perfetto)")
    print(f"JSON report:  {json_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
