"""The ``repro serve`` subcommand: a long-lived graph-analytics server.

Loads one graph (a synthetic RMAT by default, or a file via
``--graph``), freezes it into the sharded engine's shared-memory CSR,
and serves algorithm jobs over HTTP until SIGTERM/SIGINT or a client
``POST /shutdown``.  Shutdown drains: queued and in-flight jobs finish,
then the worker pool and shared memory are released.

All process output is structured log events (``--log-format json`` for
JSON lines, default ``text``) carrying trace ids, and the service keeps
a Prometheus-scrapable metrics registry (``GET /metrics``; disable with
``--no-metrics``).

Example::

    python -m repro.cli serve --scale 10 --port 8080 --num-workers 2 \
        --log-format json
    curl -s -X POST localhost:8080/jobs \
        -d '{"algorithm": "bfs", "params": {"source": 0}}'
    curl -s localhost:8080/metrics
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from repro.service.app import GraphAnalyticsService, build_server
from repro.telemetry.logs import StructuredLogger
from repro.telemetry.metrics import NULL_METRICS

__all__ = ["load_served_graph", "main"]


def load_served_graph(
    path: str | None,
    *,
    scale: int = 10,
    edge_factor: int = 16,
    seed: int = 1,
):
    """The graph to serve: ``path`` when given, else a seeded RMAT.

    File formats route on suffix: ``.npz`` snapshots via
    :func:`~repro.graph.io.load_graph`, ``.gr`` DIMACS instances via
    :func:`~repro.graph.io.read_dimacs`, anything else as a whitespace
    edge list.
    """
    if path is None:
        from repro.graph.generators import rmat

        return rmat(scale=scale, edge_factor=edge_factor, seed=seed)
    suffix = Path(path).suffix.lower()
    if suffix == ".npz":
        from repro.graph.io import load_graph

        return load_graph(path)
    if suffix == ".gr":
        from repro.graph.io import read_dimacs

        return read_dimacs(path)
    from repro.graph.io import read_edge_list

    return read_edge_list(path)


def main(argv: list[str] | None = None) -> int:
    """Run ``repro serve``: build the service, serve until shutdown, drain."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve BSP graph-analytics jobs over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks a free one, printed at startup)",
    )
    parser.add_argument(
        "--graph", default=None, metavar="PATH",
        help="serve this file (.npz snapshot, .gr DIMACS, or edge list) "
             "instead of a synthetic RMAT graph",
    )
    parser.add_argument("--scale", type=int, default=10,
                        help="RMAT scale when no --graph is given")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--num-workers", type=int, default=2,
                        help="shard worker processes for the warm engine")
    parser.add_argument("--partition", default="hash",
                        choices=("hash", "balanced-edge"))
    parser.add_argument("--job-threads", type=int, default=2)
    parser.add_argument("--cache-size", type=int, default=128,
                        help="LRU result-cache entries (0 disables)")
    parser.add_argument("--log-format", default="text",
                        choices=("text", "json"),
                        help="structured log rendering (one line per "
                             "event either way; json is the machine-"
                             "parseable form)")
    parser.add_argument("--no-metrics", action="store_true",
                        help="disable the metrics registry entirely "
                             "(/metrics serves an empty exposition)")
    parser.add_argument("--stall-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="declare a shard worker stalled after this "
                             "many seconds without a flight-recorder "
                             "event mid-barrier (0 disables; default "
                             "%(default)s)")
    parser.add_argument("--no-flight-recorder", action="store_true",
                        help="disable the worker flight recorder "
                             "(/debug/workers loses per-worker phase/"
                             "progress and no postmortem bundles are "
                             "written)")
    parser.add_argument("--verbose", action="store_true",
                        help="log at debug level (includes http.server "
                             "internals)")
    args = parser.parse_args(argv)

    logger = StructuredLogger(
        sys.stdout,
        fmt=args.log_format,
        level="debug" if args.verbose else "info",
    )
    graph = load_served_graph(
        args.graph,
        scale=args.scale,
        edge_factor=args.edge_factor,
        seed=args.seed,
    )
    service = GraphAnalyticsService(
        graph,
        num_workers=args.num_workers,
        partition=args.partition,
        job_threads=args.job_threads,
        cache_capacity=args.cache_size,
        metrics=NULL_METRICS if args.no_metrics else None,
        logger=logger,
        flight_recorder=not args.no_flight_recorder,
        stall_timeout=args.stall_timeout if args.stall_timeout > 0 else None,
    )
    server = build_server(service, args.host, args.port)

    def _signal_shutdown(signum, frame):
        logger.info("serve.signal", signal=int(signum), action="draining")
        server.initiate_shutdown()

    signal.signal(signal.SIGTERM, _signal_shutdown)
    signal.signal(signal.SIGINT, _signal_shutdown)

    host, port = server.server_address[:2]
    info = service.graph_info()
    logger.info(
        "serve.start",
        url=f"http://{host}:{port}",
        num_vertices=info["num_vertices"],
        num_edges=info["num_edges"],
        fingerprint=info["fingerprint"][:12],
        num_workers=args.num_workers,
        metrics="disabled" if args.no_metrics else "enabled",
        log_format=args.log_format,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        # Drain after the socket closes: queued jobs finish, then the
        # engine's worker processes exit and shared memory unlinks.
        service.close()
        counts = service.jobs.counts()
        cache = service.cache.stats()
        logger.info(
            "serve.drained",
            jobs_done=counts["done"],
            jobs_failed=counts["failed"],
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_evictions=cache["evictions"],
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
