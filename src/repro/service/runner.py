"""Parameter validation and algorithm dispatch for the service.

Two responsibilities, split from the HTTP layer so they are unit-testable
without a socket:

* :func:`canonicalize_params` — validate a client's parameter dict
  against the algorithm's spec and fill defaults, producing the
  *canonical* form the result cache keys on (so ``{}`` and an explicit
  ``{"damping": 0.85, "num_supersteps": 30}`` PageRank request share one
  cache entry).  Raises :class:`ValueError` with a client-presentable
  message — the HTTP layer maps that to a 400.
* :func:`run_algorithm` — run one canonical request against the served
  graph on the caller's warm engine and flatten the result dataclass
  into a JSON-safe payload.  Values are byte-identical to the direct
  library call with the same worker count: the same wrapper executes,
  only ``engine=`` reuse differs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bsp_algorithms import (
    bsp_breadth_first_search,
    bsp_connected_components,
    bsp_count_triangles,
    bsp_k_core,
    bsp_pagerank,
    bsp_sssp,
)
from repro.graph.csr import CSRGraph
from repro.telemetry.metrics import NULL_METRICS

__all__ = ["ALGORITHMS", "canonicalize_params", "run_algorithm"]

#: Algorithms the service serves, in menu order.
ALGORITHMS = ("cc", "bfs", "sssp", "pagerank", "kcore", "triangles")


def _require_int(params: dict, name: str, *, minimum: int | None = None) -> int:
    if name not in params:
        raise ValueError(f"missing required parameter {name!r}")
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"parameter {name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"parameter {name!r} must be >= {minimum}")
    return value


def _source_param(params: dict, graph: CSRGraph) -> int:
    source = _require_int(params, "source", minimum=0)
    if source >= graph.num_vertices:
        raise ValueError(
            f"parameter 'source' {source} out of range "
            f"[0, {graph.num_vertices})"
        )
    return source


def canonicalize_params(
    algorithm: str, params: dict | None, graph: CSRGraph
) -> dict:
    """Validate ``params`` for ``algorithm`` and return the canonical form.

    Unknown keys, missing required keys, wrong types, and out-of-range
    values all raise :class:`ValueError`.  The returned dict has every
    optional parameter filled with its default, so it is a stable cache
    key component.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; serving {list(ALGORITHMS)}"
        )
    params = dict(params or {})
    allowed = {
        "cc": set(),
        "bfs": {"source"},
        "sssp": {"source"},
        "pagerank": {"num_supersteps", "damping"},
        "kcore": {"k"},
        "triangles": set(),
    }[algorithm]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for {algorithm!r}; "
            f"allowed: {sorted(allowed)}"
        )
    if algorithm in ("bfs", "sssp"):
        return {"source": _source_param(params, graph)}
    if algorithm == "pagerank":
        out = {"num_supersteps": 30, "damping": 0.85}
        if "num_supersteps" in params:
            out["num_supersteps"] = _require_int(
                params, "num_supersteps", minimum=1
            )
        if "damping" in params:
            damping = params["damping"]
            if not isinstance(damping, (int, float)) or isinstance(
                damping, bool
            ):
                raise ValueError("parameter 'damping' must be a number")
            damping = float(damping)
            if not 0.0 < damping < 1.0:
                raise ValueError("parameter 'damping' must lie in (0, 1)")
            out["damping"] = damping
        return out
    if algorithm == "kcore":
        return {"k": _require_int(params, "k", minimum=0)}
    if algorithm == "triangles" and graph.directed:
        raise ValueError("'triangles' requires an undirected graph")
    return {}  # cc, triangles take no parameters


def _num_list(array: np.ndarray) -> list:
    """Array to a strict-JSON list (non-finite floats become None)."""
    values = np.asarray(array).tolist()
    if np.issubdtype(np.asarray(array).dtype, np.floating):
        return [v if math.isfinite(v) else None for v in values]
    return values


def run_algorithm(
    algorithm: str,
    params: dict,
    graph: CSRGraph,
    *,
    engine=None,
    metrics=NULL_METRICS,
) -> dict:
    """Execute one canonical request; return the JSON-safe payload.

    ``engine`` is the service's warm :class:`ShardedBSPEngine`, reused
    (and left open) by every engine-backed algorithm; its spans land in
    the telemetry the engine was built with.  Triangle counting has no
    engine path: it runs serially in the calling job thread, on the
    graph's memoized closure scan (:mod:`repro.graph.wedges`).

    ``metrics`` bridges engine activity up to the service registry:
    ``repro_engine_busy`` is 1 while any run executes (engine-backed
    runs serialize on the warm engine's lock), and each completed run
    adds its superstep count to ``repro_engine_supersteps_total``,
    labelled by algorithm.
    """
    busy = metrics.gauge(
        "repro_engine_busy",
        "Algorithm runs currently executing or awaiting the warm engine "
        "(engine-backed runs serialize on its internal lock).",
    )
    busy.inc()
    try:
        common = _dispatch(algorithm, params, graph, engine=engine)
    finally:
        busy.dec()
    metrics.counter(
        "repro_engine_runs_total",
        "Algorithm runs executed (cache misses).",
        {"algorithm": algorithm},
    ).inc()
    metrics.counter(
        "repro_engine_supersteps_total",
        "BSP supersteps executed on behalf of jobs.",
        {"algorithm": algorithm},
    ).inc(common["num_supersteps"])
    return common


def _dispatch(
    algorithm: str,
    params: dict,
    graph: CSRGraph,
    *,
    engine=None,
) -> dict:
    """The per-algorithm wrapper calls behind :func:`run_algorithm`."""
    common: dict
    if algorithm == "cc":
        res = bsp_connected_components(graph, engine=engine)
        common = {
            "values": _num_list(res.labels),
            "num_components": res.num_components,
        }
    elif algorithm == "bfs":
        res = bsp_breadth_first_search(graph, params["source"], engine=engine)
        common = {
            "values": _num_list(res.distances),
            "source": res.source,
            "frontier_sizes": list(res.frontier_sizes),
        }
    elif algorithm == "sssp":
        res = bsp_sssp(graph, params["source"], engine=engine)
        common = {"values": _num_list(res.distances), "source": res.source}
    elif algorithm == "pagerank":
        res = bsp_pagerank(
            graph,
            num_supersteps=params["num_supersteps"],
            damping=params["damping"],
            engine=engine,
        )
        common = {"values": _num_list(res.ranks)}
    elif algorithm == "kcore":
        res = bsp_k_core(graph, params["k"], engine=engine)
        in_core = np.asarray(res.in_core, dtype=bool)
        common = {
            "values": in_core.tolist(),
            "k": res.k,
            "core_size": int(in_core.sum()),
        }
    elif algorithm == "triangles":
        res = bsp_count_triangles(graph)
        common = {
            "values": _num_list(res.per_vertex),
            "total_triangles": int(res.total_triangles),
            "possible_triangles": int(res.possible_triangles),
        }
    else:  # canonicalize_params already rejected this
        raise ValueError(f"unknown algorithm {algorithm!r}")
    common["algorithm"] = algorithm
    common["num_supersteps"] = int(res.num_supersteps)
    common["messages_per_superstep"] = [
        int(m) for m in res.messages_per_superstep
    ]
    return common
