"""Single-source shortest paths in the BSP model.

The distance-flooding generalization of Algorithm 2 to weighted edges —
the algorithm behind the paper's Kajdanowicz et al. comparison (Giraph
SSSP on a Twitter graph, §IV).  A vertex adopting a shorter distance
floods ``distance + w(v, n)`` to each neighbour ``n``.

The module pairs the per-vertex :class:`BSPShortestPaths` (run by the
reference engine) with the whole-superstep :class:`DenseShortestPaths`
(run by the :class:`~repro.bsp.dense.DenseBSPEngine` — the benchmark
path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bsp import engine_for
from repro.bsp.dense import DenseSuperstepContext, DenseVertexProgram
from repro.bsp.frontier import source_values
from repro.bsp.vertex import VertexContext, VertexProgram
from repro.graph.csr import CSRGraph, check_vertex
from repro.xmt.trace import WorkTrace

__all__ = [
    "BSPShortestPaths",
    "BSPSSSPResult",
    "DenseShortestPaths",
    "bsp_sssp",
]


class BSPShortestPaths(VertexProgram):
    """Weighted distance flooding (Pregel's canonical SSSP)."""

    def __init__(self, source: int):
        self.source = int(source)

    def initial_value(self, vertex: int, graph) -> float:
        return 0.0 if vertex == self.source else float("inf")

    def compute(self, ctx: VertexContext, messages: Sequence[float]) -> None:
        dist = min(messages) if messages else float("inf")
        improved = dist < ctx.value
        if improved:
            ctx.value = dist
        if improved or (ctx.superstep == 0 and ctx.vertex_id == self.source):
            nbrs = ctx.neighbors()
            try:
                weights = ctx.edge_weights()
            except ValueError:  # unweighted graph: unit arcs
                weights = np.ones(nbrs.size)
            for n, w in zip(nbrs.tolist(), weights.tolist()):
                ctx.send(n, ctx.value + w)
        ctx.vote_to_halt()


class DenseShortestPaths(DenseVertexProgram):
    """Weighted distance flooding as whole-superstep array kernels."""

    combine = np.minimum
    combine_identity = np.inf
    message_dtype = np.float64

    def __init__(self, source: int):
        self.source = int(source)

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """Distance 0 at the source, infinity elsewhere."""
        dist = np.full(graph.num_vertices, np.inf)
        dist[self.source] = 0.0
        return dist

    def arc_payload(
        self, graph: CSRGraph, values: np.ndarray, selection: np.ndarray
    ) -> np.ndarray:
        """A sender floods its distance plus the arc weight (unit arcs
        when the graph is unweighted)."""
        if graph.weights is not None:
            return source_values(graph, values, selection) + graph.weights[selection]
        return source_values(graph, values + 1.0, selection)

    def compute(self, ctx: DenseSuperstepContext) -> np.ndarray | None:
        ctx.vote_to_halt()
        if ctx.superstep == 0:
            return np.asarray([self.source], dtype=np.int64)
        dist, receivers = ctx.values, ctx.receivers
        improved = receivers[ctx.messages[receivers] < dist[receivers]]
        dist[improved] = ctx.messages[improved]
        return improved


@dataclass
class BSPSSSPResult:
    """Outcome of the dense-engine BSP shortest paths."""

    source: int
    #: Shortest distances; +inf for unreachable vertices.
    distances: np.ndarray
    num_supersteps: int
    active_per_superstep: list[int] = field(default_factory=list)
    messages_per_superstep: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_superstep)


def bsp_sssp(
    graph: CSRGraph,
    source: int,
    *,
    engine=None,
) -> BSPSSSPResult:
    """Dense-engine BSP SSSP (unit weights when the graph is unweighted).

    ``engine`` is a caller-owned :func:`repro.bsp.make_engine` engine on
    this graph (sharded, traced, ... as built), left open; the default
    is a :class:`~repro.bsp.DenseBSPEngine` for the call.  Distances are
    the same on any engine: min-combine folds are exact at any partition.
    """
    source = check_vertex(graph, source)
    if graph.weights is not None and graph.weights.size and graph.weights.min() < 0:
        raise ValueError("bsp_sssp requires non-negative weights")
    result = engine_for(graph, engine).run(
        DenseShortestPaths(source),
        max_supersteps=graph.num_vertices + 1,
        trace_label="bsp/sssp",
    )
    return BSPSSSPResult(
        source=source,
        distances=result.values,
        num_supersteps=result.num_supersteps,
        active_per_superstep=result.active_per_superstep,
        messages_per_superstep=result.messages_per_superstep,
        trace=result.trace,
    )
