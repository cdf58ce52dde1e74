"""PageRank in the BSP model (the canonical Pregel example).

Each superstep every vertex sums its incoming rank contributions, applies
the damping update, and sends ``rank / degree`` to its neighbours for a
fixed number of supersteps (Pregel's original formulation runs 30).  Not
part of the paper's experiments; included because it exercises the
framework's sum-combiner and aggregator surfaces and cross-validates
against the shared-memory :func:`repro.graphct.pagerank` kernel.

The module pairs the per-vertex :class:`BSPPageRank` (run by the
reference engine) with the whole-superstep :class:`DensePageRank` (run by
the :class:`~repro.bsp.dense.DenseBSPEngine` — the benchmark path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bsp import engine_for
from repro.bsp.dense import DenseSuperstepContext, DenseVertexProgram
from repro.bsp.frontier import source_values
from repro.bsp.vertex import VertexContext, VertexProgram
from repro.graph.csr import CSRGraph
from repro.xmt.trace import WorkTrace

__all__ = ["BSPPageRank", "BSPPageRankResult", "DensePageRank", "bsp_pagerank"]


class BSPPageRank(VertexProgram):
    """Fixed-superstep PageRank vertex program.

    Dangling-vertex mass is redistributed uniformly via the ``dangling``
    sum aggregator when the engine provides one; otherwise ranks are
    normalized at read-out (both paths produce the same ordering).
    """

    def __init__(self, num_supersteps: int = 30, damping: float = 0.85):
        if num_supersteps < 1:
            raise ValueError("num_supersteps must be >= 1")
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.num_supersteps = num_supersteps
        self.damping = damping

    def initial_value(self, vertex: int, graph) -> float:
        return 1.0 / max(graph.num_vertices, 1)

    def compute(self, ctx: VertexContext, messages: Sequence[float]) -> None:
        n = ctx.num_vertices
        if ctx.superstep > 0:
            incoming = sum(messages)
            dangling = 0.0
            try:
                dangling = ctx.aggregated("dangling") or 0.0
            except KeyError:
                pass
            ctx.value = (
                (1.0 - self.damping) / n
                + self.damping * (incoming + dangling / n)
            )
        if ctx.superstep < self.num_supersteps:
            degree = ctx.degree()
            if degree:
                ctx.send_to_neighbors(ctx.value / degree)
            else:
                try:
                    ctx.aggregate("dangling", ctx.value)
                except KeyError:
                    pass
        else:
            ctx.vote_to_halt()


class DensePageRank(DenseVertexProgram):
    """Fixed-superstep PageRank as whole-superstep array kernels.

    Dangling-vertex mass is redistributed uniformly every superstep: via
    the ``dangling`` sum aggregator when the engine provides one, through
    an internal sum otherwise (both produce identical ranks — the
    aggregated value *is* that sum, delayed one superstep boundary).
    """

    combine = np.add
    combine_identity = 0.0
    message_dtype = np.float64

    def __init__(self, num_supersteps: int = 30, damping: float = 0.85):
        if num_supersteps < 1:
            raise ValueError("num_supersteps must be >= 1")
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.num_supersteps = num_supersteps
        self.damping = damping

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """Uniform 1/n starting rank."""
        n = graph.num_vertices
        return np.full(n, 1.0 / max(n, 1))

    def arc_payload(
        self, graph: CSRGraph, values: np.ndarray, selection: np.ndarray
    ) -> np.ndarray:
        """A sender floods ``rank / degree`` to each neighbour.

        The share of a vertex with no out-arcs is never expanded onto an
        arc, so dividing it by 1 instead of masking it out is exact.
        """
        share = values / np.maximum(graph.degrees(), 1)
        return source_values(graph, share, selection)

    def compute(self, ctx: DenseSuperstepContext) -> np.ndarray | None:
        n = ctx.num_vertices
        values = ctx.values
        dangling_mask = ctx.graph.degrees() == 0
        if ctx.superstep > 0:
            try:
                dangling = float(ctx.aggregated("dangling") or 0.0)
            except KeyError:
                dangling = float(values[dangling_mask].sum())
            values[:] = (
                (1.0 - self.damping) / n
                + self.damping * (ctx.messages + dangling / n)
            )
        if ctx.superstep < self.num_supersteps:
            try:
                ctx.aggregate("dangling", float(values[dangling_mask].sum()))
            except KeyError:
                pass
            return ctx.active
        ctx.vote_to_halt()
        return None


@dataclass
class BSPPageRankResult:
    """Outcome of the dense-engine BSP PageRank."""

    ranks: np.ndarray
    num_supersteps: int
    messages_per_superstep: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)


def bsp_pagerank(
    graph: CSRGraph,
    *,
    num_supersteps: int = 30,
    damping: float = 0.85,
    engine=None,
) -> BSPPageRankResult:
    """Dense-engine fixed-superstep BSP PageRank (with dangling handling).

    ``engine`` is a caller-owned :func:`repro.bsp.make_engine` engine on
    this graph (sharded, traced, ... as built), left open; the default
    is a :class:`~repro.bsp.DenseBSPEngine` for the call.  Every round
    floods every arc, so a sharded engine accounts it in the parent and
    pays one ``deliver`` exchange per round, in which each worker selects
    and folds its shard.  Sharded float summation may differ from
    single-process ranks in the last ulp (the per-shard partial sums
    merge in shard order).
    """
    program = DensePageRank(num_supersteps=num_supersteps, damping=damping)
    result = engine_for(graph, engine).run(
        program,
        max_supersteps=num_supersteps + 1,
        trace_label="bsp/pagerank",
    )
    return BSPPageRankResult(
        ranks=result.values,
        num_supersteps=result.num_supersteps,
        messages_per_superstep=result.messages_per_superstep,
        trace=result.trace,
    )
