"""k-core membership in the BSP model.

The message-passing formulation of iterated degree pruning: a vertex
whose surviving degree drops below *k* removes itself and notifies its
neighbours, which decrement their surviving degrees in the next
superstep.  Removal cascades one hop per superstep — another instance of
the model's stale-data latency (a shared-memory peel round cascades
within the round).

``bsp_k_core`` answers membership for one ``k``; combined with the
GraphCT decomposition kernel it also serves as a per-k cross-check.

The module pairs the per-vertex :class:`BSPKCore` (run by the reference
engine) with the whole-superstep :class:`DenseKCore` (run by the
:class:`~repro.bsp.dense.DenseBSPEngine` — the benchmark path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bsp import engine_for
from repro.bsp.dense import DenseSuperstepContext, DenseVertexProgram
from repro.bsp.frontier import selected_arc_count
from repro.bsp.vertex import VertexContext, VertexProgram
from repro.graph.csr import CSRGraph
from repro.xmt.trace import WorkTrace

__all__ = ["BSPKCore", "BSPKCoreResult", "DenseKCore", "bsp_k_core"]


class BSPKCore(VertexProgram):
    """k-core membership vertex program.

    Vertex state: surviving degree, or -1 once dropped.  Each received
    message is a neighbour's departure notice.
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k

    def initial_value(self, vertex: int, graph) -> int:
        return graph.degree(vertex)

    def compute(self, ctx: VertexContext, messages: Sequence[int]) -> None:
        if ctx.value >= 0:
            ctx.value = ctx.value - len(messages)
            if ctx.value < self.k:
                ctx.value = -1
                ctx.send_to_neighbors(1)
        ctx.vote_to_halt()


class DenseKCore(DenseVertexProgram):
    """k-core membership as whole-superstep array kernels.

    Messages are departure notices, so ``np.add``-folding delivers each
    surviving vertex its decrement count directly.  Records the peeling
    wave in ``dropped_per_superstep``.
    """

    combine = np.add
    combine_identity = 0
    message_dtype = np.int64

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        #: Vertices dropped per superstep (rebuilt each run).
        self.dropped_per_superstep: list[int] = []

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """Every vertex starts with its full degree surviving."""
        self.dropped_per_superstep = []
        return graph.degrees().astype(np.int64)

    def arc_payload(
        self, graph: CSRGraph, values: np.ndarray, selection: np.ndarray
    ) -> np.ndarray:
        """One departure notice per arc out of a dropped vertex."""
        return np.ones(selected_arc_count(selection), dtype=np.int64)

    def compute(self, ctx: DenseSuperstepContext) -> np.ndarray | None:
        ctx.vote_to_halt()
        values = ctx.values
        if ctx.superstep == 0:
            droppers = ctx.active[values[ctx.active] < self.k]
        else:
            receivers = ctx.receivers
            alive = receivers[values[receivers] >= 0]
            values[alive] -= ctx.messages[alive]
            droppers = alive[values[alive] < self.k]
        values[droppers] = -1
        self.dropped_per_superstep.append(int(droppers.size))
        return droppers


@dataclass
class BSPKCoreResult:
    """Outcome of a BSP k-core membership computation."""

    k: int
    #: True where the vertex belongs to the k-core.
    in_core: np.ndarray
    num_supersteps: int
    #: Vertices dropped per superstep (the peeling wave).
    dropped_per_superstep: list[int] = field(default_factory=list)
    messages_per_superstep: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)

    @property
    def core_size(self) -> int:
        return int(np.count_nonzero(self.in_core))


def bsp_k_core(
    graph: CSRGraph,
    k: int,
    *,
    engine=None,
) -> BSPKCoreResult:
    """Dense-engine BSP k-core membership (semantics of :class:`BSPKCore`).

    ``engine`` is a caller-owned :func:`repro.bsp.make_engine` engine on
    this graph (sharded, traced, ... as built), left open; the default
    is a :class:`~repro.bsp.DenseBSPEngine` for the call.  Membership is
    the same on any engine: integer sum folds are exact at any partition.
    """
    if graph.directed:
        raise ValueError("k-core requires an undirected graph")
    if k < 0:
        raise ValueError("k must be non-negative")
    program = DenseKCore(k)
    result = engine_for(graph, engine).run(
        program,
        max_supersteps=graph.num_vertices + 1,
        trace_label="bsp/kcore",
    )
    return BSPKCoreResult(
        k=k,
        in_core=result.values >= 0,
        num_supersteps=result.num_supersteps,
        dropped_per_superstep=program.dropped_per_superstep,
        messages_per_superstep=result.messages_per_superstep,
        trace=result.trace,
    )
