"""Connected components in the BSP model (paper Algorithm 1).

Every vertex starts as its own component (Shiloach–Vishkin style).  In
superstep 0 each vertex sets its label to its own id and floods it to all
neighbours; in every later superstep an active vertex takes the minimum of
its incoming labels, and — only if its label improved — floods the new
label onward.  When no label changes anywhere, all vertices vote to halt.

Because a message cannot be consumed until the *next* superstep, label
information moves one hop per superstep: the paper observes at least a 2x
iteration blow-up over the shared-memory algorithm, with the first few
supersteps touching nearly every vertex (Fig. 1, left).

The module pairs the paper's pseudocode as a per-vertex
:class:`BSPConnectedComponents` (run by the reference engine) with the
whole-superstep :class:`DenseConnectedComponents` (run by the
:class:`~repro.bsp.dense.DenseBSPEngine` — the benchmark path).
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

__all__ = [
    "BSPConnectedComponents",
    "BSPComponentsResult",
    "DenseConnectedComponents",
    "bsp_connected_components",
]


class BSPConnectedComponents(VertexProgram):
    """Algorithm 1, verbatim vertex program."""

    def initial_value(self, vertex: int, graph) -> int:
        return vertex

    def compute(self, ctx: VertexContext, messages: Sequence[int]) -> None:
        vote = False
        label = ctx.value
        for m in messages:                       # lines 2-5
            if m < label:
                label = m
                vote = True
        if ctx.superstep == 0:                   # lines 6-9
            label = ctx.vertex_id
            ctx.value = label
            ctx.send_to_neighbors(label)
        else:                                    # lines 10-13
            if vote:
                ctx.value = label
                ctx.send_to_neighbors(label)
        ctx.vote_to_halt()


class DenseConnectedComponents(DenseVertexProgram):
    """Algorithm 1 as whole-superstep array kernels (min-label flooding)."""

    combine = np.minimum
    combine_identity = np.iinfo(np.int64).max
    message_dtype = np.int64

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """Every vertex starts as its own component."""
        return np.arange(graph.num_vertices, dtype=np.int64)

    def arc_payload(
        self, graph: CSRGraph, values: np.ndarray, selection: np.ndarray
    ) -> np.ndarray:
        """A sender floods its current label."""
        return source_values(graph, values, selection)

    def compute(self, ctx: DenseSuperstepContext) -> np.ndarray | None:
        ctx.vote_to_halt()
        if ctx.superstep == 0:                   # lines 6-9
            labels = ctx.values
            labels[ctx.active] = ctx.active
            return ctx.active
        labels, receivers = ctx.values, ctx.receivers  # lines 10-13
        improved = receivers[ctx.messages[receivers] < labels[receivers]]
        labels[improved] = ctx.messages[improved]
        return improved


@dataclass
class BSPComponentsResult:
    """Outcome of the dense-engine BSP connected components."""

    labels: np.ndarray
    num_components: int
    num_supersteps: int
    active_per_superstep: list[int] = field(default_factory=list)
    messages_per_superstep: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_superstep)


def bsp_connected_components(
    graph: CSRGraph,
    *,
    engine=None,
) -> BSPComponentsResult:
    """Dense-engine execution of Algorithm 1.

    Superstep semantics match :class:`BSPConnectedComponents` under the
    reference engine exactly (asserted by the test suite): same labels,
    same superstep count, same per-superstep message counts.

    ``engine`` is a caller-owned :func:`repro.bsp.make_engine` engine on
    this graph (sharded, traced, ... as built), left open; the default
    is a :class:`~repro.bsp.DenseBSPEngine` for the call.
    """
    if graph.directed:
        raise ValueError(
            "BSP connected components requires an undirected graph"
        )
    result = engine_for(graph, engine).run(
        DenseConnectedComponents(),
        max_supersteps=graph.num_vertices + 1,
        trace_label="bsp/cc",
    )
    labels = result.values
    return BSPComponentsResult(
        labels=labels,
        # Labels are vertex ids: no hash or sort.
        num_components=int(np.count_nonzero(np.bincount(labels))),
        num_supersteps=result.num_supersteps,
        active_per_superstep=result.active_per_superstep,
        messages_per_superstep=result.messages_per_superstep,
        trace=result.trace,
    )
