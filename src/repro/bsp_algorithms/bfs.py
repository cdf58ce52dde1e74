"""Breadth-first search in the BSP model (paper Algorithm 2).

The vertex state is the current distance from the source.  In superstep 0
the source sets its distance to 0 and floods it; every other vertex holds
infinity.  A vertex receiving a distance ``m`` with ``m + 1 < D`` adopts
``m + 1`` and floods its new distance.

The crucial contrast with the shared-memory level-synchronous BFS (§IV):
the BSP algorithm "must send messages to every vertex that could possibly
be on the frontier" — one message per edge incident on the frontier —
while GraphCT enqueues each undiscovered vertex exactly once.  Past the
frontier apex the message count exceeds the true frontier by an order of
magnitude (Fig. 2), and the wasted deliveries are discarded.

The module pairs the paper's pseudocode as a per-vertex
:class:`BSPBreadthFirstSearch` (run by the reference engine) with the
whole-superstep :class:`DenseBreadthFirstSearch` (run by the
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
from repro.graph.csr import CSRGraph, check_vertex
from repro.xmt.trace import WorkTrace

__all__ = [
    "BSPBFSResult",
    "BSPBreadthFirstSearch",
    "DenseBreadthFirstSearch",
    "bsp_breadth_first_search",
]

#: Sentinel for "infinity" in integer distance arrays.
UNREACHED = np.iinfo(np.int64).max


class BSPBreadthFirstSearch(VertexProgram):
    """Algorithm 2, verbatim vertex program.

    The source vertex is a constructor argument; every vertex's state is
    its tentative distance (``None`` encodes infinity for readability).
    """

    def __init__(self, source: int):
        self.source = int(source)

    def compute(self, ctx: VertexContext, messages: Sequence[int]) -> None:
        vote = False
        dist = ctx.value
        for m in messages:                        # lines 2-5
            if dist is None or m + 1 < dist:
                dist = m + 1
                vote = True
        if ctx.superstep == 0:                    # lines 6-10
            if dist == 0 and ctx.vertex_id == self.source:
                ctx.send_to_neighbors(dist)
        else:                                     # lines 11-14
            if vote:
                ctx.value = dist
                ctx.send_to_neighbors(dist)
        ctx.vote_to_halt()

    def initial_value(self, vertex: int, graph) -> int | None:
        return 0 if vertex == self.source else None


class DenseBreadthFirstSearch(DenseVertexProgram):
    """Algorithm 2 as whole-superstep array kernels.

    At superstep ``s`` every delivered message equals ``s`` (each sender
    holds distance ``s - 1``), so the improved set is exactly
    ``receivers ∩ {dist == ∞}``: the program filters the engine's
    receiver set and never reads the materialized inbox.  The per-edge
    flood remains *modeled* (it is the BSP message count the paper's
    Fig. 2 charges) but no per-arc work is performed here — the engine's
    scatter accounting has already produced the receiver set, which is
    why a bottom-up (unvisited-vertices-scan-for-a-parent) step could
    only add work on top of it (docs/MODEL.md).

    Besides the engine-owned distances it records ``frontier_sizes`` —
    the newly discovered vertices per level, Fig. 2's comparison series
    against the message counts.
    """

    combine = np.minimum
    combine_identity = UNREACHED
    message_dtype = np.int64

    def __init__(self, source: int):
        self.source = int(source)
        #: Newly discovered vertices per level (rebuilt each run).
        self.frontier_sizes: list[int] = []

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """Distance 0 at the source, infinity elsewhere."""
        self.frontier_sizes = [1]
        dist = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
        dist[self.source] = 0
        return dist

    def arc_payload(
        self, graph: CSRGraph, values: np.ndarray, selection: np.ndarray
    ) -> np.ndarray:
        """A sender floods its distance plus one (the add runs once per
        vertex, not per arc; unreached vertices never send)."""
        return source_values(graph, values + 1, selection)

    def compute(self, ctx: DenseSuperstepContext) -> np.ndarray | None:
        ctx.vote_to_halt()
        if ctx.superstep == 0:                    # lines 6-10
            return np.asarray([self.source], dtype=np.int64)
        dist = ctx.values                         # lines 11-14
        # Every message this superstep equals ctx.superstep, so the
        # adoption test "message < dist" is "dist == UNREACHED" and
        # the inbox never needs materializing.
        receivers = ctx.receivers
        improved = receivers[dist[receivers] == UNREACHED]
        dist[improved] = ctx.superstep
        if improved.size:
            # A level is only a level if it discovered something: the
            # final superstep (all deliveries land on visited vertices)
            # must not append a spurious trailing zero.
            self.frontier_sizes.append(int(improved.size))
        return improved


@dataclass
class BSPBFSResult:
    """Outcome of the dense-engine BSP breadth-first search."""

    source: int
    #: Hop distance; -1 for unreachable vertices.
    distances: np.ndarray
    num_supersteps: int
    #: Vertices computing in each superstep (message receivers).
    active_per_superstep: list[int] = field(default_factory=list)
    #: Messages sent in each superstep — Fig. 2's green series.
    messages_per_superstep: list[int] = field(default_factory=list)
    #: True frontier per level (newly discovered vertices) for comparison
    #: against the messages series.
    frontier_sizes: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_superstep)

    @property
    def vertices_reached(self) -> int:
        return int(np.count_nonzero(self.distances >= 0))


def bsp_breadth_first_search(
    graph: CSRGraph,
    source: int,
    *,
    engine=None,
) -> BSPBFSResult:
    """Dense-engine execution of Algorithm 2.

    ``engine`` is a caller-owned :func:`repro.bsp.make_engine` engine on
    this graph (sharded, traced, ... as built), left open; the default
    is a :class:`~repro.bsp.DenseBSPEngine` for the call.
    """
    source = check_vertex(graph, source)
    program = DenseBreadthFirstSearch(source)
    result = engine_for(graph, engine).run(
        program,
        max_supersteps=graph.num_vertices + 1,
        trace_label="bsp/bfs",
    )
    dist = result.values
    return BSPBFSResult(
        source=source,
        distances=np.where(dist == UNREACHED, -1, dist),
        num_supersteps=result.num_supersteps,
        active_per_superstep=result.active_per_superstep,
        messages_per_superstep=result.messages_per_superstep,
        frontier_sizes=program.frontier_sizes,
        trace=result.trace,
    )
