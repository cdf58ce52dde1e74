"""Triangle counting in the BSP model (paper Algorithm 3).

Three supersteps replace the shared-memory triply-nested loop:

* **superstep 0** — every vertex v sends its id to each neighbour n with
  ``v < n``  (one message per undirected edge);
* **superstep 1** — each received id ``m`` is retransmitted to every
  neighbour ``n`` with ``m < v < n``  (one message per *possible
  triangle*, i.e. per ordered wedge — this is the explosion);
* **superstep 2** — a vertex receiving ``m`` checks ``m ∈ Neighbors(v)``;
  on a hit a triangle ``m < sender < v`` exists and a found-notification
  is sent back to ``m`` (delivered in a final drain superstep).

"Although this algorithm is easy to express in the model, the number of
messages generated is much larger than the number of edges" (§V): the
paper counts 5.5 billion possible-triangle messages against 30.9 million
actual triangles — 181x the shared-memory writes for 9.4x the time.

:func:`bsp_count_triangles` runs the three supersteps whole-graph at a
time, serially: superstep 2's membership probes are the closure scan it
shares with the GraphCT counter (:mod:`repro.graph.wedges`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bsp.instrumentation import record_superstep
from repro.bsp.vertex import VertexContext, VertexProgram
from repro.graph.csr import CSRGraph
from repro.graph.dag import ascending_orientation
from repro.graph.wedges import closed_wedges
from repro.runtime.loops import Tracer
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts
from repro.xmt.trace import WorkTrace

__all__ = [
    "BSPTriangleCounting",
    "BSPTriangleResult",
    "bsp_count_triangles",
]


class BSPTriangleCounting(VertexProgram):
    """Algorithm 3, verbatim vertex program.

    After the run, each vertex's state holds the number of triangles in
    which it is the *minimum-id* corner (the found-notifications of the
    final superstep); summing all states gives the triangle count.
    """

    def initial_value(self, vertex: int, graph) -> int:
        return 0

    def compute(self, ctx: VertexContext, messages: Sequence[int]) -> None:
        v = ctx.vertex_id
        if ctx.superstep == 0:                      # lines 1-4
            for n in ctx.neighbors().tolist():
                if v < n:
                    ctx.send(n, v)
        elif ctx.superstep == 1:                    # lines 5-9
            nbrs = ctx.neighbors().tolist()
            for m in messages:
                for n in nbrs:
                    if m < v < n:
                        ctx.send(n, m)
        elif ctx.superstep == 2:                    # lines 10-13
            nbrs = set(ctx.neighbors().tolist())
            for m in messages:
                if m in nbrs:
                    ctx.send(m, m)
        else:
            # Drain superstep: count the found-notifications.
            ctx.value = ctx.value + len(messages)
        ctx.vote_to_halt()


@dataclass
class BSPTriangleResult:
    """Outcome of the vectorized BSP triangle counting."""

    total_triangles: int
    #: Triangles counted at their minimum-id corner (read-only: the
    #: graph's memoized closure histogram).
    per_vertex: np.ndarray
    #: Possible triangles materialized as superstep-1 messages.
    possible_triangles: int
    num_supersteps: int
    messages_per_superstep: list[int] = field(default_factory=list)
    active_per_superstep: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_superstep)


def bsp_count_triangles(
    graph: CSRGraph,
    *,
    costs: KernelCosts = DEFAULT_COSTS,
) -> BSPTriangleResult:
    """Vectorized whole-superstep execution of Algorithm 3.

    Superstep 2's closure test — one membership probe per possible
    triangle, the dominant cost — is the graph's shared closure scan
    (:func:`repro.graph.wedges.closed_wedges`, memoized per graph), so a
    GraphCT count of the same graph does not scan again.  The returned
    ``per_vertex`` is that scan's read-only minimum-corner histogram.
    Messages and charges come from the DAG's degree vectors, not from
    the scan's order.
    """
    if graph.directed:
        raise ValueError("BSP triangle counting requires an undirected graph")
    n = graph.num_vertices
    tracer = Tracer(label="bsp/triangles")
    dag = ascending_orientation(graph)
    dag_dst = dag.col_idx
    in_degree = dag.in_degrees()
    wedges_per_arc = in_degree[dag.arc_sources()]

    message_hist: list[int] = []
    active_hist: list[int] = []

    deg = graph.degrees()

    # --- superstep 0: v -> n for v < n: one message per undirected edge.
    # Every vertex scans its full neighbour list to apply the v < n test.
    s0_sent = int(dag_dst.size)
    enq0 = in_degree
    record_superstep(
        tracer, superstep=0, active=n, received=0, sent=s0_sent,
        enqueues_per_destination=enq0 if s0_sent else None, costs=costs,
        compute_reads=float(graph.num_arcs),
        compute_instructions=graph.num_arcs * costs.edge_visit_instructions,
    )
    message_hist.append(s0_sent)
    active_hist.append(n)

    # --- superstep 1: each message m at v fans out to neighbours n > v.
    # Receivers of superstep-0 messages are the DAG arc destinations;
    # vertex v receives in_degree(v) messages and forwards each to its
    # out_degree(v) higher neighbours: wedge count = sum in*out.
    closure = closed_wedges(graph, "id")
    s1_sent = closure.wedges
    enq1 = (
        np.bincount(dag_dst, weights=wedges_per_arc, minlength=n).astype(
            np.int64
        )
        if s1_sent
        else np.zeros(n, dtype=np.int64)
    )
    s0_receivers = int(np.count_nonzero(in_degree))
    # Each received message m is tested against every neighbour of v
    # (the m < v < n filter scans the whole list).
    s1_scan = float(np.sum(in_degree * deg))
    record_superstep(
        tracer, superstep=1, active=s0_receivers, received=s0_sent,
        sent=s1_sent, enqueues_per_destination=enq1 if s1_sent else None,
        costs=costs,
        compute_reads=s1_scan,
        compute_instructions=s1_scan * costs.edge_visit_instructions,
    )
    message_hist.append(s1_sent)
    active_hist.append(s0_receivers)

    # --- superstep 2: closure check m ∈ Neighbors(v); hits notify m.
    # Each wedge is one message (payload u = m, destination w); a hit
    # notifies the minimum corner m.
    total_triangles = closure.triangles
    per_vertex = closure.at_min_corner
    s1_receivers = int(np.count_nonzero(enq1))
    s2_sent = total_triangles                     # found-notifications
    enq2 = per_vertex                             # one message per hit, to m
    # Membership test m in Neighbors(v): binary search over the sorted
    # adjacency list, one probe chain per wedge message.
    probe_depth = np.ceil(np.log2(np.maximum(deg[dag_dst], 2)))
    s2_scan = float(np.sum(wedges_per_arc * probe_depth))
    record_superstep(
        tracer, superstep=2, active=s1_receivers, received=s1_sent,
        sent=s2_sent, enqueues_per_destination=enq2 if s2_sent else None,
        costs=costs,
        compute_reads=s2_scan,
        compute_instructions=s2_scan * costs.intersection_step_instructions,
    )
    message_hist.append(s2_sent)
    active_hist.append(s1_receivers)

    # --- drain superstep: deliver the notifications.
    num_supersteps = 3
    if s2_sent:
        s2_receivers = int(np.count_nonzero(per_vertex))
        record_superstep(
            tracer, superstep=3, active=s2_receivers, received=s2_sent,
            sent=0, enqueues_per_destination=None, costs=costs,
        )
        message_hist.append(0)
        active_hist.append(s2_receivers)
        num_supersteps = 4

    return BSPTriangleResult(
        total_triangles=total_triangles,
        per_vertex=per_vertex,
        possible_triangles=s1_sent,
        num_supersteps=num_supersteps,
        messages_per_superstep=message_hist,
        active_per_superstep=active_hist,
        trace=tracer.trace,
    )
