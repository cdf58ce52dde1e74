"""Single-source shortest paths (Bellman–Ford rounds, shared memory).

The paper's §IV cites Kajdanowicz et al.'s SSSP comparison on a Twitter
graph; this kernel is the shared-memory counterpart used by that
reproduction bench.  The algorithm is the frontier-driven Bellman–Ford:
each round relaxes all out-arcs of the vertices whose distance improved
in the previous round — on an unweighted graph this degenerates to
level-synchronous BFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, arc_indices, check_vertex, check_weights
from repro.runtime.loops import Tracer
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts
from repro.xmt.trace import WorkTrace

__all__ = ["SSSPResult", "sssp"]


@dataclass
class SSSPResult:
    """Outcome of a shortest-path computation."""

    source: int
    #: Shortest distance from the source; +inf for unreachable vertices.
    distances: np.ndarray
    num_rounds: int
    #: Active (improved) vertices per round.
    active_per_round: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)


def sssp(
    graph: CSRGraph,
    source: int,
    *,
    costs: KernelCosts = DEFAULT_COSTS,
) -> SSSPResult:
    """Shortest paths from ``source``; unweighted arcs count 1.

    Negative, NaN and infinite weights are rejected
    (:func:`~repro.graph.csr.check_weights`): Bellman–Ford rounds would
    still converge on negative ones, but negative cycles are
    undetectable in this formulation.
    """
    source = check_vertex(graph, source)
    n = graph.num_vertices
    check_weights(graph)

    tracer = Tracer(label="graphct/sssp")
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = np.asarray([source], dtype=np.int64)
    active_history: list[int] = []

    round_index = 0
    while frontier.size:
        active_history.append(int(frontier.size))
        with tracer.region(
            "sssp/round", items=int(frontier.size), iteration=round_index
        ) as r:
            counts = graph.degrees()[frontier]
            arcs = int(counts.sum())
            if arcs:
                offsets = arc_indices(frontier, graph.row_ptr)
                nbrs = graph.col_idx[offsets]
                w = (
                    graph.weights[offsets]
                    if graph.weights is not None
                    else np.ones(arcs)
                )
                cand = np.repeat(dist[frontier], counts) + w
                improved = cand < dist[nbrs]
                tgt = nbrs[improved]
                val = cand[improved]
                # Per-target minimum (multiple relaxations may race on the
                # XMT; the minimum wins either way).
                order = np.lexsort((val, tgt))
                tgt, val = tgt[order], val[order]
                first = np.ones(tgt.size, dtype=bool)
                first[1:] = tgt[1:] != tgt[:-1]
                np.minimum.at(dist, tgt[first], val[first])
                next_frontier = np.unique(tgt)
                relaxations = int(np.count_nonzero(improved))
            else:
                next_frontier = np.empty(0, dtype=np.int64)
                relaxations = 0
            r.count(
                instructions=arcs * costs.edge_visit_instructions
                + frontier.size * costs.vertex_touch_instructions,
                reads=2 * arcs + frontier.size,
                writes=relaxations,
            )
        frontier = next_frontier
        round_index += 1

    return SSSPResult(
        source=source,
        distances=dist,
        num_rounds=round_index,
        active_per_round=active_history,
        trace=tracer.trace,
    )
