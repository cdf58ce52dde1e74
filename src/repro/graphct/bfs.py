"""Shared-memory level-synchronous breadth-first search.

The GraphCT baseline of §IV: the multithreaded level-synchronous BFS of
Bader & Madduri (ICPP 2006).  Each level expands the current frontier in
parallel; a vertex joins the next frontier only if it is *definitively
unmarked*, and only one copy of each vertex is enqueued (the property the
paper contrasts with BSP's speculative messaging).  The next-frontier
queue tail is reserved with atomic fetch-and-adds in thread-local chunks,
which is why the shared-memory queue shows far less contention than the
BSP message queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, arc_indices, check_vertex
from repro.runtime.loops import Tracer
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts
from repro.xmt.trace import WorkTrace

__all__ = ["BFSResult", "breadth_first_search"]

#: Queue slots a thread reserves per fetch-and-add on the shared tail.
#: Chunking is the standard MTA/XMT idiom for low-contention work queues.
QUEUE_CHUNK = 64


@dataclass
class BFSResult:
    """Outcome of a breadth-first search."""

    source: int
    #: Hop distance from the source; -1 for unreachable vertices.
    distances: np.ndarray
    #: BFS-tree parent; -1 for the source and unreachable vertices.
    parents: np.ndarray
    #: Vertices on the frontier at each level (level 0 = the source).
    frontier_sizes: list[int] = field(default_factory=list)
    #: Arcs examined while expanding each level.
    edges_examined: list[int] = field(default_factory=list)
    trace: WorkTrace = field(default_factory=WorkTrace)

    @property
    def num_levels(self) -> int:
        return len(self.frontier_sizes)

    @property
    def vertices_reached(self) -> int:
        return int(np.count_nonzero(self.distances >= 0))


def breadth_first_search(
    graph: CSRGraph,
    source: int,
    *,
    costs: KernelCosts = DEFAULT_COSTS,
) -> BFSResult:
    """Level-synchronous BFS from ``source``.

    Works on directed and undirected graphs (follows out-arcs).
    """
    source = check_vertex(graph, source)
    n = graph.num_vertices

    tracer = Tracer(label="graphct/bfs")
    distances = np.full(n, -1, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    frontier_sizes: list[int] = []
    edges_examined: list[int] = []

    level = 0
    while frontier.size:
        with tracer.region(
            "bfs/level", items=int(frontier.size), iteration=level
        ) as r:
            counts = graph.degrees()[frontier]
            arcs = int(counts.sum())
            frontier_sizes.append(int(frontier.size))
            edges_examined.append(arcs)

            if arcs:
                offsets = arc_indices(frontier, graph.row_ptr)
                nbrs = graph.col_idx[offsets]
                parent_of = np.repeat(frontier, counts)
                fresh = distances[nbrs] < 0
                cand = nbrs[fresh]
                cand_parent = parent_of[fresh]
                # First writer wins, as on the XMT: keep the first
                # occurrence of each newly discovered vertex.
                uniq, first = np.unique(cand, return_index=True)
                distances[uniq] = level + 1
                parents[uniq] = cand_parent[first]
                next_frontier = uniq
            else:
                next_frontier = np.empty(0, dtype=np.int64)

            discovered = int(next_frontier.size)
            r.count(
                instructions=(
                    arcs * costs.edge_visit_instructions
                    + frontier.size * costs.vertex_touch_instructions
                ),
                # one colour check per examined arc + frontier loads
                reads=arcs + frontier.size,
                # distance + parent + queue slot per discovered vertex
                writes=3 * discovered,
            )
            # Chunked tail reservation on one shared counter word.
            r.atomics_per_site(int(np.ceil(discovered / QUEUE_CHUNK)))

        frontier = next_frontier
        level += 1

    return BFSResult(
        source=source,
        distances=distances,
        parents=parents,
        frontier_sizes=frontier_sizes,
        edges_examined=edges_examined,
        trace=tracer.trace,
    )
