"""Shared-memory triangle counting and clustering coefficients.

The GraphCT implementation the paper describes (§V) is a triply-nested
loop: for every vertex, for every neighbour, intersect the two sorted
adjacency lists.  The possible triangles are *implicit in the loop body* —
the kernel writes to memory only when a triangle is actually found, which
is the crucial contrast with the BSP variant (which must materialize every
possible triangle as a message).

A total order over vertices (ids, per Algorithm 3) restricts counting to
triples v_i < v_j < v_k so each triangle is found exactly once.  The
vectorized implementation reads the graph's memoized closure scan
(:func:`repro.graph.wedges.closed_wedges`, shared with the BSP counter):
ordered wedges u < v < w enumerated from their minimum corner u and
closed with a binary search over the oriented arc set.  The *work
accounting* charges the full triply-nested loop the paper describes
(``sum_v sum_{u in N(v)} d(u)`` adjacency reads), identically for both
programming models ("Both algorithms perform the same number of
reads to the graph").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.wedges import closed_wedges
from repro.runtime.loops import Tracer
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts
from repro.xmt.trace import WorkTrace

__all__ = [
    "TriangleResult",
    "ClusteringResult",
    "count_triangles",
    "clustering_coefficients",
]


@dataclass
class TriangleResult:
    """Outcome of a triangle-counting run."""

    #: Unique triangles in the graph (each counted once).
    total_triangles: int
    #: Triangles incident on each vertex (each triangle counts at its
    #: three corners), for clustering coefficients.  Read-only: the
    #: graph's memoized closure histogram.
    per_vertex: np.ndarray
    #: Ordered wedges examined — the BSP algorithm's "possible triangles".
    wedges_checked: int
    trace: WorkTrace = field(default_factory=WorkTrace)


@dataclass
class ClusteringResult:
    """Local and global clustering coefficients."""

    #: Per-vertex local clustering coefficient (0 where degree < 2).
    local: np.ndarray
    #: Transitivity: 3 x triangles / open+closed wedges.
    global_coefficient: float
    triangles: TriangleResult


def count_triangles(
    graph: CSRGraph,
    *,
    costs: KernelCosts = DEFAULT_COSTS,
    ordering: str = "id",
) -> TriangleResult:
    """Count unique triangles of an undirected graph.

    ``ordering`` selects the total order that orients wedges: ``"id"``
    (the paper's choice) or ``"degree"`` (the ablation variant, which
    shrinks wedge counts on skewed graphs).
    """
    if graph.directed:
        raise ValueError("triangle counting requires an undirected graph")
    closure = closed_wedges(graph, ordering)
    n = graph.num_vertices
    tracer = Tracer(label="graphct/triangles")
    deg = graph.degrees()

    # --- work accounting: the paper's triply-nested shared-memory loop.
    # Inner iterations = sum over all (v, u in N(v)) of d(u) = sum d(u)^2.
    inner_steps = float(np.sum(deg.astype(np.float64) ** 2))
    with tracer.region("tc/intersect", items=max(n, 1)) as r:
        r.count(
            instructions=inner_steps * costs.intersection_step_instructions
            + n * costs.vertex_touch_instructions,
            reads=inner_steps,
            # "only produces a write when a triangle is detected" (§V)
            writes=float(closure.triangles),
        )

    return TriangleResult(
        total_triangles=closure.triangles,
        per_vertex=closure.at_corners,
        wedges_checked=closure.wedges,
        trace=tracer.trace,
    )


def clustering_coefficients(
    graph: CSRGraph,
    *,
    costs: KernelCosts = DEFAULT_COSTS,
) -> ClusteringResult:
    """Local clustering coefficients and global transitivity.

    ``local[v] = triangles_at(v) / (d(v) choose 2)``;
    ``global = 3 x triangles / wedges``.
    """
    tri = count_triangles(graph, costs=costs)
    deg = graph.degrees().astype(np.float64)
    possible = deg * (deg - 1.0) / 2.0
    local = np.zeros(graph.num_vertices, dtype=np.float64)
    mask = possible > 0
    local[mask] = tri.per_vertex[mask] / possible[mask]
    total_wedges = float(possible.sum())
    global_cc = (
        3.0 * tri.total_triangles / total_wedges if total_wedges > 0 else 0.0
    )
    return ClusteringResult(
        local=local, global_coefficient=global_cc, triangles=tri
    )
