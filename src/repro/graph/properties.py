"""Graph property utilities (degree statistics, symmetry, reachability,
components).

These are the small "workflow" helpers GraphCT exposes around its kernels.
They are also used internally by the experiment harness, e.g. to pick a BFS
source inside the giant component and to report the degree skew that drives
the paper's analysis.  Reachability and components have no kernel of their
own: they run the dense BSP engine's BFS and CC programs (the paper's
Algorithms 2 and 1), so the repository has one BFS and one CC to trust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph, check_vertex

__all__ = [
    "DegreeStatistics",
    "degree_statistics",
    "is_symmetric",
    "reachable_from",
    "connected_component_sizes",
    "giant_component_vertex",
    "peripheral_vertex",
]


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of a graph's degree distribution."""

    min_degree: int
    max_degree: int
    mean_degree: float
    median_degree: float
    isolated_vertices: int
    #: Ratio max/mean — the skew measure the paper's load-balance discussion
    #: is about (scale-free graphs have a handful of very high degrees).
    skew: float


def degree_statistics(graph: CSRGraph) -> DegreeStatistics:
    """Compute degree summary statistics."""
    deg = graph.degrees()
    if deg.size == 0:
        return DegreeStatistics(0, 0, 0.0, 0.0, 0, 0.0)
    mean = float(deg.mean())
    return DegreeStatistics(
        min_degree=int(deg.min()),
        max_degree=int(deg.max()),
        mean_degree=mean,
        median_degree=float(np.median(deg)),
        isolated_vertices=int(np.count_nonzero(deg == 0)),
        skew=float(deg.max()) / mean if mean > 0 else 0.0,
    )


def is_symmetric(graph: CSRGraph) -> bool:
    """True when for every stored arc u→v the reverse arc v→u is stored."""
    # The arc multiset equals its transpose exactly when the sorted int64
    # keys src * n + dst and dst * n + src agree.
    n = graph.num_vertices
    src = graph.arc_sources()
    dst = graph.col_idx
    return bool(np.array_equal(np.sort(src * n + dst), np.sort(dst * n + src)))


def reachable_from(graph: CSRGraph, source: int) -> np.ndarray:
    """Boolean mask of the vertices reachable from ``source`` along
    out-arcs: the dense engine's BFS from it."""
    return _hop_distances(_dense_engine(graph), source) >= 0


def connected_component_sizes(graph: CSRGraph) -> np.ndarray:
    """Sizes of the connected components of an undirected graph, descending.

    The dense engine's CC labels each vertex with its component's
    smallest id, so the sizes are the non-zero counts of the labels.
    """
    counts = np.bincount(_component_labels(_dense_engine(graph)))
    return np.sort(counts[counts > 0])[::-1]


def giant_component_vertex(graph: CSRGraph) -> int:
    """The smallest vertex of the largest connected component.

    The experiment harness uses this to pick BFS sources that reach the
    bulk of the graph (the paper traverses "the entire graph" from one
    source, which requires the source to be in the giant component).
    A label is its component's smallest vertex, and ties go to the
    smaller label.
    """
    return int(np.argmax(np.bincount(_component_labels(_dense_engine(graph)))))


def peripheral_vertex(graph: CSRGraph, hops: int = 2) -> int:
    """A low-eccentricity-complement vertex: far from the giant hub.

    Runs ``hops`` sweeps of the double-BFS heuristic inside the giant
    component, returning a vertex on the last discovered frontier.  BFS
    from such a vertex exhibits the full frontier ramp-up/apex/contraction
    profile of the paper's Figures 2 and 3 (a hub source collapses the
    level structure to 3-4 levels).  One dense engine runs the CC and
    every BFS.
    """
    engine = _dense_engine(graph)
    current = int(np.argmax(np.bincount(_component_labels(engine))))
    for _ in range(max(hops, 1)):
        dist = _hop_distances(engine, current)
        candidates = np.flatnonzero(dist == dist.max())
        # Prefer a low-degree peripheral vertex (deterministic pick).
        nxt = int(candidates[np.argmin(graph.degrees()[candidates])])
        if nxt == current:
            break
        current = nxt
    return current


# The engine and its programs are imported on first use: repro.bsp
# imports repro.graph, so a module-level import here would be a cycle.
def _dense_engine(graph: CSRGraph):
    from repro.bsp.dense import DenseBSPEngine

    return DenseBSPEngine(graph)


def _hop_distances(engine, source: int) -> np.ndarray:
    """Hops from ``source`` (-1 where none) by the BFS program."""
    from repro.bsp_algorithms.bfs import UNREACHED, DenseBreadthFirstSearch

    program = DenseBreadthFirstSearch(check_vertex(engine.graph, source))
    # A BFS level per superstep, at most n of them, then one quiet one.
    dist = engine.run(
        program, max_supersteps=engine.graph.num_vertices + 1, trace_label="graph/bfs"
    ).values
    return np.where(dist == UNREACHED, -1, dist)


def _component_labels(engine) -> np.ndarray:
    """Each vertex's component's smallest id, by the CC program."""
    from repro.bsp_algorithms.connected_components import DenseConnectedComponents

    graph = engine.graph
    if graph.directed:
        raise ValueError("connected components require an undirected graph")
    # A label moves one hop per superstep: at most n of them, then one quiet one.
    return engine.run(
        DenseConnectedComponents(),
        max_supersteps=graph.num_vertices + 1,
        trace_label="graph/cc",
    ).values
