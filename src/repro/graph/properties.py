"""Graph property utilities (degree statistics, reachability, symmetry).

These are the small "workflow" helpers GraphCT exposes around its kernels.
They are also used internally by the experiment harness, e.g. to pick a BFS
source inside the giant component and to report the degree skew that drives
the paper's analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "DegreeStatistics",
    "degree_statistics",
    "is_symmetric",
    "reachable_from",
    "connected_component_sizes",
    "giant_component_vertex",
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
    """Boolean mask of vertices reachable from ``source`` (frontier sweep)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range")
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.asarray([source], dtype=np.int64)
    while frontier.size:
        starts = graph.row_ptr[frontier]
        stops = graph.row_ptr[frontier + 1]
        counts = stops - starts
        if counts.sum() == 0:
            break
        # Gather all neighbours of the frontier in one shot.
        offsets = np.repeat(starts, counts) + _ragged_arange(counts)
        nbrs = graph.col_idx[offsets]
        new = nbrs[~visited[nbrs]]
        if new.size == 0:
            break
        new = np.unique(new)
        visited[new] = True
        frontier = new
    return visited


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(c)`` for each count ``c`` without Python loops.

    For counts ``[2, 0, 3]`` returns ``[0, 1, 0, 1, 2]``.
    """
    # Position in the output less the start of the run it falls in.
    run_starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)


def connected_component_sizes(graph: CSRGraph) -> np.ndarray:
    """Sizes of connected components, descending.

    Implemented with repeated pointer-jumping label propagation (independent
    of the instrumented kernels in :mod:`repro.graphct`, so it can serve as
    a lightweight oracle for utilities like subgraph extraction).
    """
    labels = _label_components(graph)
    _, counts = np.unique(labels, return_counts=True)
    return np.sort(counts)[::-1]


def giant_component_vertex(graph: CSRGraph) -> int:
    """A vertex inside the largest connected component.

    The experiment harness uses this to pick BFS sources that reach the
    bulk of the graph (the paper traverses "the entire graph" from one
    source, which requires the source to be in the giant component).
    """
    labels = _label_components(graph)
    values, counts = np.unique(labels, return_counts=True)
    giant = values[np.argmax(counts)]
    return int(np.flatnonzero(labels == giant)[0])


def peripheral_vertex(graph: CSRGraph, hops: int = 2) -> int:
    """A low-eccentricity-complement vertex: far from the giant hub.

    Runs ``hops`` sweeps of the double-BFS heuristic inside the giant
    component, returning a vertex on the last discovered frontier.  BFS
    from such a vertex exhibits the full frontier ramp-up/apex/contraction
    profile of the paper's Figures 2 and 3 (a hub source collapses the
    level structure to 3-4 levels).
    """
    start = giant_component_vertex(graph)
    current = start
    for _ in range(max(hops, 1)):
        dist = _bfs_distances(graph, current)
        reachable = dist >= 0
        far = int(dist[reachable].max())
        candidates = np.flatnonzero(reachable & (dist == far))
        # Prefer a low-degree peripheral vertex (deterministic pick).
        degrees = graph.degrees()[candidates]
        nxt = int(candidates[np.argmin(degrees)])
        if nxt == current:
            break
        current = nxt
    return current


def _bfs_distances(graph: CSRGraph, source: int) -> np.ndarray:
    dist = np.full(graph.num_vertices, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = graph.row_ptr[frontier]
        counts = graph.row_ptr[frontier + 1] - starts
        if counts.sum() == 0:
            break
        offsets = np.repeat(starts, counts) + _ragged_arange(counts)
        nbrs = graph.col_idx[offsets]
        new = np.unique(nbrs[dist[nbrs] < 0])
        if not new.size:
            break
        level += 1
        dist[new] = level
        frontier = new
    return dist


def _label_components(graph: CSRGraph) -> np.ndarray:
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    src = graph.arc_sources()
    dst = graph.col_idx
    while True:
        # Hook: each arc pulls its endpoints to the smaller label.
        smaller = np.minimum(labels[src], labels[dst])
        new_labels = labels.copy()
        np.minimum.at(new_labels, src, smaller)
        np.minimum.at(new_labels, dst, smaller)
        # Compress: pointer jumping until labels are fixpoints.
        while True:
            jumped = new_labels[new_labels]
            if np.array_equal(jumped, new_labels):
                break
            new_labels = jumped
        if np.array_equal(new_labels, labels):
            return labels
        labels = new_labels
