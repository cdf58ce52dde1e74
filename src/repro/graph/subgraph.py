"""Subgraph extraction (a GraphCT workflow utility).

GraphCT workflows chain kernels through utilities like "extract the
subgraph induced by these vertices"; e.g. the GraphCT paper's workflows
first extract the giant component.  Extraction relabels the
kept vertices to a dense 0..k-1 id space and returns the mapping.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.builder import from_edge_array
from repro.graph.csr import VERTEX_DTYPE, CSRGraph
from repro.graph.properties import _component_labels, _dense_engine

__all__ = ["extract_subgraph", "largest_component_subgraph"]


def extract_subgraph(
    graph: CSRGraph,
    vertices: Sequence[int] | np.ndarray,
) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on ``vertices``.

    Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
    original id of subgraph vertex ``i``.  Duplicate ids are collapsed;
    order of ``original_ids`` is ascending original id.
    """
    keep_ids = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
    if keep_ids.size and (
        keep_ids[0] < 0 or keep_ids[-1] >= graph.num_vertices
    ):
        raise IndexError("vertex id out of range")
    keep_mask = np.zeros(graph.num_vertices, dtype=bool)
    keep_mask[keep_ids] = True
    remap = np.full(graph.num_vertices, -1, dtype=VERTEX_DTYPE)
    remap[keep_ids] = np.arange(keep_ids.size, dtype=VERTEX_DTYPE)

    src = graph.arc_sources()
    dst = graph.col_idx
    arc_keep = keep_mask[src] & keep_mask[dst]
    if not graph.directed:
        # Each undirected edge is stored as two arcs; keep only u <= v to
        # avoid double-counting, the builder re-symmetrizes.
        arc_keep &= src <= dst
    edges = np.column_stack([remap[src[arc_keep]], remap[dst[arc_keep]]])
    weights = graph.weights[arc_keep] if graph.weights is not None else None
    sub = from_edge_array(
        edges,
        keep_ids.size,
        weights=weights,
        directed=graph.directed,
        remove_self_loops=False,
        deduplicate=False,
    )
    return sub, keep_ids


def largest_component_subgraph(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph of the largest connected component."""
    labels = _component_labels(_dense_engine(graph))
    giant = np.argmax(np.bincount(labels))
    return extract_subgraph(graph, np.flatnonzero(labels == giant))
