"""The wedge-closure scan both triangle counters share.

Both triangle counters — the shared-memory GraphCT kernel
(:mod:`repro.graphct.triangles`) and the BSP Algorithm 3 rendition
(:mod:`repro.bsp_algorithms.triangles`) — close the same wedge set of an
oriented DAG: for every DAG arc ``u → c``, one wedge ``(u, c, w)`` per
out-neighbour ``w`` of ``c``, closed iff the arc ``u → w`` exists.  That
is Algorithm 3's own superstep-1 expansion: the id ``u`` arriving at
``c`` is re-sent along c's out-row.  ``u`` is the wedge's minimum
corner, so consecutive closure keys ``u·n + w`` share ``u`` and the
binary search over the sorted arc keys stays inside one row's window.

:func:`closed_wedges` runs the scan once per graph and orientation and
memoizes its outcome in the graph's derived-array cache.  The counters
differ only in how they *charge* the wedges (implicit loop reads vs.
materialized possible-triangle messages), and those charges are derived
from counts, so they do not depend on the enumeration order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graph.csr import CSRGraph, arc_indices
from repro.graph.dag import ascending_orientation, degree_orientation

__all__ = ["WEDGE_BATCH", "WedgeClosure", "closed_wedges"]

#: Wedges processed per vectorized batch (bounds peak memory).
WEDGE_BATCH = 4_000_000

_ORIENTATIONS = {"id": ascending_orientation, "degree": degree_orientation}


class WedgeClosure(NamedTuple):
    """Outcome of one closure scan (histograms are read-only)."""

    #: Ordered wedges enumerated = the BSP algorithm's "possible triangles".
    wedges: int
    #: Closed wedges = unique triangles.
    triangles: int
    #: Triangles per vertex, counted at their minimum corner only.
    at_min_corner: np.ndarray
    #: Triangles per vertex, counted at all three corners.
    at_corners: np.ndarray


def closed_wedges(graph: CSRGraph, ordering: str = "id") -> WedgeClosure:
    """Close every wedge of ``graph`` oriented by ``ordering`` (memoized).

    ``ordering`` is ``"id"`` (Algorithm 3's vertex-id order) or
    ``"degree"`` (the (degree, id) order of the ablation); the minimum
    corner is the minimum in that order.
    """
    if ordering not in _ORIENTATIONS:
        raise ValueError("ordering must be 'id' or 'degree'")
    key = ("closed_wedges", ordering)
    cached = graph._degree_cache.get(key)
    if cached is None:
        cached = _scan(_ORIENTATIONS[ordering](graph))
        cached.at_min_corner.setflags(write=False)
        cached.at_corners.setflags(write=False)
        graph._degree_cache[key] = cached
    return cached


def _scan(dag: CSRGraph) -> WedgeClosure:
    """Enumerate the wedges of ``dag`` per arc ``u → c``, in batches."""
    n = dag.num_vertices
    row_ptr = dag.row_ptr
    dag_src = dag.arc_sources()
    dag_dst = dag.col_idx
    # (src, dst) is lexicographically sorted in CSR order, so the fused
    # keys are sorted too.
    arc_keys = dag_src * n + dag_dst
    wedges_per_arc = dag.degrees()[dag_dst]
    at_min = np.zeros(n, dtype=np.int64)
    at_corners = np.zeros(n, dtype=np.int64)
    triangles = 0

    arc_starts = np.concatenate([[0], np.cumsum(wedges_per_arc)])
    arc_lo, arc_end = 0, int(dag_dst.size)
    while arc_lo < arc_end:
        # Batches of about WEDGE_BATCH wedges, at least one arc each, so
        # a single hub row cannot stall progress.
        arc_hi = int(
            np.searchsorted(arc_starts, arc_starts[arc_lo] + WEDGE_BATCH, "right")
        ) - 1
        arc_hi = min(max(arc_hi, arc_lo + 1), arc_end)
        sel = slice(arc_lo, arc_hi)
        counts = wedges_per_arc[sel]
        if counts.sum():
            u = np.repeat(dag_src[sel], counts)
            w = dag_dst[arc_indices(dag_dst[sel], row_ptr)]
            keys = u * n + w
            # counts.sum() > 0 implies the DAG has arcs, so arc_keys is
            # non-empty here and clamping the insertion point is safe.
            pos = np.minimum(np.searchsorted(arc_keys, keys), arc_keys.size - 1)
            hit = arc_keys[pos] == keys
            closed = int(np.count_nonzero(hit))
            if closed:
                triangles += closed
                low = u[hit]
                centre = np.repeat(dag_dst[sel], counts)[hit]
                at_min += np.bincount(low, minlength=n)
                at_corners += np.bincount(
                    np.concatenate([low, centre, w[hit]]), minlength=n
                )
        arc_lo = arc_hi

    return WedgeClosure(
        wedges=int(wedges_per_arc.sum()),
        triangles=triangles,
        at_min_corner=at_min,
        at_corners=at_corners,
    )
