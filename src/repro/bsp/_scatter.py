"""Shared vectorized message-scatter primitives.

The dense BSP engine and the remaining hand-vectorized kernels all
express "every sender floods a value along all its arcs" — these helpers
select those arcs, build the per-destination enqueue histograms the
instrumentation needs, and adapt a complement flood's payload
(:mod:`repro.bsp.frontier`) to a fold over every arc.
"""

from __future__ import annotations

import numpy as np

#: What a full flood leaves out of the whole-arc slice, and what every
#: selection form other than the complement keeps in that place.
NO_ARCS = np.empty(0, dtype=np.int64)
NO_ARCS.setflags(write=False)

__all__ = [
    "NO_ARCS",
    "arcs_from",
    "complement_histogram",
    "enqueue_histogram",
    "fill_left_out",
    "receivers_of",
]


def arcs_from(senders: np.ndarray, row_ptr: np.ndarray) -> np.ndarray:
    """Boolean mask over the arc array selecting arcs out of ``senders``."""
    n = row_ptr.size - 1
    vertex_mask = np.zeros(n, dtype=bool)
    vertex_mask[senders] = True
    return np.repeat(vertex_mask, np.diff(row_ptr))


def enqueue_histogram(
    destinations: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Messages enqueued per destination vertex.

    ``np.bincount`` rather than ``np.add.at``: the unbuffered ufunc
    scatter is several times slower for plain int64 counting.
    """
    if not destinations.size:
        return np.zeros(num_vertices, dtype=np.int64)
    return np.bincount(destinations, minlength=num_vertices).astype(
        np.int64, copy=False
    )


def receivers_of(histogram: np.ndarray) -> np.ndarray:
    """Sorted ids of the destinations an enqueue histogram counts.

    ``np.flatnonzero`` over a bool copy of the counts: scanning the bytes
    is 2.5-4x faster than scanning the int64s, a pass that otherwise
    dominates a superstep of a few thousand arcs.
    """
    return np.flatnonzero(histogram.astype(np.bool_))


def complement_histogram(
    in_degrees: np.ndarray, col_idx: np.ndarray, left_out: np.ndarray
) -> np.ndarray:
    """Messages enqueued per destination by a complement flood: every
    arc's less the ``left_out`` arcs'.  A full flood (nothing left out)
    returns ``in_degrees`` itself, not a copy."""
    if not left_out.size:
        return in_degrees
    return in_degrees - enqueue_histogram(col_idx[left_out], in_degrees.size)


def fill_left_out(
    payload: np.ndarray, left_out: np.ndarray, identity: object, num_arcs: int
) -> np.ndarray:
    """A complement flood's payload with the fold's ``identity`` at the
    ``left_out`` arcs, so a fold over all ``num_arcs`` destinations folds
    the selected arcs only.

    Exact because ``identity`` is the fold's identity, the contract the
    engines' ``np.full(n, identity)`` already rests on.  A payload the
    engine does not own — a view (``graph.weights[selection]`` of the
    whole-arc slice), read-only or broadcast — is copied before the
    write, so graph and program state are never touched.
    """
    if not left_out.size:
        return payload
    if (
        payload.base is not None
        or not payload.flags.writeable
        or payload.shape != (num_arcs,)
    ):
        payload = np.array(np.broadcast_to(payload, (num_arcs,)))
    payload[left_out] = identity
    return payload
