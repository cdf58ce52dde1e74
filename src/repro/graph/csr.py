"""Compressed sparse row graph storage.

GraphCT stores every graph in one read-only CSR structure that all kernels
share (Ediger et al., "GraphCT: Multithreaded Algorithms for Massive Graph
Analysis").  :class:`CSRGraph` mirrors that design: a pair of NumPy arrays
``row_ptr`` / ``col_idx`` (plus an optional parallel ``weights`` array) that
are frozen after construction.  Kernels never mutate the graph; algorithm
state lives in separate arrays owned by the kernel.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

__all__ = ["CSRGraph", "arc_indices", "check_vertex", "check_weights"]

# Vertex ids and offsets.  int64 everywhere: the paper's graphs have 2^24
# vertices and 2^28 edges, and offset arithmetic on subsampled wedge batches
# can exceed 2^31 even at reduced scale.
VERTEX_DTYPE = np.int64
OFFSET_DTYPE = np.int64
WEIGHT_DTYPE = np.float64


@dataclass(frozen=True)
class CSRGraph:
    """A read-only graph in compressed sparse row form.

    Parameters
    ----------
    row_ptr:
        ``(num_vertices + 1,)`` int64 array.  The neighbours of vertex ``v``
        occupy ``col_idx[row_ptr[v]:row_ptr[v + 1]]``.
    col_idx:
        ``(num_edges,)`` int64 array of neighbour ids.  For an *undirected*
        graph each edge {u, v} is stored twice (u→v and v→u), matching
        GraphCT's representation; ``num_edges`` therefore counts directed
        arcs.
    weights:
        Optional ``(num_edges,)`` float64 array parallel to ``col_idx``.
    directed:
        True when the arc set is not symmetric.  Undirected graphs built by
        :mod:`repro.graph.builder` always symmetrize.
    sorted_adjacency:
        True when every adjacency list is sorted ascending.  Sortedness is
        required by the O(d_u + d_v) neighbourhood-intersection used in
        triangle counting; the builder guarantees it.

    Notes
    -----
    Instances are frozen and their arrays are marked non-writeable; this is
    the "served read-only to analysis applications" contract from the paper.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    weights: np.ndarray | None = None
    directed: bool = False
    sorted_adjacency: bool = True
    _degree_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        row_ptr = np.ascontiguousarray(self.row_ptr, dtype=OFFSET_DTYPE)
        col_idx = np.ascontiguousarray(self.col_idx, dtype=VERTEX_DTYPE)
        if row_ptr.ndim != 1 or col_idx.ndim != 1:
            raise ValueError("row_ptr and col_idx must be one-dimensional")
        if row_ptr.size == 0:
            raise ValueError("row_ptr must have at least one entry")
        if row_ptr[0] != 0:
            raise ValueError("row_ptr must start at 0")
        if row_ptr[-1] != col_idx.size:
            raise ValueError(
                f"row_ptr[-1] ({int(row_ptr[-1])}) must equal "
                f"len(col_idx) ({col_idx.size})"
            )
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        n = row_ptr.size - 1
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= n):
            raise ValueError("col_idx contains out-of-range vertex ids")
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        if self.weights is not None:
            weights = np.ascontiguousarray(self.weights, dtype=WEIGHT_DTYPE)
            if weights.shape != col_idx.shape:
                raise ValueError("weights must be parallel to col_idx")
            weights.setflags(write=False)
            object.__setattr__(self, "weights", weights)
        row_ptr.setflags(write=False)
        col_idx.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic size queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (including isolated ones)."""
        return self.row_ptr.size - 1

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (2x edge count when undirected)."""
        return self.col_idx.size

    @property
    def num_edges(self) -> int:
        """Number of logical edges: arcs/2 for undirected graphs."""
        if self.directed:
            return self.num_arcs
        return self.num_arcs // 2

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (
            f"CSRGraph({kind}, n={self.num_vertices}, "
            f"arcs={self.num_arcs}, weighted={self.is_weighted})"
        )

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the adjacency list of vertex ``v``."""
        v = check_vertex(self, v)
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors` for vertex ``v``."""
        if self.weights is None:
            raise ValueError("graph is unweighted")
        v = check_vertex(self, v)
        return self.weights[self.row_ptr[v] : self.row_ptr[v + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v`` (degree, for undirected graphs)."""
        v = check_vertex(self, v)
        return int(self.row_ptr[v + 1] - self.row_ptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (cached; read-only)."""
        cached = self._degree_cache.get("degrees")
        if cached is None:
            cached = np.diff(self.row_ptr)
            cached.setflags(write=False)
            self._degree_cache["degrees"] = cached
        return cached

    def in_degrees(self) -> np.ndarray:
        """Vector of all vertex in-degrees (cached; read-only).

        Equal to :meth:`degrees` on an undirected graph.  It is also the
        per-destination message count of a superstep in which every arc
        carries a message, which is why the BSP engines ask for it.
        """
        cached = self._degree_cache.get("in_degrees")
        if cached is None:
            cached = np.bincount(
                self.col_idx, minlength=self.num_vertices
            ).astype(OFFSET_DTYPE, copy=False)
            cached.setflags(write=False)
            self._degree_cache["in_degrees"] = cached
        return cached

    def has_edge(self, u: int, v: int) -> bool:
        """True when arc u→v is stored.  O(log d_u) on sorted adjacency."""
        nbrs = self.neighbors(u)
        if self.sorted_adjacency:
            pos = np.searchsorted(nbrs, v)
            return bool(pos < nbrs.size and nbrs[pos] == v)
        return bool(np.any(nbrs == v))

    def arc_sources(self) -> np.ndarray:
        """Expand ``row_ptr`` into a per-arc source-vertex vector.

        The result is parallel to :attr:`col_idx`; arc ``i`` runs from
        ``arc_sources()[i]`` to ``col_idx[i]``.  Cached because every
        vectorized kernel needs it.
        """
        cached = self._degree_cache.get("arc_sources")
        if cached is None:
            cached = np.repeat(
                np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.degrees()
            )
            cached.setflags(write=False)
            self._degree_cache["arc_sources"] = cached
        return cached

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate unique edges.

        Undirected graphs yield each edge once with u <= v; directed graphs
        yield every arc.  Intended for tests and small graphs only — kernels
        use the array interface.
        """
        src = self.arc_sources()
        if self.directed:
            for u, v in zip(src.tolist(), self.col_idx.tolist()):
                yield (u, v)
        else:
            keep = src <= self.col_idx
            for u, v in zip(src[keep].tolist(), self.col_idx[keep].tolist()):
                yield (int(u), int(v))

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    def memory_footprint_bytes(self) -> int:
        """Bytes held by the CSR arrays (used by capacity planning docs)."""
        total = self.row_ptr.nbytes + self.col_idx.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def fingerprint(self) -> str:
        """Content hash of the frozen CSR (hex SHA-256, cached).

        Two graphs share a fingerprint exactly when their CSR arrays,
        weights, and flags are identical — the stable identity the
        service layer's result cache keys on.  Safe to cache because
        instances are frozen and the arrays are non-writeable.
        """
        cached = self._degree_cache.get("fingerprint")
        if cached is None:
            import hashlib

            h = hashlib.sha256()
            h.update(
                f"csr/v1 directed={self.directed} "
                f"sorted={self.sorted_adjacency} "
                f"weighted={self.is_weighted}".encode("ascii")
            )
            h.update(np.ascontiguousarray(self.row_ptr).tobytes())
            h.update(np.ascontiguousarray(self.col_idx).tobytes())
            if self.weights is not None:
                h.update(np.ascontiguousarray(self.weights).tobytes())
            cached = h.hexdigest()
            self._degree_cache["fingerprint"] = cached
        return cached

    def reverse(self) -> "CSRGraph":
        """Transpose a directed graph (identity for undirected graphs)."""
        if not self.directed:
            return self
        sources = self.arc_sources()
        # Arcs are stored in ascending source order, so one stable sort on
        # the destination yields the transposed arcs already grouped by
        # new source (old dst) *and* sorted within each adjacency run —
        # no per-vertex re-sort pass.  Stability also keeps parallel
        # arcs' weights paired in their original relative order.
        order = np.argsort(self.col_idx, kind="stable")
        new_ptr = np.zeros(self.num_vertices + 1, dtype=OFFSET_DTYPE)
        np.cumsum(self.in_degrees(), out=new_ptr[1:])
        return CSRGraph(
            row_ptr=new_ptr,
            col_idx=sources[order],
            weights=self.weights[order] if self.weights is not None else None,
            directed=True,
            sorted_adjacency=True,
        )


def check_vertex(graph: CSRGraph, v: int) -> int:
    """``v`` as a vertex id of ``graph``.

    Python and NumPy integers pass (as ``int``); a bool, float or string
    is a ``TypeError`` and an id outside ``[0, num_vertices)`` an
    ``IndexError``.
    """
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"vertex id must be an integer, not {v!r}")
    v = operator.index(v)
    if not 0 <= v < graph.num_vertices:
        raise IndexError(f"vertex {v} out of range [0, {graph.num_vertices})")
    return v


def check_weights(graph: CSRGraph) -> None:
    """Raise ``ValueError`` unless every arc weight of ``graph`` is finite
    and non-negative (an unweighted graph passes).

    ``min() < 0`` alone lets NaN through: a NaN weight compares false
    against every distance, so the arcs behind it silently read as
    unreachable.
    """
    weights = graph.weights
    if weights is not None and weights.size and not (
        np.isfinite(weights).all() and weights.min() >= 0
    ):
        raise ValueError("arc weights must be finite and non-negative")


def arc_indices(
    senders: NDArray[np.int64], row_ptr: NDArray[np.int64]
) -> NDArray[np.int64]:
    """Indices of every out-arc of ``senders``, row by row.

    Each sender's CSR row in turn, for any order of ``senders`` and with
    duplicates.  Sorted ascending and duplicate-free, they give ascending
    indices that select the same arcs, in the same order, as the boolean
    mask from :func:`~repro.bsp._scatter.arcs_from` — the property the
    bit-identity of sparse and dense supersteps rests on.
    """
    starts = row_ptr[senders]
    counts = row_ptr[senders + 1] - starts
    total = int(counts.sum())
    # One repeat: each arc's row start less its offset in the output.
    shift = starts - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(total, dtype=np.int64)
