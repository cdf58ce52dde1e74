"""Frontier representation and sparse/dense arc selection.

The dense engines express every superstep's message traffic as "select
all out-arcs of the sender set, then operate on them in arc order".
Three selection forms implement that contract:

* **dense** — a boolean mask over the whole arc array
  (:func:`~repro.bsp._scatter.arcs_from`).  Building and applying it
  costs ``O(n + m)`` no matter how small the frontier is, which is
  exactly why BFS tails, CC late rounds, and SSSP settling supersteps
  used to pay full-graph sweeps.
* **sparse** — an int64 array of the selected arc *indices*, built by
  concatenating each sender's CSR slice (:func:`arc_indices`).  Cost is
  proportional to the frontier-incident arcs only.
* **full** — the slice ``slice(0, num_arcs)``, returned in place of the
  mask whenever the senders' out-arcs are *all* the arcs (CC's first
  round, every PageRank round).  Indexing with it yields views of the
  graph's own arrays: nothing is built, nothing is copied.  It is a
  property of the flood, not a policy decision, so it needs no
  threshold and counts as dense in ``frontier_mode``.

All forms index NumPy arc-parallel arrays (``col_idx``, ``weights``,
``arc_sources``) identically and in the same ascending arc order, so
every downstream kernel — payload evaluation, per-destination
histograms, combiner folds — produces bit-identical results either way.
Per-vertex quantities reach the arcs through :func:`source_values`,
which repeats a sender's value along its CSR row instead of gathering
it once per arc.
:class:`FrontierPolicy` picks the representation per superstep with the
GBBS-style heuristic: go dense once the frontier-incident arc count
exceeds ``m / k`` ("Theoretically Efficient Parallel Graph Algorithms
Can Be Fast and Scalable"), sparse otherwise.  The engines record the
decision as the ``frontier_mode`` telemetry counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.bsp._scatter import arcs_from
from repro.graph.csr import CSRGraph

#: An arc selection: boolean mask over all arcs (dense), sorted int64
#: arc indices (sparse), or the slice covering every arc (full).  Opaque
#: to programs — valid only as an index into arc-parallel arrays or via
#: :func:`selected_arc_count` / :func:`source_values`.
ArcSelection = NDArray[np.bool_] | NDArray[np.int64] | slice

__all__ = [
    "ArcSelection",
    "DEFAULT_FRONTIER_POLICY",
    "DENSE",
    "SPARSE",
    "FrontierPolicy",
    "arc_indices",
    "select_arcs",
    "selected_arc_count",
    "source_values",
]

#: Frontier / arc-selection representation names.
SPARSE = "sparse"
DENSE = "dense"


@dataclass(frozen=True)
class FrontierPolicy:
    """Per-superstep sparse/dense switching rule.

    Parameters
    ----------
    k:
        Density threshold divisor: a superstep's arc selection goes
        dense when the frontier-incident arc count exceeds ``m / k``
        (``m`` counting directed arcs).  The crossover between the two
        representations is where the sparse build's ``O(frontier
        arcs)`` work with its larger constant overtakes the mask path's
        fixed ``O(n + m)`` sweep; ``k = 3`` matches the measured
        crossover of the NumPy kernels and errs toward sparse.
    mode:
        ``"auto"`` applies the heuristic; ``"sparse"`` / ``"dense"``
        force one representation for every superstep (ablation and
        regression-test hooks).
    """

    k: int = 3
    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in ("auto", SPARSE, DENSE):
            raise ValueError(
                f"mode must be 'auto', {SPARSE!r} or {DENSE!r}"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def choose(
        self,
        *,
        superstep: int,
        frontier_size: int,
        frontier_arcs: int,
        num_vertices: int,
        num_arcs: int,
    ) -> str:
        """Representation for one superstep's sender set."""
        if self.mode != "auto":
            return self.mode
        return DENSE if frontier_arcs > num_arcs // self.k else SPARSE


#: The engines' default switching rule.
DEFAULT_FRONTIER_POLICY = FrontierPolicy()


def arc_indices(
    senders: NDArray[np.int64], row_ptr: NDArray[np.int64]
) -> NDArray[np.int64]:
    """Ascending arc indices of every out-arc of ``senders``.

    ``senders`` must be sorted ascending and duplicate-free; the result
    then selects the same arcs, in the same order, as the boolean mask
    from :func:`~repro.bsp._scatter.arcs_from` — the property the
    bit-identity of sparse and dense supersteps rests on.
    """
    starts = row_ptr[senders]
    counts = row_ptr[senders + 1] - starts
    total = int(counts.sum())
    # One repeat: each arc's row start less its offset in the output.
    shift = starts - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(total, dtype=np.int64)


def select_arcs(
    senders: NDArray[np.int64], row_ptr: NDArray[np.int64], mode: str
) -> ArcSelection:
    """Arc selection for ``senders`` in the given representation.

    Returns an int64 index array (``mode="sparse"``) or, for
    ``mode="dense"``, a boolean mask — unless the senders' out-arcs are
    all the arcs there are, in which case the mask would be all-True and
    the slice over the whole arc array stands in for it.  All three
    select identical arcs in identical order.
    """
    if mode == SPARSE:
        return arc_indices(senders, row_ptr)
    num_arcs = int(row_ptr[-1])
    if int((row_ptr[senders + 1] - row_ptr[senders]).sum()) == num_arcs:
        return slice(0, num_arcs)
    return arcs_from(senders, row_ptr)


def selected_arc_count(selection: ArcSelection) -> int:
    """Number of arcs a selection picks (any of the three forms)."""
    if isinstance(selection, slice):
        return int(selection.stop - selection.start)
    if selection.dtype == np.bool_:
        return int(np.count_nonzero(selection))
    return int(selection.size)


def source_values(
    graph: CSRGraph, per_vertex: np.ndarray, selection: ArcSelection
) -> np.ndarray:
    """``per_vertex`` at the source of every selected arc.

    Bit-identical (dtype, values, order) to
    ``per_vertex[graph.arc_sources()[selection]]``, but a sender's
    out-arcs are one CSR row, so the value is expanded by run length
    instead of gathered per arc: no m-long compress, no ``arc_sources``.
    Relies on what :func:`select_arcs` guarantees — a slice covers every
    arc and a mask selects *whole rows* (:func:`arcs_from`), so the
    mask's value at a row's first arc says whether the row is in (an
    empty row reads its successor's and repeats zero times).  A mask
    that splits a row is outside the contract: the row is taken whole or
    not at all, by its first arc.
    """
    degrees = graph.degrees()
    if isinstance(selection, slice):
        return np.repeat(per_vertex, degrees)
    if selection.dtype != np.bool_:  # sparse: k <= m/3 arcs, gather them
        return per_vertex[graph.arc_sources()[selection]]
    senders = np.flatnonzero(selection.take(graph.row_ptr[:-1], mode="clip"))
    return np.repeat(per_vertex[senders], degrees[senders])
