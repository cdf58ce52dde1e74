"""Frontier representation and sparse/mask/complement arc selection.

The dense engines express every superstep's message traffic as "select
all out-arcs of the sender set, then operate on them in arc order".
Three selection forms implement that contract, each sized to what it
has to touch (GBBS sizes frontier work to the frontier, "Theoretically
Efficient Parallel Graph Algorithms Can Be Fast and Scalable"):

* **sparse** — an int64 array of the selected arc *indices*, built by
  concatenating each sender's CSR slice
  (:func:`~repro.graph.csr.arc_indices`).  Cost is
  proportional to the frontier-incident arcs only.
* **mask** (mode ``"dense"``) — a boolean mask over the whole arc array
  (:func:`~repro.bsp._scatter.arcs_from`): a fixed ``O(n + m)`` build,
  an m-long compress of ``col_idx`` and a histogram of the selected
  destinations.
* **complement** — the mirror of sparse for near-full floods: the
  program gets the slice ``slice(0, num_arcs)`` (views of the graph's
  own arrays, nothing built or copied), and the engine keeps the arcs it
  must leave out — the rows of the *quiet* vertices, those with out-arcs
  that do not send — as sparse indices (:func:`arc_indices` over the
  quiet set, ``O(n)`` plus the left-out arcs).  The enqueue histogram
  is ``in_degrees()`` less the quiet rows' destinations, and delivery
  writes the fold's identity into the payload at the left-out arcs
  before folding over all of ``col_idx`` (:mod:`repro.bsp._scatter`).  **Full** — every arc floods, CC's first
  round and every PageRank round — is the complement that leaves out
  nothing; a forced ``mode="dense"`` returns the same slice for it.

All forms index NumPy arc-parallel arrays (``col_idx``, ``weights``,
``arc_sources``) identically and in the same ascending arc order, so
every downstream kernel — payload evaluation, per-destination
histograms, combiner folds — produces bit-identical results either way
(the complement's identity fills are exact: ``x + 0 == x`` and
``min(x, identity) == x``).
Per-vertex quantities reach the arcs through :func:`source_values`,
which repeats a sender's value along its CSR row instead of gathering
it once per arc.
:class:`FrontierPolicy` picks the representation per superstep with one
divisor ``k``: sparse while the frontier-incident arcs number at most
``m / k``, complement while the quiet vertices' arcs do, the mask in
between.  The engines record the decision as the ``frontier_mode``
telemetry counter (0 sparse; 1 mask or complement).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.bsp._scatter import arcs_from
from repro.graph.csr import CSRGraph, arc_indices

#: An arc selection: boolean mask over all arcs (dense), sorted int64
#: arc indices (sparse), or the slice covering every arc (complement and
#: full; the engine keeps a complement's left-out arcs aside).  Opaque
#: to programs — valid only as an index into arc-parallel arrays or via
#: :func:`selected_arc_count` / :func:`source_values`.
ArcSelection = NDArray[np.bool_] | NDArray[np.int64] | slice

__all__ = [
    "ArcSelection",
    "DEFAULT_FRONTIER_POLICY",
    "COMPLEMENT",
    "DENSE",
    "SPARSE",
    "FrontierPolicy",
    "select_arcs",
    "selected_arc_count",
    "source_values",
]

#: Frontier / arc-selection representation names.  ``COMPLEMENT`` is a
#: decision of the ``"auto"`` rule only, never a forced ``mode``.
SPARSE = "sparse"
DENSE = "dense"
COMPLEMENT = "complement"


@dataclass(frozen=True)
class FrontierPolicy:
    """Per-superstep sparse/mask/complement switching rule.

    Parameters
    ----------
    k:
        Threshold divisor, applied from both ends (``m`` counts directed
        arcs): a superstep's selection is sparse while its
        frontier-incident arcs number at most ``m / k``, complement
        while the arcs of its quiet vertices (``m`` less the frontier's)
        do, and the mask in between — with ``k = 3``, the mask serves
        floods of one to two thirds of the arcs.  Sparse and complement
        cost ``O(arcs they list)`` with a larger constant than the
        mask's fixed ``O(n + m)`` sweep; the per-flood-fraction costs
        behind ``k = 3`` are tabulated in docs/MODEL.md ("Frontier
        representation").
    mode:
        ``"auto"`` applies the rule; ``"sparse"`` / ``"dense"`` force
        the index array or the mask (the whole-arc slice when every arc
        floods) for every superstep (ablation and regression-test
        hooks).
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
        if frontier_arcs <= num_arcs // self.k:
            return SPARSE
        if num_arcs - frontier_arcs <= num_arcs // self.k:
            return COMPLEMENT
        return DENSE


#: The engines' default switching rule.
DEFAULT_FRONTIER_POLICY = FrontierPolicy()


def select_arcs(
    senders: NDArray[np.int64], row_ptr: NDArray[np.int64], mode: str
) -> ArcSelection:
    """The selection a program sees for ``senders`` in ``mode``.

    Returns an int64 index array (``mode="sparse"``) or, for
    ``mode="dense"``, a boolean mask — unless the senders' out-arcs are
    all the arcs there are, in which case the mask would be all-True and
    the slice over the whole arc array stands in for it.  A complement
    is that slice too, whatever the senders: the arcs it leaves out, the
    quiet vertices' rows, the engine keeps aside.
    """
    if mode == SPARSE:
        return arc_indices(senders, row_ptr)
    num_arcs = int(row_ptr[-1])
    if mode == COMPLEMENT or (
        int((row_ptr[senders + 1] - row_ptr[senders]).sum()) == num_arcs
    ):
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
