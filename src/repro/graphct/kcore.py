"""k-core decomposition (a GraphCT workflow kernel).

GraphCT's kernel list includes k-core (paper §II).  The parallel scheme is
the standard peeling algorithm expressed as synchronized rounds: at round
k, repeatedly remove all vertices whose remaining degree is below k; the
core number of a vertex is the largest k at which it survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, arc_indices
from repro.runtime.loops import Tracer
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts
from repro.xmt.trace import WorkTrace

__all__ = ["KCoreResult", "k_core_decomposition"]


@dataclass
class KCoreResult:
    """Outcome of a k-core decomposition."""

    #: Core number per vertex (0 for isolated vertices).
    core_numbers: np.ndarray
    #: Largest non-empty core.
    max_core: int
    trace: WorkTrace = field(default_factory=WorkTrace)

    def core_members(self, k: int) -> np.ndarray:
        """Vertices belonging to the k-core."""
        return np.flatnonzero(self.core_numbers >= k)


def k_core_decomposition(
    graph: CSRGraph,
    *,
    costs: KernelCosts = DEFAULT_COSTS,
) -> KCoreResult:
    """Compute core numbers by parallel peeling rounds."""
    if graph.directed:
        raise ValueError("k-core requires an undirected graph")
    n = graph.num_vertices
    tracer = Tracer(label="graphct/kcore")
    remaining_degree = graph.degrees().astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)

    k = 1
    round_index = 0
    while alive.any():
        # Peel everything below k, cascading within the round.
        while True:
            peel = alive & (remaining_degree < k)
            peeled = np.flatnonzero(peel)
            if peeled.size == 0:
                break
            with tracer.region(
                "kcore/peel", items=int(peeled.size), iteration=round_index
            ) as r:
                core[peeled] = k - 1
                alive[peeled] = False
                counts = graph.degrees()[peeled]
                arcs = int(counts.sum())
                if arcs:
                    offsets = arc_indices(peeled, graph.row_ptr)
                    nbrs = graph.col_idx[offsets]
                    live_nbrs = nbrs[alive[nbrs]]
                    remaining_degree -= np.bincount(
                        live_nbrs, minlength=remaining_degree.size
                    )
                r.count(
                    instructions=(
                        arcs * costs.edge_visit_instructions
                        + peeled.size * costs.vertex_touch_instructions
                    ),
                    reads=arcs + peeled.size,
                    writes=int(peeled.size),
                )
                if arcs:
                    # degree decrements are per-neighbour fetch-and-adds
                    sites = np.bincount(live_nbrs) if live_nbrs.size else []
                    r.atomics_per_site(np.asarray(sites))
            round_index += 1
        survivors = alive & (remaining_degree >= k)
        core[survivors] = k
        if not survivors.any():
            break
        k += 1

    return KCoreResult(
        core_numbers=core, max_core=int(core.max(initial=0)), trace=tracer.trace
    )
