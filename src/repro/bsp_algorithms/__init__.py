"""The paper's graph algorithms in the BSP model.

Each module pairs the paper's pseudocode as a
:class:`~repro.bsp.vertex.VertexProgram` (the readable reference, run by
the reference engine) with a
:class:`~repro.bsp.dense.DenseVertexProgram` of the same superstep
semantics (whole-superstep NumPy kernels, run by the
:class:`~repro.bsp.dense.DenseBSPEngine` — the benchmark path).  The
test suite asserts the two paths agree on final states, superstep
counts, and per-superstep message counts.

* :mod:`~repro.bsp_algorithms.connected_components` — Algorithm 1,
* :mod:`~repro.bsp_algorithms.bfs` — Algorithm 2,
* :mod:`~repro.bsp_algorithms.triangles` — Algorithm 3,
* :mod:`~repro.bsp_algorithms.sssp` — weighted distance flooding (the
  Kajdanowicz comparison),
* :mod:`~repro.bsp_algorithms.pagerank` — the canonical Pregel example.
"""

from repro.bsp_algorithms.bfs import (
    BSPBFSResult,
    BSPBreadthFirstSearch,
    DenseBreadthFirstSearch,
    bsp_breadth_first_search,
)
from repro.bsp_algorithms.connected_components import (
    BSPComponentsResult,
    BSPConnectedComponents,
    DenseConnectedComponents,
    bsp_connected_components,
)
from repro.bsp_algorithms.kcore import (
    BSPKCore,
    BSPKCoreResult,
    DenseKCore,
    bsp_k_core,
)
from repro.bsp_algorithms.pagerank import (
    BSPPageRank,
    BSPPageRankResult,
    DensePageRank,
    bsp_pagerank,
)
from repro.bsp_algorithms.sssp import (
    BSPShortestPaths,
    BSPSSSPResult,
    DenseShortestPaths,
    bsp_sssp,
)
from repro.bsp_algorithms.triangles import (
    BSPTriangleCounting,
    BSPTriangleResult,
    bsp_count_triangles,
)

__all__ = [
    "BSPBFSResult",
    "BSPBreadthFirstSearch",
    "BSPComponentsResult",
    "BSPConnectedComponents",
    "BSPKCore",
    "BSPKCoreResult",
    "BSPPageRank",
    "BSPPageRankResult",
    "BSPSSSPResult",
    "BSPShortestPaths",
    "BSPTriangleCounting",
    "BSPTriangleResult",
    "DenseBreadthFirstSearch",
    "DenseConnectedComponents",
    "DenseKCore",
    "DensePageRank",
    "DenseShortestPaths",
    "bsp_breadth_first_search",
    "bsp_connected_components",
    "bsp_count_triangles",
    "bsp_k_core",
    "bsp_pagerank",
    "bsp_sssp",
]
