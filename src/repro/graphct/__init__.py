"""GraphCT: the shared-memory baseline kernels.

A Python/NumPy re-creation of the GraphCT kernels the paper benchmarks
against (Ediger, Jiang, Riedy & Bader, "GraphCT: Multithreaded Algorithms
for Massive Graph Analysis"), plus the neighbouring kernels GraphCT ships
(clustering coefficients, k-core, PageRank, SSSP).

Every kernel:

* reads a single, read-only :class:`~repro.graph.csr.CSRGraph` (GraphCT's
  "one efficient graph data representation ... served read-only"),
* is written as the XMT loop-parallel algorithm (level-synchronous BFS per
  Bader & Madduri; Shiloach–Vishkin connected components; triply-nested
  triangle counting), vectorized with NumPy,
* records a :class:`~repro.xmt.trace.WorkTrace` of its parallel regions so
  the XMT cost model can price it at any processor count.
"""

from repro.graphct.bfs import BFSResult, breadth_first_search
from repro.graphct.connected_components import (
    ComponentsResult,
    connected_components,
)
from repro.graphct.framework import GraphCT
from repro.graphct.kcore import KCoreResult, k_core_decomposition
from repro.graphct.pagerank import PageRankResult, pagerank
from repro.graphct.sssp import SSSPResult, sssp
from repro.graphct.triangles import (
    ClusteringResult,
    TriangleResult,
    clustering_coefficients,
    count_triangles,
)

__all__ = [
    "BFSResult",
    "ClusteringResult",
    "ComponentsResult",
    "GraphCT",
    "KCoreResult",
    "PageRankResult",
    "SSSPResult",
    "TriangleResult",
    "breadth_first_search",
    "clustering_coefficients",
    "connected_components",
    "count_triangles",
    "k_core_decomposition",
    "pagerank",
    "sssp",
]
