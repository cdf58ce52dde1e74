"""The GraphCT workflow object.

GraphCT "is designed to enable a workflow of graph analysis algorithms to
be developed through a series of function calls" against one in-memory
graph (paper §II).  :class:`GraphCT` is that surface: construct it around
a graph (or load one from disk) and chain kernels; results are cached by
kernel + parameters so a workflow can re-reference earlier stages.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.graph.csr import CSRGraph
from repro.graph.io import load_graph, read_edge_list
from repro.graph.properties import degree_statistics, giant_component_vertex
from repro.graph.subgraph import extract_subgraph
from repro.graphct.bfs import breadth_first_search
from repro.graphct.connected_components import connected_components
from repro.graphct.kcore import k_core_decomposition
from repro.graphct.pagerank import pagerank
from repro.graphct.sssp import sssp
from repro.graphct.triangles import clustering_coefficients, count_triangles
from repro.telemetry.core import NULL_TELEMETRY, Telemetry

__all__ = ["GraphCT"]


class GraphCT:
    """A graph analysis workflow over one read-only graph.

    Pass a :class:`~repro.telemetry.core.Telemetry` to time every kernel
    execution: each cache-miss dispatch records one
    ``"graphct/<kernel>"`` wall-clock span (cache hits cost no span —
    they do no work).

    Example
    -------
    >>> from repro.graph import rmat
    >>> wf = GraphCT(rmat(scale=8, edge_factor=8, seed=1))
    >>> cc = wf.connected_components()
    >>> bfs = wf.breadth_first_search(wf.giant_component_vertex())
    >>> tri = wf.count_triangles()
    """

    _KERNELS: dict[str, Callable] = {
        "connected_components": connected_components,
        "breadth_first_search": breadth_first_search,
        "count_triangles": count_triangles,
        "clustering_coefficients": clustering_coefficients,
        "k_core_decomposition": k_core_decomposition,
        "pagerank": pagerank,
        "sssp": sssp,
    }

    def __init__(
        self, graph: CSRGraph, *, telemetry: Telemetry | None = None
    ):
        if not isinstance(graph, CSRGraph):
            raise TypeError("GraphCT requires a CSRGraph")
        self.graph = graph
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self._cache: dict[tuple, Any] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: str | os.PathLike, **kwargs) -> "GraphCT":
        """Load a workflow from a ``.npz`` snapshot or an edge-list file."""
        path_str = str(path)
        if path_str.endswith(".npz"):
            return cls(load_graph(path))
        return cls(read_edge_list(path, **kwargs))

    # ------------------------------------------------------------------
    # Kernel dispatch
    # ------------------------------------------------------------------
    def run(self, kernel: str, *args, **kwargs):
        """Run a kernel by name, caching by (kernel, args, kwargs)."""
        try:
            fn = self._KERNELS[kernel]
        except KeyError:
            raise ValueError(
                f"unknown kernel {kernel!r}; available: "
                f"{sorted(self._KERNELS)}"
            ) from None
        key = (kernel, args, tuple(sorted(kwargs.items())))
        if key not in self._cache:
            with self.telemetry.span(
                f"graphct/{kernel}", category="kernel", kernel=kernel
            ):
                self._cache[key] = fn(self.graph, *args, **kwargs)
            if self.telemetry.enabled:
                self.telemetry.sample_memory()
        return self._cache[key]

    def __getattr__(self, name: str):
        if name in self._KERNELS:
            return lambda *args, **kwargs: self.run(name, *args, **kwargs)
        raise AttributeError(name)

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def degree_statistics(self):
        return degree_statistics(self.graph)

    def giant_component_vertex(self) -> int:
        return giant_component_vertex(self.graph)

    def subgraph(self, vertices) -> "GraphCT":
        """Workflow over the induced subgraph (new cache)."""
        sub, _ = extract_subgraph(self.graph, vertices)
        return GraphCT(sub)
