"""Experiment workload construction.

The paper's single input: an undirected, scale-free RMAT graph with 16M
vertices and 268M edges (scale 24, edge factor 16).  The reproduction
default is the scale-14 miniature of the same recipe; ``paper_scale``
records the original exponent so results can be extrapolated (RMAT is
self-similar, see DESIGN.md §2).

Both the graph and the runs of the paper's algorithms on it are memoized
per ``(scale, edge_factor, seed)``: :func:`traced` runs each algorithm
once, and every experiment, the scorecard and the ablations price that
one run's work trace at their own processor counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.bsp_algorithms.bfs import bsp_breadth_first_search
from repro.bsp_algorithms.connected_components import bsp_connected_components
from repro.bsp_algorithms.sssp import bsp_sssp
from repro.bsp_algorithms.triangles import bsp_count_triangles
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.properties import peripheral_vertex
from repro.graphct.bfs import breadth_first_search
from repro.graphct.connected_components import connected_components
from repro.graphct.triangles import count_triangles
from repro.xmt.machine import XMTMachine

__all__ = [
    "DEFAULT_PROCESSOR_COUNTS",
    "ExperimentConfig",
    "Workload",
    "build_workload",
    "traced",
]

#: The paper sweeps processor counts doubling up to the full machine.
DEFAULT_PROCESSOR_COUNTS = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by every experiment."""

    scale: int = 14
    edge_factor: int = 16
    seed: int = 1
    processor_counts: tuple[int, ...] = DEFAULT_PROCESSOR_COUNTS
    #: The paper's graph exponent, for work extrapolation.
    paper_scale: int = 24

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale must be >= 0")
        if self.edge_factor < 1:
            raise ValueError("edge_factor must be >= 1")
        if not self.processor_counts:
            raise ValueError("processor_counts must be non-empty")
        if any(p < 1 for p in self.processor_counts):
            raise ValueError("processor counts must be positive")
        if self.paper_scale < self.scale:
            raise ValueError(f"scale must be <= paper_scale ({self.paper_scale})")

    @property
    def extrapolation_factor(self) -> float:
        """Work multiplier from the miniature to the paper's graph.

        RMAT edge counts scale linearly in 2**scale at fixed edge factor;
        per-iteration work in all three kernels is edge-dominated.
        (Triangle-counting wedge counts grow *superlinearly*, so the
        extrapolated BSP triangle numbers are a lower bound — noted in
        EXPERIMENTS.md.)
        """
        return float(2 ** (self.paper_scale - self.scale))

    def machine(self, processors: int) -> XMTMachine:
        return XMTMachine(num_processors=processors)


@dataclass(frozen=True)
class Workload:
    """A built experiment input."""

    config: ExperimentConfig
    graph: CSRGraph
    #: BFS/SSSP source: a peripheral giant-component vertex, so the
    #: traversal exhibits the full frontier ramp/apex/contraction profile
    #: of the paper's figures.
    bfs_source: int


@lru_cache(maxsize=8)
def _build_cached(
    scale: int, edge_factor: int, seed: int
) -> tuple[CSRGraph, int]:
    graph = rmat(scale=scale, edge_factor=edge_factor, seed=seed)
    return graph, peripheral_vertex(graph)


def build_workload(config: ExperimentConfig | None = None) -> Workload:
    """Build (and memoize) the experiment graph and its BFS source."""
    config = config or ExperimentConfig()
    graph, source = _build_cached(config.scale, config.edge_factor, config.seed)
    return Workload(config=config, graph=graph, bfs_source=source)


# Seven algorithms on each of the eight workloads ``_build_cached`` keeps.
@lru_cache(maxsize=7 * 8)
def _traced(algorithm: str, scale: int, edge_factor: int, seed: int) -> Any:
    graph, source = _build_cached(scale, edge_factor, seed)
    runs = {
        "bsp_cc": lambda: bsp_connected_components(graph),
        "graphct_cc": lambda: connected_components(graph),
        "bsp_bfs": lambda: bsp_breadth_first_search(graph, source),
        "graphct_bfs": lambda: breadth_first_search(graph, source),
        "bsp_tc": lambda: bsp_count_triangles(graph),
        "graphct_tc": lambda: count_triangles(graph),
        "bsp_sssp": lambda: bsp_sssp(graph, source),
    }
    return runs[algorithm]()


def traced(algorithm: str, config: ExperimentConfig) -> Any:
    """The memoized run of ``algorithm`` on ``config``'s workload:
    ``bsp_`` or ``graphct_`` + ``cc`` / ``bfs`` / ``tc``, or ``bsp_sssp``
    (BFS and SSSP from the workload's source).  Every caller gets the
    same result object and must not mutate it."""
    return _traced(algorithm, config.scale, config.edge_factor, config.seed)
