"""Reference answers, computed outside every timed region.

The engine workloads are checked against the independent shared-memory
kernels of :mod:`repro.graphct` (and a six-line power iteration for
PageRank); ``serve_mixed`` is checked against the direct library call,
which those workloads in turn pin to ``graphct``.  The orchestrator
builds the oracle in its own process and hands it to the workload
process as an ``.npz`` file, so neither its memory nor its CPU time
shows in the workload's numbers.
"""

from __future__ import annotations

import json

import numpy as np

from harness.spec import (
    EDGE_FACTOR,
    ENGINE_WORKLOADS,
    KCORE_K,
    PAGERANK_SUPERSTEPS,
    Sizing,
)

__all__ = ["Oracle", "build_oracle", "canonical_partition", "plan_requests"]


def canonical_partition(labels: np.ndarray) -> np.ndarray:
    """Relabel a component labelling by each component's smallest vertex."""
    labels = np.asarray(labels)
    _, inverse = np.unique(labels, return_inverse=True)
    first = np.full(int(inverse.max()) + 1, labels.size, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(labels.size, dtype=np.int64))
    return first[inverse]


def _pagerank(graph, supersteps: int, damping: float = 0.85) -> np.ndarray:
    n = graph.num_vertices
    deg = graph.degrees().astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(supersteps):
        share = np.divide(rank, deg, out=np.zeros(n), where=deg > 0)
        incoming = np.bincount(
            graph.col_idx, weights=share[graph.arc_sources()], minlength=n
        )
        dangling = rank[deg == 0].sum()
        rank = (1.0 - damping) / n + damping * (incoming + dangling / n)
    return rank


def plan_requests(
    seed: int, sizing: Sizing, seconds: float, component: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``serve_mixed`` traffic: (hot sources, per-request source).

    Three requests in four repeat one of the hot sources (warmed in
    set-up, so they hit the result cache); the rest are distinct cold
    sources.  Hot plus cold exceeds the cache capacity, which forces
    LRU evictions.  Order and sources follow from ``seed`` alone.
    """
    total = sizing.fixed_requests or int(round(sizing.rate_per_s * seconds))
    cold_n = total // 4
    rng = np.random.default_rng([seed, 0x5E7E])
    picks = rng.choice(component, sizing.hot_sources + cold_n, replace=False)
    hot, cold = picks[: sizing.hot_sources], picks[sizing.hot_sources:]
    sources = np.concatenate([rng.choice(hot, total - cold_n), cold])
    rng.shuffle(sources)
    return hot.astype(np.int64), sources.astype(np.int64)


class Oracle:
    """Expected results for one workload on one seeded graph."""

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        self.meta = meta
        self.arrays = arrays

    # -- hand-off ---------------------------------------------------------
    def save(self, path: str) -> None:
        np.savez(path, __meta__=np.array(json.dumps(self.meta)),
                 **self.arrays)

    @classmethod
    def load(cls, path: str) -> "Oracle":
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(str(data["__meta__"]))
        return cls(meta, arrays)

    # -- checks (called after a unit's clock has stopped) -----------------
    def check(self, call: str, source: int, result) -> bool:
        """True when one wrapper result equals its reference."""
        a = self.arrays
        if call == "cc":
            return np.array_equal(canonical_partition(result.labels), a["cc"])
        if call == "bfs":
            return np.array_equal(result.distances, a[f"bfs_{source}"])
        if call == "sssp":
            return np.array_equal(result.distances, a[f"sssp_{source}"])
        if call == "kcore":
            return np.array_equal(np.asarray(result.in_core, bool), a["kcore"])
        if call == "pagerank":
            ranks = result.ranks
            return bool(
                abs(float(ranks.sum()) - 1.0) <= 1e-9
                and np.allclose(ranks, a["pagerank"], rtol=0.0, atol=1e-12)
            )
        raise ValueError(f"no reference for {call!r}")

    def check_served(self, source: int, values: list) -> bool:
        """True when a served BFS ``values`` list equals the library's."""
        return np.array_equal(
            np.asarray(values, dtype=np.int64), self.arrays[f"bfs_{source}"]
        )


def build_oracle(
    workload: str, seed: int, sizing: Sizing, seconds: float
) -> Oracle:
    """Generate the seeded graph and compute ``workload``'s references."""
    from repro.bsp import make_engine
    from repro.bsp_algorithms import bsp_breadth_first_search
    from repro.graph.generators import rmat
    from repro.graphct import (
        breadth_first_search,
        connected_components,
        k_core_decomposition,
        sssp,
    )

    graph = rmat(scale=sizing.scale, edge_factor=EDGE_FACTOR, seed=seed)
    cc = canonical_partition(connected_components(graph).labels)
    giant = np.bincount(cc).argmax()
    component = np.flatnonzero(cc == giant)
    meta: dict = {"fingerprint": graph.fingerprint()}
    arrays: dict[str, np.ndarray] = {}

    if workload == "serve_mixed":
        hot, sources = plan_requests(seed, sizing, seconds, component)
        meta["hot"] = hot.tolist()
        meta["sources"] = sources.tolist()
        with make_engine(graph, "dense") as engine:
            for s in sorted({*meta["hot"], *meta["sources"]}):
                arrays[f"bfs_{s}"] = bsp_breadth_first_search(
                    graph, s, engine=engine
                ).distances
        return Oracle(meta, arrays)

    calls = ENGINE_WORKLOADS[workload][2]
    pool = np.random.default_rng([seed, 0x9001]).choice(
        component, sizing.pool, replace=False
    )
    meta["pool"] = [int(s) for s in pool]
    if "cc" in calls:
        arrays["cc"] = cc
    if "kcore" in calls:
        arrays["kcore"] = k_core_decomposition(graph).core_numbers >= KCORE_K
    if "pagerank" in calls:
        arrays["pagerank"] = _pagerank(graph, PAGERANK_SUPERSTEPS)
    for s in meta["pool"]:
        if "bfs" in calls:
            arrays[f"bfs_{s}"] = breadth_first_search(graph, s).distances
        if "sssp" in calls:
            arrays[f"sssp_{s}"] = sssp(graph, s).distances
    return Oracle(meta, arrays)
