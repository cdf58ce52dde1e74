#!/usr/bin/env python
"""A GraphCT-style analysis workflow on a synthetic social network.

GraphCT's purpose is chaining kernels over one in-memory graph ("a
workflow of graph analysis algorithms ... through a series of function
calls").  This example mirrors the massive-social-network-analysis
workflows the paper's group published (Twitter mining): take a
scale-free network, extract the giant component, then profile it —
components, degrees, clustering coefficients, k-cores and PageRank —
all against the same read-only CSR graph.

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro.graph import rmat
from repro.graphct import GraphCT


def main() -> None:
    # A Twitter-like scale-free network (miniature).
    network = GraphCT(rmat(scale=13, edge_factor=16, seed=42))
    stats = network.degree_statistics()
    print(
        f"network: {network.graph.num_vertices:,} users, "
        f"{network.graph.num_edges:,} links, max degree "
        f"{stats.max_degree} (skew {stats.skew:.0f}x the mean)"
    )

    # Step 1: connectivity structure.
    cc = network.connected_components()
    sizes = np.sort(np.bincount(cc.labels))[::-1]
    print(
        f"{cc.num_components:,} components; giant component holds "
        f"{sizes[0]:,} users ({100 * sizes[0] / len(cc.labels):.1f}%)"
    )

    # Step 2: restrict the expensive analytics to the giant component.
    giant_label = np.bincount(cc.labels).argmax()
    giant = network.subgraph(np.flatnonzero(cc.labels == giant_label))
    print(f"giant component subgraph: {giant.graph}")

    # Step 3: cohesion profile.
    clustering = giant.clustering_coefficients()
    print(
        f"global clustering coefficient: "
        f"{clustering.global_coefficient:.4f} "
        f"({clustering.triangles.total_triangles:,} triangles)"
    )
    cores = giant.k_core_decomposition()
    print(
        f"max k-core: {cores.max_core} "
        f"({cores.core_members(cores.max_core).size} members)"
    )

    # Step 4: influence ranking.
    ranks = giant.pagerank(tolerance=1e-10)
    top_pr = np.argsort(ranks.ranks)[::-1][:5]
    print("top-5 by PageRank (vertex: rank):")
    for v in top_pr.tolist():
        print(f"  {v:6d}: {ranks.ranks[v]:.5f}")


if __name__ == "__main__":
    main()
