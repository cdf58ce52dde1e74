"""Tests for the auxiliary GraphCT kernels: k-core, PageRank, SSSP, and
the workflow framework."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import from_edge_list, ring_graph, star_graph
from repro.graph.properties import peripheral_vertex
from repro.graphct import (
    GraphCT,
    breadth_first_search,
    k_core_decomposition,
    pagerank,
    sssp,
)


class TestKCore:
    def test_matches_networkx(self, small_rmat, small_rmat_nx):
        res = k_core_decomposition(small_rmat)
        oracle = nx.core_number(small_rmat_nx)
        assert res.core_numbers.tolist() == [
            oracle[v] for v in range(small_rmat.num_vertices)
        ]

    def test_ring_is_2core(self):
        res = k_core_decomposition(ring_graph(10))
        assert np.all(res.core_numbers == 2)
        assert res.max_core == 2

    def test_star_is_1core(self):
        res = k_core_decomposition(star_graph(5))
        assert np.all(res.core_numbers == 1)

    def test_isolated_vertices_are_0core(self):
        g = from_edge_list([(0, 1)], num_vertices=4)
        res = k_core_decomposition(g)
        assert res.core_numbers[2] == 0 and res.core_numbers[3] == 0

    def test_core_members(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])
        res = k_core_decomposition(g)
        assert res.core_members(2).tolist() == [0, 1, 2]

    def test_directed_rejected(self):
        with pytest.raises(ValueError, match="undirected"):
            k_core_decomposition(from_edge_list([(0, 1)], directed=True))


class TestPageRank:
    def test_matches_networkx(self, small_rmat, small_rmat_nx):
        res = pagerank(small_rmat, tolerance=1e-12, max_iterations=200)
        oracle = nx.pagerank(small_rmat_nx, alpha=0.85, tol=1e-13,
                             max_iter=500)
        for v in range(small_rmat.num_vertices):
            assert res.ranks[v] == pytest.approx(oracle[v], abs=1e-8)

    def test_ranks_sum_to_one(self, small_rmat):
        res = pagerank(small_rmat)
        assert res.ranks.sum() == pytest.approx(1.0)

    def test_converged_flag(self):
        res = pagerank(ring_graph(10), tolerance=1e-10)
        assert res.converged
        capped = pagerank(star_graph(10), max_iterations=1)
        assert not capped.converged
        assert capped.num_iterations == 1

    def test_residuals_decrease(self, small_rmat):
        res = pagerank(small_rmat)
        assert res.residuals[-1] < res.residuals[0]

    def test_symmetric_graph_uniform(self):
        res = pagerank(ring_graph(8), tolerance=1e-14)
        assert np.allclose(res.ranks, 1 / 8)

    def test_hub_outranks_leaves(self):
        res = pagerank(star_graph(10))
        assert res.ranks[0] > res.ranks[1]

    @pytest.mark.parametrize(
        "kwargs", [{"damping": 0.0}, {"damping": 1.0}, {"tolerance": 0.0},
                   {"max_iterations": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            pagerank(ring_graph(4), **kwargs)

    def test_empty_graph(self):
        res = pagerank(from_edge_list([], num_vertices=0))
        assert res.converged and res.ranks.size == 0


class TestSSSP:
    def test_unweighted_equals_bfs(self, small_rmat):
        src = peripheral_vertex(small_rmat)
        d_sssp = sssp(small_rmat, src).distances
        d_bfs = breadth_first_search(small_rmat, src).distances
        reached = d_bfs >= 0
        assert np.array_equal(d_sssp[reached], d_bfs[reached].astype(float))
        assert np.all(np.isinf(d_sssp[~reached]))

    def test_weighted_matches_networkx(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]
        weights = [1.0, 2.0, 5.0, 1.0, 9.0]
        g = from_edge_list(edges, weights=weights)
        gx = nx.Graph()
        for (u, v), w in zip(edges, weights):
            gx.add_edge(u, v, weight=w)
        res = sssp(g, 0)
        oracle = nx.single_source_dijkstra_path_length(gx, 0)
        for v, d in oracle.items():
            assert res.distances[v] == pytest.approx(d)

    def test_weighted_shortcut_found(self):
        # 0-1-2 with weights 1+1 beats direct 0-2 with weight 10.
        g = from_edge_list([(0, 1), (1, 2), (0, 2)], weights=[1.0, 1.0, 10.0])
        res = sssp(g, 0)
        assert res.distances[2] == pytest.approx(2.0)

    def test_negative_weight_rejected(self):
        g = from_edge_list([(0, 1)], weights=[-1.0])
        with pytest.raises(ValueError, match="non-negative"):
            sssp(g, 0)

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            sssp(ring_graph(4), 7)

    def test_active_counts_recorded(self, small_rmat):
        src = peripheral_vertex(small_rmat)
        res = sssp(small_rmat, src)
        assert res.active_per_round[0] == 1
        assert len(res.active_per_round) == res.num_rounds


class TestGraphCTWorkflow:
    def test_kernel_dispatch_and_cache(self, small_rmat):
        wf = GraphCT(small_rmat)
        first = wf.connected_components()
        second = wf.run("connected_components")
        assert first is second  # cached

    def test_unknown_kernel(self, small_rmat):
        with pytest.raises(ValueError, match="unknown kernel"):
            GraphCT(small_rmat).run("community_detection")

    def test_requires_csr(self):
        with pytest.raises(TypeError):
            GraphCT([(0, 1)])

    def test_clear_cache(self, small_rmat):
        wf = GraphCT(small_rmat)
        a = wf.connected_components()
        wf.clear_cache()
        assert wf.connected_components() is not a

    def test_subgraph_workflow(self, small_rmat):
        wf = GraphCT(small_rmat)
        sub = wf.subgraph(range(100))
        assert isinstance(sub, GraphCT)
        assert sub.graph.num_vertices == 100

    def test_utilities(self, small_rmat):
        wf = GraphCT(small_rmat)
        assert wf.degree_statistics().max_degree > 0
        v = wf.giant_component_vertex()
        assert 0 <= v < small_rmat.num_vertices

    def test_from_file_roundtrip(self, small_rmat, tmp_path):
        from repro.graph import save_graph

        path = tmp_path / "g.npz"
        save_graph(small_rmat, path)
        wf = GraphCT.from_file(path)
        assert wf.graph.num_edges == small_rmat.num_edges

    def test_bad_attribute(self, small_rmat):
        with pytest.raises(AttributeError):
            GraphCT(small_rmat).not_a_kernel
