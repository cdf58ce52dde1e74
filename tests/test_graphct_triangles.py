"""Tests for GraphCT triangle counting and clustering coefficients."""

import networkx as nx
import numpy as np
import pytest

from repro.bsp_algorithms import bsp_count_triangles
from repro.graph import from_edge_list, ring_graph, rmat, star_graph, two_d_grid
from repro.graph import wedges
from repro.graphct import clustering_coefficients, count_triangles


def complete_graph(n):
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)])


class TestTriangleCounts:
    def test_single_triangle(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2)])
        res = count_triangles(g)
        assert res.total_triangles == 1
        assert res.per_vertex.tolist() == [1, 1, 1]

    def test_bowtie(self, two_triangles):
        res = count_triangles(two_triangles)
        assert res.total_triangles == 2
        assert res.per_vertex[2] == 2  # shared vertex is in both

    def test_triangle_free(self):
        assert count_triangles(ring_graph(8)).total_triangles == 0
        assert count_triangles(star_graph(10)).total_triangles == 0
        assert count_triangles(two_d_grid(5, 5)).total_triangles == 0

    def test_complete_graph(self):
        n = 8
        res = count_triangles(complete_graph(n))
        expected = n * (n - 1) * (n - 2) // 6
        assert res.total_triangles == expected
        assert np.all(res.per_vertex == (n - 1) * (n - 2) // 2)

    def test_matches_networkx(self, small_rmat, small_rmat_nx):
        res = count_triangles(small_rmat)
        oracle = nx.triangles(small_rmat_nx)
        assert res.total_triangles == sum(oracle.values()) // 3
        assert res.per_vertex.tolist() == [
            oracle[v] for v in range(small_rmat.num_vertices)
        ]

    def test_degree_ordering_same_count(self, small_rmat):
        by_id = count_triangles(small_rmat, ordering="id")
        by_degree = count_triangles(small_rmat, ordering="degree")
        assert by_id.total_triangles == by_degree.total_triangles

    def test_degree_ordering_fewer_wedges_on_skewed_graph(self, small_rmat):
        """The ablation's point: degree ordering shrinks the wedge set."""
        by_id = count_triangles(small_rmat, ordering="id")
        by_degree = count_triangles(small_rmat, ordering="degree")
        assert by_degree.wedges_checked < by_id.wedges_checked

    def test_unknown_ordering_rejected(self, two_triangles):
        with pytest.raises(ValueError, match="ordering"):
            count_triangles(two_triangles, ordering="random")

    def test_directed_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            count_triangles(g)

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=4)
        res = count_triangles(g)
        assert res.total_triangles == 0
        assert res.wedges_checked == 0


class TestWorkAccounting:
    def test_writes_only_for_found_triangles(self, small_rmat):
        """Paper §V: shared memory 'only produces a write when a triangle
        is detected'."""
        res = count_triangles(small_rmat)
        assert res.trace.total_writes == res.total_triangles

    def test_reads_are_the_triply_nested_loop(self, two_triangles):
        res = count_triangles(two_triangles)
        deg = two_triangles.degrees().astype(float)
        assert res.trace.total_reads == pytest.approx(float(np.sum(deg**2)))

    def test_wedges_bounded_by_ordered_pairs(self, small_rmat):
        res = count_triangles(small_rmat)
        deg = small_rmat.degrees().astype(float)
        assert res.total_triangles <= res.wedges_checked
        assert res.wedges_checked <= np.sum(deg * (deg - 1)) / 2


class TestClusteringCoefficients:
    def test_complete_graph_all_ones(self):
        res = clustering_coefficients(complete_graph(6))
        assert np.allclose(res.local, 1.0)
        assert res.global_coefficient == pytest.approx(1.0)

    def test_triangle_free_all_zero(self):
        res = clustering_coefficients(two_d_grid(4, 4))
        assert np.all(res.local == 0)
        assert res.global_coefficient == 0.0

    def test_matches_networkx(self, small_rmat, small_rmat_nx):
        res = clustering_coefficients(small_rmat)
        oracle = nx.clustering(small_rmat_nx)
        for v in range(small_rmat.num_vertices):
            assert res.local[v] == pytest.approx(oracle[v])

    def test_global_matches_networkx_transitivity(
        self, small_rmat, small_rmat_nx
    ):
        res = clustering_coefficients(small_rmat)
        assert res.global_coefficient == pytest.approx(
            nx.transitivity(small_rmat_nx)
        )

    def test_low_degree_vertices_zero(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])
        res = clustering_coefficients(g)
        assert res.local[3] == 0.0  # degree-1 vertex

    def test_empty_graph(self):
        res = clustering_coefficients(from_edge_list([], num_vertices=3))
        assert res.global_coefficient == 0.0


class TestClosureScanMemo:
    """Both counters read one memoized closure scan per graph."""

    def test_bsp_then_graphct_scans_once(self, monkeypatch):
        scans = []
        real_scan = wedges._scan

        def counting_scan(dag):
            scans.append(dag.num_arcs)
            return real_scan(dag)

        monkeypatch.setattr(wedges, "_scan", counting_scan)
        g = rmat(scale=8, edge_factor=8, seed=11)
        bsp = bsp_count_triangles(g)
        shm = count_triangles(g)
        assert len(scans) == 1
        assert bsp.total_triangles == shm.total_triangles > 0
        count_triangles(g, ordering="degree")  # a second orientation
        assert len(scans) == 2

    def test_returned_histograms_are_read_only(self):
        g = complete_graph(5)
        for res in (bsp_count_triangles(g), count_triangles(g)):
            before = res.per_vertex.copy()
            with pytest.raises(ValueError, match="read-only"):
                res.per_vertex[0] += 1
            assert np.array_equal(res.per_vertex, before)
        assert count_triangles(g).per_vertex.tolist() == [6] * 5
        assert bsp_count_triangles(g).per_vertex.tolist() == [6, 3, 1, 0, 0]
