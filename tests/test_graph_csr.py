"""Unit tests for the CSR graph store."""

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edge_list
from repro.graph.csr import OFFSET_DTYPE, VERTEX_DTYPE, check_weights


def triangle_graph():
    return from_edge_list([(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_basic_shape(self):
        g = triangle_graph()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_arcs == 6

    def test_row_ptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRGraph(row_ptr=np.array([1, 2]), col_idx=np.array([0, 0]))

    def test_row_ptr_must_match_col_idx(self):
        with pytest.raises(ValueError, match="must equal"):
            CSRGraph(row_ptr=np.array([0, 3]), col_idx=np.array([0]))

    def test_row_ptr_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(row_ptr=np.array([0, 2, 1, 3]), col_idx=np.zeros(3, int))

    def test_col_idx_range_checked(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(row_ptr=np.array([0, 1]), col_idx=np.array([5]))

    def test_empty_row_ptr_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            CSRGraph(row_ptr=np.empty(0, int), col_idx=np.empty(0, int))

    def test_weights_must_be_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            CSRGraph(
                row_ptr=np.array([0, 1]),
                col_idx=np.array([0]),
                weights=np.array([1.0, 2.0]),
            )

    def test_dtypes_normalized(self):
        g = CSRGraph(
            row_ptr=np.array([0, 1], dtype=np.int32),
            col_idx=np.array([0], dtype=np.int16),
        )
        assert g.row_ptr.dtype == OFFSET_DTYPE
        assert g.col_idx.dtype == VERTEX_DTYPE


class TestReadOnlyContract:
    def test_arrays_not_writeable(self):
        g = triangle_graph()
        with pytest.raises(ValueError):
            g.row_ptr[0] = 7
        with pytest.raises(ValueError):
            g.col_idx[0] = 7

    def test_neighbors_view_not_writeable(self):
        g = triangle_graph()
        with pytest.raises(ValueError):
            g.neighbors(0)[0] = 9

    def test_degrees_cached_and_frozen(self):
        g = triangle_graph()
        d1 = g.degrees()
        d2 = g.degrees()
        assert d1 is d2
        with pytest.raises(ValueError):
            d1[0] = 3


class TestInDegrees:
    def test_directed_graph(self):
        g = from_edge_list(
            [(0, 1), (0, 2), (1, 2), (3, 2), (2, 0)], directed=True
        )
        assert g.in_degrees().tolist() == [1, 1, 3, 0]
        assert g.in_degrees().dtype == OFFSET_DTYPE
        # In-degrees of a graph are the out-degrees of its transpose.
        assert np.array_equal(g.in_degrees(), g.reverse().degrees())

    def test_undirected_graph_equals_degrees(self):
        g = from_edge_list([(0, 1), (1, 2), (1, 3)])
        assert np.array_equal(g.in_degrees(), g.degrees())

    def test_isolated_vertices_count_zero(self):
        g = from_edge_list([(1, 2)], num_vertices=6, directed=True)
        assert g.in_degrees().tolist() == [0, 0, 1, 0, 0, 0]

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=0)
        assert g.in_degrees().shape == (0,)
        no_arcs = from_edge_list([], num_vertices=3, directed=True)
        assert no_arcs.in_degrees().tolist() == [0, 0, 0]
        assert no_arcs.reverse().row_ptr.tolist() == [0, 0, 0, 0]

    def test_cached_and_frozen(self):
        g = from_edge_list([(0, 1), (2, 1)], directed=True)
        first = g.in_degrees()
        assert g.in_degrees() is first
        with pytest.raises(ValueError):
            first[1] = 0


class TestAdjacency:
    def test_neighbors_sorted(self):
        g = from_edge_list([(0, 2), (0, 1), (0, 3)])
        assert g.neighbors(0).tolist() == [1, 2, 3]

    def test_degree_and_degrees_agree(self):
        g = triangle_graph()
        assert [g.degree(v) for v in range(3)] == g.degrees().tolist()

    def test_neighbors_out_of_range(self):
        g = triangle_graph()
        with pytest.raises(IndexError):
            g.neighbors(3)
        with pytest.raises(IndexError):
            g.degree(-1)

    def test_has_edge(self):
        g = triangle_graph()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 0)

    def test_has_edge_unsorted_path(self):
        g = triangle_graph()
        object.__setattr__(g, "sorted_adjacency", False)
        assert g.has_edge(0, 2)
        assert not g.has_edge(2, 2)

    def test_arc_sources_parallel_to_col_idx(self):
        g = triangle_graph()
        src = g.arc_sources()
        assert src.size == g.num_arcs
        for u, v in zip(src, g.col_idx):
            assert g.has_edge(int(u), int(v))

    def test_edges_iterates_unique_edges(self):
        g = triangle_graph()
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edges_directed(self):
        g = from_edge_list([(0, 1), (1, 2)], directed=True)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]


class TestWeighted:
    def test_edge_weights(self):
        g = from_edge_list([(0, 1)], weights=[2.5])
        assert g.edge_weights(0).tolist() == [2.5]
        assert g.edge_weights(1).tolist() == [2.5]

    def test_edge_weights_unweighted_raises(self):
        with pytest.raises(ValueError, match="unweighted"):
            triangle_graph().edge_weights(0)

    def test_edge_weights_out_of_range(self):
        g = from_edge_list([(0, 1)], weights=[1.0])
        with pytest.raises(IndexError):
            g.edge_weights(5)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_check_weights_rejects_negative_nan_and_infinite(self, bad):
        g = from_edge_list([(0, 1), (1, 2)], weights=[bad, 1.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            check_weights(g)

    def test_check_weights_passes_good_and_missing_weights(self):
        check_weights(triangle_graph())
        check_weights(from_edge_list([(0, 1), (1, 2)], weights=[0.0, 2.5]))
        check_weights(from_edge_list([], num_vertices=3, weights=[]))


class TestReverse:
    def test_reverse_directed(self):
        g = from_edge_list([(0, 1), (0, 2), (2, 1)], directed=True)
        r = g.reverse()
        assert sorted(r.edges()) == [(1, 0), (1, 2), (2, 0)]
        assert r.sorted_adjacency

    def test_reverse_undirected_is_identity(self):
        g = triangle_graph()
        assert g.reverse() is g

    def test_reverse_weighted(self):
        g = from_edge_list(
            [(0, 1), (1, 2)], weights=[5.0, 7.0], directed=True
        )
        r = g.reverse()
        assert r.edge_weights(1).tolist() == [5.0]
        assert r.edge_weights(2).tolist() == [7.0]

    def test_reverse_weighted_directed_sorted_adjacency(self):
        """Transposed adjacency runs stay sorted with weights paired."""
        rng = np.random.default_rng(3)
        n = 40
        edges = [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(200)
        ]
        edges = [(u, v) for u, v in edges if u != v]
        weights = rng.uniform(0.5, 9.5, size=len(edges))
        g = from_edge_list(edges, num_vertices=n, weights=weights, directed=True)
        r = g.reverse()
        src = g.arc_sources()
        expected = {}
        for u, v, w in zip(src.tolist(), g.col_idx.tolist(), g.weights.tolist()):
            expected.setdefault(v, []).append((u, w))
        for v in range(n):
            nbrs = r.neighbors(v)
            assert np.array_equal(nbrs, np.sort(nbrs))
            got = list(zip(nbrs.tolist(), r.edge_weights(v).tolist()))
            assert sorted(got) == sorted(expected.get(v, []))
        # Double transpose is the original arc set, weights included.
        rr = r.reverse()
        assert np.array_equal(rr.row_ptr, g.row_ptr)
        assert np.array_equal(rr.col_idx, g.col_idx)
        np.testing.assert_array_equal(rr.weights, g.weights)


def test_memory_footprint_counts_all_arrays():
    g = from_edge_list([(0, 1)], weights=[1.0])
    expected = g.row_ptr.nbytes + g.col_idx.nbytes + g.weights.nbytes
    assert g.memory_footprint_bytes() == expected


def test_len_is_num_vertices():
    assert len(triangle_graph()) == 3
