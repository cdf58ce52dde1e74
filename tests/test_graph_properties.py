"""Tests for graph property utilities and subgraph extraction."""

import numpy as np
import pytest

from repro.bsp_algorithms import bsp_breadth_first_search, bsp_sssp
from repro.graph import (
    connected_component_sizes,
    degree_statistics,
    extract_subgraph,
    from_edge_list,
    is_symmetric,
    largest_component_subgraph,
    reachable_from,
    ring_graph,
    rmat,
    star_graph,
)
from repro.graph.properties import giant_component_vertex, peripheral_vertex
from repro.graphct import breadth_first_search, sssp
from repro.graphct.reference import reference_bfs


class TestDegreeStatistics:
    def test_star(self):
        s = degree_statistics(star_graph(9))
        assert s.max_degree == 9
        assert s.min_degree == 1
        assert s.isolated_vertices == 0
        assert s.skew == pytest.approx(9 / (18 / 10))

    def test_empty(self):
        s = degree_statistics(from_edge_list([], num_vertices=0))
        assert s.max_degree == 0 and s.skew == 0.0

    def test_isolated_counted(self):
        s = degree_statistics(from_edge_list([(0, 1)], num_vertices=4))
        assert s.isolated_vertices == 2


class TestSymmetry:
    def test_undirected_symmetric(self):
        assert is_symmetric(ring_graph(5))

    def test_directed_asymmetric(self):
        g = from_edge_list([(0, 1)], directed=True)
        assert not is_symmetric(g)

    def test_directed_but_symmetric_arcs(self):
        g = from_edge_list([(0, 1), (1, 0)], directed=True)
        assert is_symmetric(g)


class TestReachability:
    def test_two_components(self):
        g = from_edge_list([(0, 1), (2, 3)])
        mask = reachable_from(g, 0)
        assert mask.tolist() == [True, True, False, False]

    def test_isolated_source(self):
        g = from_edge_list([(0, 1)], num_vertices=3)
        mask = reachable_from(g, 2)
        assert mask.tolist() == [False, False, True]

    def test_out_of_range_source(self):
        with pytest.raises(IndexError):
            reachable_from(ring_graph(4), 9)

    def test_ring_fully_reachable(self):
        assert reachable_from(ring_graph(11), 0).all()


class TestComponents:
    def test_sizes_sorted_descending(self):
        g = from_edge_list([(0, 1), (1, 2), (3, 4)], num_vertices=6)
        assert connected_component_sizes(g).tolist() == [3, 2, 1]

    def test_single_component(self):
        assert connected_component_sizes(ring_graph(7)).tolist() == [7]

    def test_giant_component_vertex(self):
        g = from_edge_list([(0, 1), (2, 3), (3, 4), (4, 5)], num_vertices=6)
        v = giant_component_vertex(g)
        assert v in (2, 3, 4, 5)

    @pytest.mark.parametrize(
        "utility",
        [connected_component_sizes, giant_component_vertex,
         largest_component_subgraph, peripheral_vertex],
    )
    def test_components_of_a_directed_graph_raise(self, utility):
        # Components are defined on undirected graphs only, as in every
        # CC of the library; weak components are not computed silently.
        g = from_edge_list([(0, 1), (1, 2)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            utility(g)


@pytest.mark.parametrize(
    "scale, vertex", [(6, 55), (8, 183), (10, 190), (12, 731)]
)
def test_peripheral_vertex_pin(scale, vertex):
    # The BFS source of every experiment; `repro verify --scale 14` pins
    # the scale-14 pick (7050).
    assert peripheral_vertex(rmat(scale, 16, seed=1)) == vertex


#: Every public entry point that takes a source vertex.
SOURCE_ENTRY_POINTS = {
    "bsp_breadth_first_search": lambda g, s: bsp_breadth_first_search(g, s).distances,
    "bsp_sssp": lambda g, s: bsp_sssp(g, s).distances,
    "breadth_first_search": lambda g, s: breadth_first_search(g, s).distances,
    "sssp": lambda g, s: sssp(g, s).distances,
    "reference_bfs": lambda g, s: reference_bfs(g, s)[0],
    "reachable_from": reachable_from,
}


class TestVertexIds:
    @pytest.mark.parametrize("bad", [True, 2.7, 2.0, "3"], ids=repr)
    @pytest.mark.parametrize("entry", SOURCE_ENTRY_POINTS)
    def test_check_vertex_rejects_non_integer_sources(self, entry, bad):
        with pytest.raises(TypeError):
            SOURCE_ENTRY_POINTS[entry](ring_graph(6), bad)

    @pytest.mark.parametrize("entry", SOURCE_ENTRY_POINTS)
    def test_check_vertex_takes_numpy_integers(self, entry):
        g = ring_graph(6)
        run = SOURCE_ENTRY_POINTS[entry]
        assert np.array_equal(run(g, np.int32(2)), run(g, 2))
        with pytest.raises(IndexError):
            run(g, np.int64(6))


class TestSubgraph:
    def test_induced_edges_only(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)])
        sub, ids = extract_subgraph(g, [1, 2])
        assert ids.tolist() == [1, 2]
        assert sorted(sub.edges()) == [(0, 1)]

    def test_relabelling_dense(self):
        g = from_edge_list([(0, 5)], num_vertices=6)
        sub, ids = extract_subgraph(g, [5, 0])
        assert ids.tolist() == [0, 5]
        assert sub.num_vertices == 2
        assert sub.has_edge(0, 1)

    def test_duplicate_ids_collapsed(self):
        g = from_edge_list([(0, 1)])
        sub, ids = extract_subgraph(g, [0, 0, 1])
        assert ids.tolist() == [0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            extract_subgraph(ring_graph(4), [10])

    def test_weighted_subgraph(self):
        g = from_edge_list([(0, 1), (1, 2)], weights=[3.0, 4.0])
        sub, _ = extract_subgraph(g, [0, 1])
        assert sub.is_weighted
        assert sub.edge_weights(0).tolist() == [3.0]

    def test_directed_subgraph(self):
        g = from_edge_list([(0, 1), (1, 0), (1, 2)], directed=True)
        sub, _ = extract_subgraph(g, [0, 1])
        assert sorted(sub.edges()) == [(0, 1), (1, 0)]

    def test_largest_component(self):
        g = from_edge_list([(0, 1), (2, 3), (3, 4)], num_vertices=5)
        sub, ids = largest_component_subgraph(g)
        assert sub.num_vertices == 3
        assert ids.tolist() == [2, 3, 4]
