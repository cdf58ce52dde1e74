"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.graph import (
    from_edge_array,
    from_edge_list,
    load_graph,
    read_edge_list,
    save_graph,
    write_edge_list,
)
from repro.graph.dag import ascending_orientation, degree_orientation
from repro.graph.properties import (
    connected_component_sizes,
    is_symmetric,
    reachable_from,
)
from repro.graph.subgraph import extract_subgraph, largest_component_subgraph


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=60):
    """Random (edges, num_vertices) pairs, duplicates and loops allowed."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return edges, n


class TestCSRInvariants:
    @given(edge_lists())
    def test_row_ptr_monotone_and_consistent(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        assert g.row_ptr[0] == 0
        assert g.row_ptr[-1] == g.col_idx.size
        assert np.all(np.diff(g.row_ptr) >= 0)

    @given(edge_lists())
    def test_undirected_always_symmetric(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        assert is_symmetric(g)

    @given(edge_lists())
    def test_adjacency_sorted_and_simple(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        for v in range(n):
            nbrs = g.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
            assert v not in nbrs  # no self loops

    @given(edge_lists())
    def test_edges_iterator_matches_input_edge_set(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        expected = {
            (min(u, v), max(u, v)) for u, v in edges if u != v
        }
        assert set(g.edges()) == expected

    @given(edge_lists())
    def test_degree_sum_equals_arcs(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        assert int(g.degrees().sum()) == g.num_arcs

    @given(edge_lists())
    def test_has_edge_agrees_with_neighbors(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        for u, v in edges[:10]:
            if u != v:
                assert g.has_edge(u, v)

    @given(edge_lists())
    def test_arc_sources_expansion(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        src = g.arc_sources()
        for v in range(n):
            lo, hi = int(g.row_ptr[v]), int(g.row_ptr[v + 1])
            assert np.all(src[lo:hi] == v)

    @given(edge_lists())
    def test_reverse_of_directed_is_involution(self, data):
        edges, n = data
        g = from_edge_list(edges, n, directed=True)
        rr = g.reverse().reverse()
        assert np.array_equal(rr.row_ptr, g.row_ptr)
        assert np.array_equal(rr.col_idx, g.col_idx)


class TestOrientationProperties:
    @given(edge_lists())
    def test_orientation_partitions_arcs(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        dag = ascending_orientation(g)
        assert dag.num_arcs == g.num_arcs // 2
        assert np.all(dag.arc_sources() < dag.col_idx)

    @given(edge_lists())
    def test_degree_orientation_is_acyclic_total_order(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        dag = degree_orientation(g)
        assert dag.num_arcs == g.num_arcs // 2
        deg = g.degrees()
        src, dst = dag.arc_sources(), dag.col_idx
        key_src = deg[src] * (n + 1) + src
        key_dst = deg[dst] * (n + 1) + dst
        assert np.all(key_src < key_dst)


def scipy_labels(g):
    """Component labels from scipy, an oracle independent of the engine."""
    n = g.num_vertices
    adjacency = csr_matrix((np.ones(g.num_arcs), g.col_idx, g.row_ptr), shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


class TestComponentsProperties:
    @given(edge_lists())
    @settings(max_examples=50)
    def test_labels_constant_on_reachable_sets(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        labels = scipy_labels(g)
        for v in range(min(n, 5)):
            assert np.array_equal(reachable_from(g, v), labels == labels[v])

    @given(edge_lists())
    def test_component_sizes_match_scipy(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        expected = np.sort(np.bincount(scipy_labels(g)))[::-1]
        assert np.array_equal(connected_component_sizes(g), expected)

    @given(edge_lists())
    @settings(max_examples=50)
    def test_largest_component_subgraph_matches_scipy(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        labels = scipy_labels(g)
        sizes = np.bincount(labels)
        # Of the largest components, the one holding the smallest vertex.
        giant = labels[np.flatnonzero(sizes[labels] == sizes.max())[0]]
        sub, ids = largest_component_subgraph(g)
        assert np.array_equal(ids, np.flatnonzero(labels == giant))
        assert sub.num_arcs == np.count_nonzero(labels[g.arc_sources()] == giant)


class TestSubgraphProperties:
    @given(edge_lists())
    @settings(max_examples=50)
    def test_subgraph_edges_subset_of_original(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        keep = list(range(0, n, 2))
        sub, ids = extract_subgraph(g, keep)
        for u, v in sub.edges():
            assert g.has_edge(int(ids[u]), int(ids[v]))

    @given(edge_lists())
    @settings(max_examples=50)
    def test_full_subgraph_is_identity(self, data):
        edges, n = data
        g = from_edge_list(edges, n)
        sub, ids = extract_subgraph(g, range(n))
        assert np.array_equal(sub.col_idx, g.col_idx)
        assert np.array_equal(ids, np.arange(n))


class TestIORoundTrips:
    @given(data=edge_lists())
    @settings(max_examples=30)
    def test_edge_list_round_trip(self, tmp_path_factory, data):
        edges, n = data
        g = from_edge_list(edges, n)
        path = tmp_path_factory.mktemp("io") / "g.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path, num_vertices=n)
        assert np.array_equal(g.row_ptr, g2.row_ptr)
        assert np.array_equal(g.col_idx, g2.col_idx)

    @given(data=edge_lists())
    @settings(max_examples=30)
    def test_snapshot_round_trip(self, tmp_path_factory, data):
        edges, n = data
        g = from_edge_list(edges, n)
        path = tmp_path_factory.mktemp("io") / "g.npz"
        save_graph(g, path)
        g2 = load_graph(path)
        assert np.array_equal(g.row_ptr, g2.row_ptr)
        assert np.array_equal(g.col_idx, g2.col_idx)
        assert g.directed == g2.directed


class TestBuilderNormalizationIdempotent:
    @given(edge_lists())
    def test_rebuilding_from_edges_is_stable(self, data):
        edges, n = data
        g1 = from_edge_list(edges, n)
        g2 = from_edge_array(
            np.asarray(list(g1.edges()) or np.empty((0, 2), dtype=np.int64)),
            n,
        )
        assert np.array_equal(g1.row_ptr, g2.row_ptr)
        assert np.array_equal(g1.col_idx, g2.col_idx)
