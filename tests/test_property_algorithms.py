"""Property-based tests (hypothesis): algorithm invariants and
cross-model equivalence on random graphs."""

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp import BSPEngine
from repro.bsp_algorithms import (
    BSPBreadthFirstSearch,
    BSPConnectedComponents,
    bsp_breadth_first_search,
    bsp_connected_components,
    bsp_count_triangles,
    bsp_sssp,
)
from repro.graph import from_edge_list, star_graph
from repro.graph.wedges import closed_wedges
from repro.graphct import (
    breadth_first_search,
    connected_components,
    count_triangles,
    k_core_decomposition,
    sssp,
)


@st.composite
def graphs(draw, max_vertices=20, max_edges=50):
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
    return from_edge_list(edges, n)


def _min_corner_triangles(g, ordering):
    """Brute-force triangles per vertex, counted at the minimum corner
    of the total order ``ordering`` ("id" or (degree, id))."""
    deg = g.degrees()
    rank = (lambda v: v) if ordering == "id" else (lambda v: (deg[v], v))
    adj = [set(g.neighbors(v).tolist()) - {v} for v in range(g.num_vertices)]
    at_min = np.zeros(g.num_vertices, dtype=np.int64)
    for a in range(g.num_vertices):
        for b in adj[a]:
            for c in adj[a] & adj[b]:
                if a < b < c:
                    at_min[min((a, b, c), key=rank)] += 1
    return at_min


def _networkx_triangles(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from((u, v) for u, v in g.edges() if u != v)
    tri = nx.triangles(nxg)
    return np.array([tri[v] for v in range(g.num_vertices)], dtype=np.int64)


#: Fixed inputs beside the hypothesis graphs: a star (wedges, no
#: triangles), a clique (every wedge closes) and edgeless graphs.
FIXED_TRIANGLE_GRAPHS = {
    "star": lambda: star_graph(9),
    "clique": lambda: from_edge_list(
        [(i, j) for i in range(7) for j in range(i + 1, 7)]
    ),
    "empty": lambda: from_edge_list([], 6),
    "single_vertex": lambda: from_edge_list([], 1),
}


def _check_triangle_histograms(g, ordering):
    shm = count_triangles(g, ordering=ordering)
    assert np.array_equal(shm.per_vertex, _networkx_triangles(g))
    at_min = _min_corner_triangles(g, ordering)
    assert np.array_equal(closed_wedges(g, ordering).at_min_corner, at_min)
    if ordering == "id":  # Algorithm 3 orders by id
        assert np.array_equal(bsp_count_triangles(g).per_vertex, at_min)


class TestConnectedComponentsProperties:
    @given(graphs())
    @settings(max_examples=60)
    def test_bsp_and_shared_memory_agree(self, g):
        assert np.array_equal(
            bsp_connected_components(g).labels,
            connected_components(g).labels,
        )

    @given(graphs())
    @settings(max_examples=60)
    def test_labels_respect_edges(self, g):
        labels = connected_components(g).labels
        src, dst = g.arc_sources(), g.col_idx
        assert np.all(labels[src] == labels[dst])

    @given(graphs())
    @settings(max_examples=60)
    def test_label_is_minimum_member(self, g):
        labels = connected_components(g).labels
        for lbl in np.unique(labels):
            assert np.flatnonzero(labels == lbl).min() == lbl

    @given(graphs(max_vertices=12, max_edges=24))
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_vectorized(self, g):
        eng = BSPEngine(g).run(BSPConnectedComponents())
        vec = bsp_connected_components(g)
        assert np.array_equal(
            eng.values_array(dtype=np.int64), vec.labels
        )
        assert eng.messages_per_superstep == vec.messages_per_superstep

    @given(st.data())
    @settings(max_examples=60)
    def test_num_components_counts_distinct_labels(self, data):
        """Whatever labels the engine hands back — any vector over the
        vertex ids — the count is that of ``np.unique``."""
        n = data.draw(st.integers(min_value=0, max_value=40))
        labels = np.asarray(
            data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                               min_size=n, max_size=n)),
            dtype=np.int64,
        )
        g = from_edge_list([], n)
        finished = SimpleNamespace(
            values=labels, num_supersteps=0, active_per_superstep=[],
            messages_per_superstep=[], trace=None,
        )
        engine = SimpleNamespace(graph=g, run=lambda *a, **kw: finished)
        counted = bsp_connected_components(g, engine=engine).num_components
        assert counted == np.unique(labels).size

    @given(graphs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_num_components_of_a_truncated_run(self, g, max_supersteps):
        """Cut short, labels are not yet component minima (a "label ==
        own id" count would be wrong); distinct labels still count."""
        cut = bsp_connected_components(g, max_supersteps=max_supersteps)
        assert cut.num_components == np.unique(cut.labels).size


class TestBFSProperties:
    @given(graphs(), st.data())
    @settings(max_examples=60)
    def test_bsp_and_shared_memory_agree(self, g, data):
        src = data.draw(
            st.integers(min_value=0, max_value=g.num_vertices - 1)
        )
        assert np.array_equal(
            bsp_breadth_first_search(g, src).distances,
            breadth_first_search(g, src).distances,
        )

    @given(graphs(), st.data())
    @settings(max_examples=60)
    def test_triangle_inequality_on_edges(self, g, data):
        """Adjacent vertices' BFS distances differ by at most 1."""
        src = data.draw(
            st.integers(min_value=0, max_value=g.num_vertices - 1)
        )
        dist = breadth_first_search(g, src).distances
        u, v = g.arc_sources(), g.col_idx
        both = (dist[u] >= 0) & (dist[v] >= 0)
        assert np.all(np.abs(dist[u[both]] - dist[v[both]]) <= 1)
        # Reachability is symmetric along an edge.
        assert np.all((dist[u] >= 0) == (dist[v] >= 0))

    @given(graphs(max_vertices=12, max_edges=24), st.data())
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_vectorized(self, g, data):
        src = data.draw(
            st.integers(min_value=0, max_value=g.num_vertices - 1)
        )
        eng = BSPEngine(g).run(BSPBreadthFirstSearch(src))
        vec = bsp_breadth_first_search(g, src)
        eng_dist = np.asarray(
            [-1 if x is None else x for x in eng.values], dtype=np.int64
        )
        assert np.array_equal(eng_dist, vec.distances)

    @given(graphs(), st.data())
    @settings(max_examples=40)
    def test_messages_equal_frontier_incident_arcs(self, g, data):
        src = data.draw(
            st.integers(min_value=0, max_value=g.num_vertices - 1)
        )
        bsp = bsp_breadth_first_search(g, src)
        deg = g.degrees()
        dist = bsp.distances
        for level, msgs in enumerate(bsp.messages_per_superstep):
            frontier = np.flatnonzero(dist == level)
            assert msgs == int(deg[frontier].sum())


class TestTriangleProperties:
    @given(graphs())
    @settings(max_examples=50)
    def test_bsp_and_shared_memory_agree(self, g):
        assert (
            bsp_count_triangles(g).total_triangles
            == count_triangles(g).total_triangles
        )

    @given(graphs())
    @settings(max_examples=50)
    def test_per_vertex_sums_to_three_per_triangle(self, g):
        res = count_triangles(g)
        assert int(res.per_vertex.sum()) == 3 * res.total_triangles

    @given(graphs())
    @settings(max_examples=50)
    def test_ordering_invariance(self, g):
        assert (
            count_triangles(g, ordering="id").total_triangles
            == count_triangles(g, ordering="degree").total_triangles
        )

    @given(graphs())
    @settings(max_examples=50)
    def test_triangles_bounded_by_wedges(self, g):
        res = count_triangles(g)
        assert res.total_triangles <= res.wedges_checked

    @pytest.mark.parametrize("ordering", ["id", "degree"])
    @given(graphs())
    @settings(max_examples=50)
    def test_per_vertex_matches_oracles(self, ordering, g):
        _check_triangle_histograms(g, ordering)

    @pytest.mark.parametrize("ordering", ["id", "degree"])
    @pytest.mark.parametrize("name", sorted(FIXED_TRIANGLE_GRAPHS))
    def test_per_vertex_matches_oracles_on_fixed_graphs(self, name, ordering):
        _check_triangle_histograms(FIXED_TRIANGLE_GRAPHS[name](), ordering)


class TestSSSPProperties:
    @given(graphs(), st.data())
    @settings(max_examples=40)
    def test_unweighted_sssp_equals_bfs(self, g, data):
        src = data.draw(
            st.integers(min_value=0, max_value=g.num_vertices - 1)
        )
        d_bfs = breadth_first_search(g, src).distances
        d_sssp = sssp(g, src).distances
        reached = d_bfs >= 0
        assert np.array_equal(d_sssp[reached], d_bfs[reached].astype(float))
        assert np.all(np.isinf(d_sssp[~reached]))

    @given(graphs(), st.data())
    @settings(max_examples=40)
    def test_bsp_sssp_matches_shared(self, g, data):
        src = data.draw(
            st.integers(min_value=0, max_value=g.num_vertices - 1)
        )
        assert np.array_equal(
            bsp_sssp(g, src).distances, sssp(g, src).distances
        )

    @given(graphs(), st.data())
    @settings(max_examples=40)
    def test_edge_relaxation_fixpoint(self, g, data):
        """No edge can improve a finished SSSP solution."""
        src = data.draw(
            st.integers(min_value=0, max_value=g.num_vertices - 1)
        )
        dist = sssp(g, src).distances
        u, v = g.arc_sources(), g.col_idx
        finite = np.isfinite(dist[u])
        assert np.all(dist[v[finite]] <= dist[u[finite]] + 1)


class TestKCoreProperties:
    @given(graphs())
    @settings(max_examples=50)
    def test_core_number_bounded_by_degree(self, g):
        core = k_core_decomposition(g).core_numbers
        assert np.all(core <= g.degrees())

    @given(graphs())
    @settings(max_examples=50)
    def test_kcore_subgraph_min_degree(self, g):
        """Every vertex of the k-core has >= k neighbours in the k-core."""
        res = k_core_decomposition(g)
        k = res.max_core
        if k == 0:
            return
        members = set(res.core_members(k).tolist())
        for v in members:
            inside = sum(
                1 for w in g.neighbors(v).tolist() if w in members
            )
            assert inside >= k
