"""Tests for the BSP algorithm library: correctness against GraphCT
kernels and engine-vs-vectorized equivalence (the property DESIGN.md
promises)."""

import numpy as np
import pytest

from repro.bsp import BSPEngine, SumAggregator, make_engine
from repro.bsp_algorithms import (
    BSPBreadthFirstSearch,
    BSPConnectedComponents,
    BSPPageRank,
    BSPShortestPaths,
    BSPTriangleCounting,
    bsp_breadth_first_search,
    bsp_connected_components,
    bsp_count_triangles,
    bsp_k_core,
    bsp_pagerank,
    bsp_sssp,
)
from repro.graph import from_edge_list, path_graph, ring_graph, rmat, star_graph
from repro.graph.properties import peripheral_vertex
from repro.telemetry.core import Telemetry
from repro.graphct import (
    breadth_first_search,
    connected_components,
    count_triangles,
    pagerank,
    sssp,
)


@pytest.fixture(scope="module")
def tiny_rmat():
    """Small enough for the per-vertex reference engine."""
    return rmat(scale=7, edge_factor=8, seed=2)


class TestBSPConnectedComponents:
    def test_matches_shared_memory(self, small_rmat):
        bsp = bsp_connected_components(small_rmat)
        shm = connected_components(small_rmat)
        assert bsp.num_components == shm.num_components
        assert np.array_equal(bsp.labels, shm.labels)

    def test_engine_equivalence(self, tiny_rmat):
        eng = BSPEngine(tiny_rmat).run(BSPConnectedComponents())
        vec = bsp_connected_components(tiny_rmat)
        assert np.array_equal(eng.values_array(dtype=np.int64), vec.labels)
        assert eng.num_supersteps == vec.num_supersteps
        assert eng.messages_per_superstep == vec.messages_per_superstep
        assert eng.active_per_superstep[1:] == vec.active_per_superstep[1:]

    def test_superstep_blowup_vs_shared_memory(self, small_rmat):
        """Paper §VI: stale reads make BSP take >= ~2x the iterations."""
        bsp = bsp_connected_components(small_rmat)
        shm = connected_components(small_rmat)
        assert bsp.num_supersteps >= 1.5 * shm.num_iterations

    def test_ring_needs_diameter_supersteps(self):
        n = 32
        res = bsp_connected_components(ring_graph(n))
        # Label 0 travels one hop per superstep from both directions.
        assert res.num_supersteps >= n // 2

    def test_first_superstep_floods_every_edge(self, small_rmat):
        res = bsp_connected_components(small_rmat)
        assert res.messages_per_superstep[0] == small_rmat.num_arcs
        assert res.active_per_superstep[0] == small_rmat.num_vertices

    def test_activity_collapses(self, small_rmat):
        """Fig. 1 left: early supersteps touch everything, the tail is
        tiny."""
        res = bsp_connected_components(small_rmat)
        msgs = res.messages_per_superstep
        assert msgs[-1] == 0
        assert msgs[0] > 100 * max(msgs[-2], 1)

    def test_directed_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(ValueError):
            bsp_connected_components(g)

    def test_isolated_vertices_self_labelled(self):
        g = from_edge_list([(0, 1)], num_vertices=4)
        res = bsp_connected_components(g)
        assert res.labels.tolist() == [0, 0, 2, 3]


class TestBSPBreadthFirstSearch:
    def test_matches_shared_memory(self, small_rmat):
        src = peripheral_vertex(small_rmat)
        bsp = bsp_breadth_first_search(small_rmat, src)
        shm = breadth_first_search(small_rmat, src)
        assert np.array_equal(bsp.distances, shm.distances)

    def test_engine_equivalence(self, tiny_rmat):
        src = peripheral_vertex(tiny_rmat)
        eng = BSPEngine(tiny_rmat).run(BSPBreadthFirstSearch(src))
        vec = bsp_breadth_first_search(tiny_rmat, src)
        eng_dist = np.asarray(
            [-1 if v is None else v for v in eng.values], dtype=np.int64
        )
        assert np.array_equal(eng_dist, vec.distances)
        assert eng.num_supersteps == vec.num_supersteps
        assert eng.messages_per_superstep == vec.messages_per_superstep

    def test_messages_exceed_frontier_after_apex(self, small_rmat):
        """Fig. 2: messages ~ frontier early, then an order of magnitude
        larger as the graph saturates."""
        src = peripheral_vertex(small_rmat)
        res = bsp_breadth_first_search(small_rmat, src)
        msgs = res.messages_per_superstep
        frontier = res.frontier_sizes
        apex = int(np.argmax(frontier))
        post = apex + 1
        if post < len(frontier) and frontier[post] > 0:
            assert msgs[post] > 2 * frontier[post]

    def test_messages_are_frontier_incident_edges(self, small_rmat):
        """One message per edge incident on the (improved) frontier."""
        src = peripheral_vertex(small_rmat)
        res = bsp_breadth_first_search(small_rmat, src)
        shm = breadth_first_search(small_rmat, src)
        # BSP superstep s sends along edges of vertices discovered at
        # hop s; the shared-memory kernel examined exactly those arcs.
        for level, arcs in enumerate(shm.edges_examined):
            assert res.messages_per_superstep[level] == arcs

    def test_path_supersteps(self):
        res = bsp_breadth_first_search(path_graph(6), 0)
        assert res.distances.tolist() == [0, 1, 2, 3, 4, 5]
        assert res.num_supersteps == 7  # 5 hops + initial + drain

    def test_unreachable(self):
        g = from_edge_list([(0, 1), (2, 3)])
        res = bsp_breadth_first_search(g, 0)
        assert res.distances.tolist() == [0, 1, -1, -1]

    def test_source_validation(self):
        with pytest.raises(IndexError):
            bsp_breadth_first_search(ring_graph(4), -1)


class TestBSPTriangles:
    def test_matches_shared_memory_count(self, small_rmat):
        bsp = bsp_count_triangles(small_rmat)
        shm = count_triangles(small_rmat)
        assert bsp.total_triangles == shm.total_triangles
        assert bsp.possible_triangles == shm.wedges_checked

    def test_engine_equivalence(self, tiny_rmat):
        eng = BSPEngine(tiny_rmat).run(BSPTriangleCounting())
        vec = bsp_count_triangles(tiny_rmat)
        assert sum(eng.values) == vec.total_triangles
        assert eng.messages_per_superstep == vec.messages_per_superstep
        assert np.array_equal(
            eng.values_array(dtype=np.int64), vec.per_vertex
        )

    def test_three_working_supersteps(self, two_triangles):
        res = bsp_count_triangles(two_triangles)
        assert res.total_triangles == 2
        assert len(res.messages_per_superstep) == 4  # 3 phases + drain
        # superstep 0 sends one message per undirected edge
        assert res.messages_per_superstep[0] == two_triangles.num_edges

    def test_message_blowup(self, small_rmat):
        """§V: wedge messages dwarf both edges and actual triangles."""
        res = bsp_count_triangles(small_rmat)
        assert res.possible_triangles > res.total_triangles
        assert res.messages_per_superstep[1] == res.possible_triangles

    def test_write_ratio_against_shared_memory(self, small_rmat):
        """The BSP variant writes far more than shared memory (paper:
        181x at scale 24; the ratio shrinks with RMAT scale because
        miniatures are relatively triangle-dense — see EXPERIMENTS.md)."""
        bsp = bsp_count_triangles(small_rmat)
        shm = count_triangles(small_rmat)
        assert bsp.trace.total_writes > 5 * shm.trace.total_writes

    def test_per_vertex_attribution_is_min_corner(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
        res = bsp_count_triangles(g)
        # Triangles: (0,1,2) attributed to 0; (1,2,3) attributed to 1.
        assert res.per_vertex.tolist() == [1, 1, 0, 0]

    def test_triangle_free(self):
        res = bsp_count_triangles(star_graph(8))
        assert res.total_triangles == 0
        assert res.num_supersteps == 3  # no notifications -> no drain

    def test_directed_rejected(self):
        with pytest.raises(ValueError):
            bsp_count_triangles(from_edge_list([(0, 1)], directed=True))


class TestBSPSSSP:
    def test_matches_shared_memory(self, small_rmat):
        src = peripheral_vertex(small_rmat)
        bsp = bsp_sssp(small_rmat, src)
        shm = sssp(small_rmat, src)
        assert np.allclose(bsp.distances, shm.distances, equal_nan=False)

    def test_weighted(self):
        g = from_edge_list(
            [(0, 1), (1, 2), (0, 2)], weights=[1.0, 1.0, 10.0]
        )
        res = bsp_sssp(g, 0)
        assert res.distances.tolist() == [0.0, 1.0, 2.0]

    def test_engine_equivalence(self):
        g = from_edge_list(
            [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)],
            weights=[1.0, 2.0, 5.0, 1.0, 9.0],
        )
        eng = BSPEngine(g).run(BSPShortestPaths(0))
        vec = bsp_sssp(g, 0)
        assert np.allclose(np.asarray(eng.values, dtype=float), vec.distances)

    def test_negative_weights_rejected(self):
        g = from_edge_list([(0, 1)], weights=[-2.0])
        with pytest.raises(ValueError):
            bsp_sssp(g, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_infinite_weights_rejected(self, bad):
        """A NaN weight used to read as "unreachable" past it: the path
        0-1-2 with weights [nan, 1] returned [0, inf, inf]."""
        g = from_edge_list([(0, 1), (1, 2)], weights=[bad, 1.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            bsp_sssp(g, 0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            sssp(g, 0)

    def test_unreachable_is_inf(self):
        g = from_edge_list([(0, 1), (2, 3)])
        res = bsp_sssp(g, 0)
        assert np.isinf(res.distances[2])


class TestBSPPageRank:
    def test_matches_shared_memory(self, small_rmat):
        bsp = bsp_pagerank(small_rmat, num_supersteps=50)
        shm = pagerank(small_rmat, tolerance=1e-12, max_iterations=200)
        assert np.allclose(bsp.ranks, shm.ranks, atol=1e-6)

    def test_ranks_sum_to_one(self, small_rmat):
        res = bsp_pagerank(small_rmat, num_supersteps=30)
        assert res.ranks.sum() == pytest.approx(1.0)

    def test_engine_equivalence(self, tiny_rmat):
        eng = BSPEngine(
            tiny_rmat, aggregators={"dangling": SumAggregator()}
        ).run(BSPPageRank(num_supersteps=20))
        vec = bsp_pagerank(tiny_rmat, num_supersteps=20)
        assert np.allclose(eng.values_array(), vec.ranks, atol=1e-12)

    def test_fixed_message_volume(self, tiny_rmat):
        res = bsp_pagerank(tiny_rmat, num_supersteps=5)
        assert res.messages_per_superstep[:-1] == [tiny_rmat.num_arcs] * 5
        assert res.messages_per_superstep[-1] == 0

    @pytest.mark.parametrize(
        "kwargs", [{"num_supersteps": 0}, {"damping": 1.5}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            bsp_pagerank(ring_graph(4), **kwargs)

    def test_empty_graph(self):
        res = bsp_pagerank(from_edge_list([], num_vertices=0))
        assert res.ranks.size == 0


#: wrapper -> (positional arguments after the graph, result array)
WRAPPERS = {
    bsp_connected_components: ((), "labels"),
    bsp_breadth_first_search: ((3,), "distances"),
    bsp_sssp: ((3,), "distances"),
    bsp_pagerank: ((), "ranks"),
    bsp_k_core: ((2,), "in_core"),
}


class TestWrapperSurface:
    """The engine-backed wrappers take an engine; they do not re-declare
    its constructor."""

    @pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: w.__name__)
    @pytest.mark.parametrize(
        "stale",
        [
            {"num_workers": 2},
            {"telemetry": Telemetry("stale")},
            {"partition": "hash"},
            {"costs": None},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_engine_kwargs_fail_loudly(self, tiny_rmat, wrapper, stale):
        """A stale call site must not quietly run dense and untraced."""
        args, _ = WRAPPERS[wrapper]
        with pytest.raises(TypeError, match=next(iter(stale))):
            wrapper(tiny_rmat, *args, **stale)

    @pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: w.__name__)
    def test_engine_of_another_graph_is_refused(self, tiny_rmat, wrapper):
        args, _ = WRAPPERS[wrapper]
        twin = rmat(scale=7, edge_factor=8, seed=2)  # equal, not identical
        with make_engine(twin) as engine:
            with pytest.raises(ValueError, match="different graph"):
                wrapper(tiny_rmat, *args, engine=engine)

    def test_one_configured_engine_serves_all_five(
        self, tiny_rmat, fan_out_every_superstep
    ):
        tel = Telemetry("shared")
        with make_engine(
            tiny_rmat, "sharded", num_workers=2, partition="balanced-edge",
            telemetry=tel,
        ) as engine:
            for wrapper, (args, field) in WRAPPERS.items():
                spans = len(tel.spans_named("superstep"))
                barriers = len(tel.spans_named("barrier"))
                plain = wrapper(tiny_rmat, *args)
                assert len(tel.spans_named("superstep")) == spans
                shared = wrapper(tiny_rmat, *args, engine=engine)
                if field == "ranks":  # shard-order float sums: last ulp
                    assert np.allclose(
                        shared.ranks, plain.ranks, rtol=0, atol=1e-12
                    )
                else:
                    assert np.array_equal(
                        getattr(shared, field), getattr(plain, field)
                    )
                assert shared.num_supersteps == plain.num_supersteps
                assert (
                    shared.messages_per_superstep
                    == plain.messages_per_superstep
                )
                assert (
                    len(tel.spans_named("superstep"))
                    == spans + shared.num_supersteps
                )
                assert len(tel.spans_named("barrier")) > barriers
            assert engine.partition_policy == "balanced-edge"
            assert not engine.closed
