"""Tests for community detection (both programming models) and
modularity."""

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.bsp_algorithms import (
    BSPLabelPropagation,
    bsp_label_propagation_communities,
)
from repro.graph import from_edge_list, ring_graph, rmat
from repro.graphct import label_propagation_communities, modularity


def clique(vertices):
    return [
        (a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]
    ]


@pytest.fixture
def two_cliques():
    """Two 5-cliques joined by one bridge edge: two clear communities."""
    return from_edge_list(
        clique([0, 1, 2, 3, 4]) + clique([5, 6, 7, 8, 9]) + [(4, 5)]
    )


@pytest.fixture
def planted_partition():
    """Two dense random blocks with sparse cross links."""
    rng = np.random.default_rng(1)
    edges = np.vstack(
        [
            rng.integers(0, 30, (400, 2)),
            rng.integers(30, 60, (400, 2)),
            np.column_stack(
                [rng.integers(0, 30, 10), rng.integers(30, 60, 10)]
            ),
        ]
    )
    return from_edge_list(edges, 60)


class TestModularity:
    def test_perfect_split(self, two_cliques):
        labels = np.array([0] * 5 + [5] * 5)
        q = modularity(two_cliques, labels)
        assert q > 0.4

    def test_single_community_is_zero(self, two_cliques):
        assert modularity(two_cliques, np.zeros(10)) == pytest.approx(0.0)

    def test_singletons_negative(self, two_cliques):
        q = modularity(two_cliques, np.arange(10))
        assert q < 0

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=3)
        assert modularity(g, np.zeros(3)) == 0.0

    def test_label_shape_checked(self, two_cliques):
        with pytest.raises(ValueError, match="one entry per vertex"):
            modularity(two_cliques, np.zeros(3))

    def test_directed_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(ValueError):
            modularity(g, np.zeros(2))

    def test_bounded_above_by_one(self, planted_partition):
        labels = np.array([0] * 30 + [30] * 30)
        assert modularity(planted_partition, labels) <= 1.0


class TestSharedMemoryLPA:
    def test_two_cliques_recovered(self, two_cliques):
        res = label_propagation_communities(two_cliques)
        assert res.num_communities == 2
        assert res.modularity > 0.4
        # Each clique is uniform.
        assert len(set(res.labels[:5].tolist())) == 1
        assert len(set(res.labels[5:].tolist())) == 1

    def test_planted_partition_recovered(self, planted_partition):
        res = label_propagation_communities(planted_partition)
        assert res.modularity > 0.3

    def test_labels_are_member_ids(self, two_cliques):
        res = label_propagation_communities(two_cliques)
        for label in np.unique(res.labels):
            assert res.labels[label] == label  # canonical smallest member

    def test_terminates_with_no_changes(self, two_cliques):
        res = label_propagation_communities(two_cliques)
        assert res.changes_per_iteration[-1] == 0

    def test_max_iterations_cap(self, planted_partition):
        res = label_propagation_communities(
            planted_partition, max_iterations=1
        )
        assert res.num_iterations == 1

    def test_validation(self, two_cliques):
        with pytest.raises(ValueError):
            label_propagation_communities(two_cliques, max_iterations=0)
        with pytest.raises(ValueError):
            label_propagation_communities(
                from_edge_list([(0, 1)], directed=True)
            )

    def test_communities_never_cross_components(self):
        g = from_edge_list([(0, 1), (2, 3)], num_vertices=4)
        res = label_propagation_communities(g)
        assert res.labels[0] != res.labels[2]

    def test_trace_has_one_region_per_sweep(self, two_cliques):
        res = label_propagation_communities(two_cliques)
        assert len(res.trace) == res.num_iterations


class TestBSPLPA:
    def test_two_cliques_recovered(self, two_cliques):
        res = bsp_label_propagation_communities(two_cliques)
        assert res.num_communities == 2
        assert res.modularity > 0.4

    def test_planted_partition_recovered(self, planted_partition):
        res = bsp_label_propagation_communities(planted_partition)
        assert res.modularity > 0.3

    def test_engine_equivalence(self, two_cliques):
        eng = BSPEngine(two_cliques).run(BSPLabelPropagation())
        vec = bsp_label_propagation_communities(two_cliques)
        ev = np.asarray(eng.values, dtype=np.int64)
        for label in np.unique(ev):
            members = np.flatnonzero(ev == label)
            ev[members] = members.min()
        assert np.array_equal(ev, vec.labels)
        assert eng.messages_per_superstep == vec.messages_per_superstep

    def test_superstep0_floods_all_edges(self, two_cliques):
        res = bsp_label_propagation_communities(two_cliques)
        assert res.messages_per_superstep[0] == two_cliques.num_arcs

    def test_max_supersteps_bounds_churn(self):
        """Community-free RMAT may never settle; the cap must hold."""
        g = rmat(scale=9, edge_factor=16, seed=1)
        res = bsp_label_propagation_communities(g, max_supersteps=10)
        assert res.num_supersteps <= 10

    def test_validation(self, two_cliques):
        with pytest.raises(ValueError):
            bsp_label_propagation_communities(
                two_cliques, max_supersteps=0
            )
        with pytest.raises(ValueError):
            bsp_label_propagation_communities(
                from_edge_list([(0, 1)], directed=True)
            )

    def test_ring_does_not_collapse_to_one_label_epidemic(self):
        """The per-vertex jitter must prevent global label flooding."""
        res = bsp_label_propagation_communities(ring_graph(64))
        assert res.num_communities > 2


class TestModelComparison:
    def test_same_quality_on_structured_graphs(
        self, two_cliques, planted_partition
    ):
        """Partitions may differ (stale reads) but quality must match."""
        for g in (two_cliques, planted_partition):
            shm = label_propagation_communities(g)
            bsp = bsp_label_propagation_communities(g)
            assert abs(shm.modularity - bsp.modularity) < 0.25

    def test_bsp_needs_more_rounds_and_simulated_time(
        self, planted_partition
    ):
        """Both models recover the blocks; BSP's stale labels cost
        rounds and simulated time, as with connected components."""
        from repro.xmt.cost_model import simulate
        from repro.xmt.machine import XMTMachine

        shm = label_propagation_communities(planted_partition)
        bsp = bsp_label_propagation_communities(planted_partition)
        assert shm.modularity > 0.4 and bsp.modularity > 0.4
        assert bsp.num_supersteps >= shm.num_iterations
        machine = XMTMachine(num_processors=128)
        assert (
            simulate(bsp.trace, machine).total_seconds
            > simulate(shm.trace, machine).total_seconds
        )

    def test_graphct_workflow_dispatch(self, two_cliques):
        from repro.graphct import GraphCT

        wf = GraphCT(two_cliques)
        res = wf.label_propagation_communities()
        assert res.num_communities == 2
