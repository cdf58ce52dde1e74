"""Tests for the Graph500 harness and its BFS result validator."""

import numpy as np
import pytest

from repro.analysis.graph500 import (
    BFSValidationError,
    run_graph500,
    validate_bfs_result,
)
from repro.graph import from_edge_list, path_graph
from repro.graphct import breadth_first_search


class TestBFSValidation:
    def test_valid_result_passes(self, small_rmat):
        src = int(np.flatnonzero(small_rmat.degrees() > 0)[0])
        res = breadth_first_search(small_rmat, src)
        validate_bfs_result(small_rmat, res)  # must not raise

    def test_corrupted_depth_detected(self, small_rmat):
        src = int(np.flatnonzero(small_rmat.degrees() > 0)[0])
        res = breadth_first_search(small_rmat, src)
        reached = np.flatnonzero(res.distances > 0)
        bad = res.distances.copy()
        bad[reached[0]] += 1
        res.distances = bad
        with pytest.raises(BFSValidationError):
            validate_bfs_result(small_rmat, res)

    def test_corrupted_parent_detected(self, small_rmat):
        src = int(np.flatnonzero(small_rmat.degrees() > 0)[0])
        res = breadth_first_search(small_rmat, src)
        reached = np.flatnonzero(res.distances > 1)
        bad = res.parents.copy()
        # Point a depth-2+ vertex at the root: depth rule breaks unless
        # they happen to be adjacent at depth 1 (excluded by selection).
        bad[reached[0]] = src
        res.parents = bad
        with pytest.raises(BFSValidationError):
            validate_bfs_result(small_rmat, res)

    def test_boundary_crossing_detected(self):
        g = from_edge_list([(0, 1), (1, 2)])
        res = breadth_first_search(g, 0)
        res.distances = np.array([0, 1, -1])  # 2 reachable but unmarked
        res.parents = np.array([-1, 0, -1])
        with pytest.raises(BFSValidationError, match="boundary"):
            validate_bfs_result(g, res)

    def test_parent_on_unreached_detected(self):
        g = from_edge_list([(0, 1), (2, 3)])
        res = breadth_first_search(g, 0)
        res.parents = res.parents.copy()
        res.parents[3] = 2
        with pytest.raises(BFSValidationError, match="unreached"):
            validate_bfs_result(g, res)

    def test_root_rules(self):
        g = path_graph(3)
        res = breadth_first_search(g, 0)
        res.parents = res.parents.copy()
        res.parents[0] = 1
        with pytest.raises(BFSValidationError, match="root"):
            validate_bfs_result(g, res)


class TestGraph500Harness:
    def test_run_and_score(self):
        res = run_graph500(scale=9, num_searches=4, seed=1)
        assert res.num_searches == 4
        assert len(res.teps["graphct"]) == 4
        assert len(res.edges_traversed) == 4
        # The shared-memory model posts higher TEPS (paper Table I),
        # within the paper's factor-of-~10 band.
        ratio = res.harmonic_mean_teps("graphct") / res.harmonic_mean_teps(
            "bsp"
        )
        assert 1.5 <= ratio <= 20.0

    def test_validates_every_search(self):
        # Would raise BFSValidationError if any search were invalid.
        run_graph500(scale=8, num_searches=2, seed=3)

    def test_num_searches_validated(self):
        with pytest.raises(ValueError):
            run_graph500(scale=8, num_searches=0)
