"""Unit tests for graph construction and normalization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, GraphBuilder, from_edge_array, from_edge_list
from repro.graph.builder import _as_edge_array
from repro.graph.csr import OFFSET_DTYPE, VERTEX_DTYPE
from repro.graph.generators import RMATParameters, rmat, rmat_edges
from repro.graph.properties import is_symmetric


# -- retired forms, kept as oracles -----------------------------------------


def lexsort_from_edge_array(
    edges,
    num_vertices=None,
    *,
    weights=None,
    directed=False,
    remove_self_loops=True,
    deduplicate=True,
):
    """The two-key ``lexsort`` builder the one-key sort replaced."""
    edges = _as_edge_array(edges)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (edges.shape[0],):
            raise ValueError("weights must have one entry per input edge")

    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 0
    if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
        raise ValueError("edge endpoints out of range for num_vertices")

    src = edges[:, 0]
    dst = edges[:, 1]

    if remove_self_loops and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]

    if not directed and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weights is not None:
            weights = np.concatenate([weights, weights])

    # Sort arcs by (src, dst); this both groups adjacency lists and sorts
    # them, so sorted_adjacency holds for free.
    if src.size:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if weights is not None:
            weights = weights[order]
        if deduplicate:
            uniq = np.empty(src.size, dtype=bool)
            uniq[0] = True
            np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=uniq[1:])
            src, dst = src[uniq], dst[uniq]
            if weights is not None:
                weights = weights[uniq]

    row_ptr = np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE)
    if src.size:
        row_ptr[1:] = np.bincount(src, minlength=num_vertices)
    np.cumsum(row_ptr, out=row_ptr)

    return CSRGraph(
        row_ptr=row_ptr,
        col_idx=dst,
        weights=weights,
        directed=directed,
        sorted_adjacency=True,
    )


def int64_rmat_edges(params, seed=1):
    """The RMAT loop that accumulated endpoint bits in int64."""
    rng = np.random.default_rng(seed)
    m = params.num_edge_pairs
    src = np.zeros(m, dtype=VERTEX_DTYPE)
    dst = np.zeros(m, dtype=VERTEX_DTYPE)
    ab = params.a + params.b
    a_frac = params.a / ab if ab > 0 else 0.0
    cd = params.c + params.d
    c_frac = params.c / cd if cd > 0 else 0.0
    for _ in range(params.scale):
        r_row = rng.random(m)
        r_col = rng.random(m)
        row_bit = r_row >= ab
        col_threshold = np.where(row_bit, c_frac, a_frac)
        col_bit = r_col >= col_threshold
        src = (src << 1) | row_bit
        dst = (dst << 1) | col_bit
    return np.column_stack([src, dst])


def lexsort_reverse(g):
    sources = g.arc_sources()
    order = np.lexsort((sources, g.col_idx))
    new_ptr = np.zeros(g.num_vertices + 1, dtype=OFFSET_DTYPE)
    np.cumsum(g.in_degrees(), out=new_ptr[1:])
    return CSRGraph(
        row_ptr=new_ptr,
        col_idx=sources[order],
        weights=g.weights[order] if g.weights is not None else None,
        directed=True,
        sorted_adjacency=True,
    )


def lexsort_is_symmetric(g):
    src = g.arc_sources()
    dst = g.col_idx
    forward = np.lexsort((dst, src))
    backward = np.lexsort((src, dst))
    return bool(
        np.array_equal(src[forward], dst[backward])
        and np.array_equal(dst[forward], src[backward])
    )


def assert_same_csr(got, expected):
    assert np.array_equal(got.row_ptr, expected.row_ptr)
    assert np.array_equal(got.col_idx, expected.col_idx)
    assert (got.weights is None) == (expected.weights is None)
    if got.weights is not None:
        assert np.array_equal(got.weights, expected.weights)
    assert got.directed == expected.directed
    assert got.sorted_adjacency == expected.sorted_adjacency
    assert got.fingerprint() == expected.fingerprint()


@st.composite
def edge_input(draw):
    """An edge array over few ids (duplicates and loops are common), with
    conflicting weights on duplicates, an optional declared vertex count
    (isolated trailing vertices) and every normalization switch."""
    n = draw(st.sampled_from([0, 1, 2, 5, 12]))
    m = 0 if n == 0 else draw(st.integers(min_value=0, max_value=40))
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    edges = np.asarray(
        draw(st.lists(st.tuples(ids, ids), min_size=m, max_size=m)),
        dtype=np.int64,
    ).reshape(m, 2)
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 7.0]), min_size=m, max_size=m))
        )
    declared = draw(st.sampled_from([None, "exact", "trailing"]))
    if declared is None and m == 0:
        declared = "exact"
    num_vertices = {None: None, "exact": n, "trailing": n + 3}[declared]
    kwargs = dict(
        weights=weights,
        directed=draw(st.booleans()),
        remove_self_loops=draw(st.booleans()),
        deduplicate=draw(st.booleans()),
    )
    return edges, num_vertices, kwargs


@st.composite
def directed_multigraph(draw):
    """A directed weighted CSR with parallel arcs and unsorted rows."""
    n = draw(st.integers(min_value=1, max_value=8))
    degrees = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    row_ptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    m = int(row_ptr[-1])
    col_idx = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=m, max_size=m))
    return CSRGraph(
        row_ptr=row_ptr,
        col_idx=np.asarray(col_idx, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
        directed=True,
        sorted_adjacency=False,
    )


class TestIngestEquivalence:
    """The one-key sort builds exactly the CSR the ``lexsort`` forms built."""

    @given(edge_input())
    @example((np.empty((0, 2), dtype=np.int64), 0, {}))
    @example((np.empty((0, 2), dtype=np.int64), 4, {"directed": True}))
    @example(
        (
            np.asarray([[0, 0], [0, 0]]),
            1,
            {"weights": np.asarray([2.0, 1.0]), "remove_self_loops": False},
        )
    )
    @example(
        (np.asarray([[1, 0], [0, 1], [1, 0]]), 6, {"weights": np.asarray([3.0, 2.0, 1.0])})
    )
    @settings(max_examples=400, deadline=None)
    def test_builder_equals_lexsort_builder(self, case):
        edges, num_vertices, kwargs = case
        assert_same_csr(
            from_edge_array(edges, num_vertices, **kwargs),
            lexsort_from_edge_array(edges, num_vertices, **kwargs),
        )

    @pytest.mark.parametrize("scale", [0, 1, 8, 16, 17])
    def test_rmat_edges_equal_the_int64_loop(self, scale):
        """Scales 8 / 16 / 17 are the last uint8, last uint16 and first
        uint32 accumulator; 0 and 1 are the degenerate ends."""
        params = RMATParameters(scale=scale, edge_factor=1 if scale > 8 else 16)
        got = rmat_edges(params, seed=scale + 1)
        assert got.dtype == np.int64
        assert np.array_equal(got, int64_rmat_edges(params, seed=scale + 1))

    @given(directed_multigraph())
    @settings(max_examples=200, deadline=None)
    def test_reverse_equals_lexsort_reverse(self, g):
        assert_same_csr(g.reverse(), lexsort_reverse(g))

    @given(directed_multigraph())
    @settings(max_examples=200, deadline=None)
    def test_is_symmetric_equals_lexsort_form(self, g):
        assert is_symmetric(g) == lexsort_is_symmetric(g)
        # The same arcs plus their transposes: symmetric, parallel arcs
        # and all.
        arcs = np.column_stack([g.arc_sources(), g.col_idx])
        closed = from_edge_array(
            np.concatenate([arcs, arcs[:, ::-1]]),
            g.num_vertices,
            directed=True,
            remove_self_loops=False,
            deduplicate=False,
        )
        assert is_symmetric(closed) and lexsort_is_symmetric(closed)

    def test_is_symmetric_counts_parallel_arcs(self):
        """A multiset comparison: two 0→1 arcs need two 1→0 arcs."""
        edges = np.asarray([[0, 1], [0, 1], [1, 0]])
        g = from_edge_array(edges, 2, directed=True, deduplicate=False)
        assert not is_symmetric(g) and not lexsort_is_symmetric(g)
        edges = np.asarray([[0, 1], [0, 1], [1, 0], [1, 0]])
        g = from_edge_array(edges, 2, directed=True, deduplicate=False)
        assert is_symmetric(g) and lexsort_is_symmetric(g)


class TestIngestPins:
    """Counts and bits, not times: the graphs the experiments read keep
    their fingerprints, and the builder's transient memory stays bounded."""

    @pytest.mark.parametrize(
        "scale, seed, fingerprint",
        [
            (15, 1, "dc79e1bf1f374ae6397f9fbe865945831bb3304b558c1cda3a5ce548c3b28d74"),
            (10, 1, "089a89a055fa41a783e1299e0710461f00990f0d739a0f3dede842914a513651"),
            (10, 2, "d7c7b6fa5abbae61c519f4cf430d04c2866ee47c107fadedf006d31116d9a137"),
        ],
        ids=["scale15-seed1", "scale10-seed1", "scale10-seed2"],
    )
    def test_rmat_fingerprint(self, scale, seed, fingerprint):
        assert rmat(scale, 16, seed=seed).fingerprint() == fingerprint

    def test_builder_peak_memory(self):
        """One int64 key per arc, sorted in place: the peak stays below 4x
        the input edge array (the ``lexsort`` builder peaked at 5.05x)."""
        params = RMATParameters(scale=12, edge_factor=16)
        edges = rmat_edges(params, seed=1)
        tracemalloc.start()
        try:
            from_edge_array(edges, params.num_vertices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * edges.nbytes, peak / edges.nbytes

    def test_vertex_count_overflowing_the_key_is_rejected_before_allocating(self):
        assert 3_037_000_499**2 < 2**63 <= 3_037_000_500**2
        edges = np.asarray([[0, 1], [1, 2]])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="overflow int64"):
                from_edge_array(edges, 3_037_000_500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak


class TestNormalization:
    def test_self_loops_removed(self):
        g = from_edge_list([(0, 0), (0, 1), (1, 1)])
        assert sorted(g.edges()) == [(0, 1)]

    def test_self_loops_kept_when_disabled(self):
        g = from_edge_list([(0, 0), (0, 1)], remove_self_loops=False)
        assert (0, 0) in list(g.edges())

    def test_duplicates_removed(self):
        g = from_edge_list([(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_duplicates_kept_when_disabled(self):
        g = from_edge_list([(0, 1), (0, 1)], deduplicate=False, directed=True)
        assert g.num_arcs == 2

    def test_undirected_symmetrized(self):
        g = from_edge_list([(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_directed_not_symmetrized(self):
        g = from_edge_list([(0, 1)], directed=True)
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_adjacency_sorted(self):
        g = from_edge_list([(0, 5), (0, 2), (0, 9), (0, 1)], num_vertices=10)
        assert g.neighbors(0).tolist() == [1, 2, 5, 9]

    def test_isolated_vertices_via_num_vertices(self):
        g = from_edge_list([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list([(0, 7)], num_vertices=3)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list([(-1, 0)], num_vertices=3)

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_zero_vertex_graph(self):
        g = from_edge_list([])
        assert g.num_vertices == 0

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            from_edge_array(np.array([[0, 1, 2]]))


class TestWeightedConstruction:
    def test_weights_follow_symmetrization(self):
        g = from_edge_list([(0, 1), (1, 2)], weights=[3.0, 4.0])
        assert g.edge_weights(0).tolist() == [3.0]
        assert sorted(g.edge_weights(1).tolist()) == [3.0, 4.0]

    def test_weight_length_checked(self):
        with pytest.raises(ValueError, match="one entry per"):
            from_edge_list([(0, 1)], weights=[1.0, 2.0])

    def test_duplicate_weight_keeps_first_sorted(self):
        g = from_edge_list(
            [(0, 1), (0, 1)], weights=[9.0, 9.0], directed=True
        )
        assert g.edge_weights(0).tolist() == [9.0]


class TestGraphBuilder:
    def test_incremental_batches(self):
        b = GraphBuilder(num_vertices=4)
        b.add_edge(0, 1)
        b.add_edges([(1, 2), (2, 3)])
        g = b.build()
        assert g.num_edges == 3
        assert b.num_buffered_edges == 3

    def test_empty_build(self):
        g = GraphBuilder(num_vertices=2).build()
        assert g.num_vertices == 2 and g.num_edges == 0

    def test_weighted_batches(self):
        b = GraphBuilder(num_vertices=3)
        b.add_edges([(0, 1)], weights=[1.5])
        b.add_edge(1, 2, weight=2.5)
        g = b.build()
        assert g.is_weighted
        assert g.edge_weights(2).tolist() == [2.5]

    def test_mixed_weighting_rejected(self):
        b = GraphBuilder()
        b.add_edges([(0, 1)])
        with pytest.raises(ValueError, match="mix"):
            b.add_edges([(1, 2)], weights=[1.0])

    def test_weight_length_validated(self):
        b = GraphBuilder()
        with pytest.raises(ValueError, match="one entry per edge"):
            b.add_edges([(0, 1), (1, 2)], weights=[1.0])

    def test_directed_builder(self):
        b = GraphBuilder(directed=True)
        b.add_edges([(0, 1), (1, 0)])
        g = b.build()
        assert g.num_arcs == 2 and g.directed

    def test_builder_reusable_after_build(self):
        b = GraphBuilder(num_vertices=3)
        b.add_edges([(0, 1)])
        g1 = b.build()
        b.add_edges([(1, 2)])
        g2 = b.build()
        assert g1.num_edges == 1
        assert g2.num_edges == 2
