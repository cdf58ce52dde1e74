"""Frontier representation, receiver-filter BFS, and wire framing.

Three contracts from the frontier work:

* **Representation independence** — the sparse (arc-index), dense
  (boolean-mask) and complement (whole-arc slice less the quiet rows)
  arc selections are interchangeable at *every* superstep of *every*
  algorithm: forcing any of them, or switching between them on any
  schedule, yields results bit-identical to the reference engine
  (values, superstep counts, message counts, work traces), on the dense
  and sharded engines alike; a sender id outside ``[0, n)`` raises the
  same ``IndexError`` under every form.
* **Receiver-filter BFS** — the dense BFS never reads its inbox (it
  filters the engine's receiver set) yet matches the reference engine
  on directed and undirected inputs, and ``frontier_sizes`` reports the
  true per-level discoveries.
* **Wire framing** — the sharded engine's frames have the sizes
  ``repro.bsp._wire`` documents, ``pipe_bytes`` is exactly their sum
  over the exchanges a run made, and it does not grow with the graph.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp import (
    BSPEngine,
    DenseBSPEngine,
    DenseVertexProgram,
    FrontierPolicy,
    ShardedBSPEngine,
    SumAggregator,
)
from repro.bsp import _worker, parallel
from repro.bsp._scatter import arcs_from
from repro.bsp._wire import PackedWire, WireFormatError, make_wire
from repro.bsp.frontier import (
    COMPLEMENT,
    DENSE,
    SPARSE,
    arc_indices,
    select_arcs,
    selected_arc_count,
    source_values,
)
from repro.bsp_algorithms import (
    BSPBreadthFirstSearch,
    BSPConnectedComponents,
    BSPKCore,
    BSPPageRank,
    BSPShortestPaths,
    DenseBreadthFirstSearch,
    DenseConnectedComponents,
    DenseKCore,
    DensePageRank,
    DenseShortestPaths,
)
from repro.bsp_algorithms.bfs import UNREACHED
from repro.graph import CSRGraph, from_edge_list, path_graph, rmat, star_graph
from repro.graph.builder import from_edge_array
from repro.telemetry.core import Telemetry
from tests.test_dense_engine import assert_results_equal

WORKER_COUNTS = (1, 2, 4)


def reference_bfs(graph, source):
    """Reference-engine BFS with UNREACHED-normalized values."""
    ref = BSPEngine(graph).run(BSPBreadthFirstSearch(source))
    ref.values = [UNREACHED if v is None else v for v in ref.values]
    return ref


class ScheduledPolicy:
    """Frontier policy fixed by an explicit per-superstep schedule.

    Duck-types :class:`FrontierPolicy` — the engines only call
    ``choose`` — so tests can force any sparse/dense switch pattern.
    """

    def __init__(self, schedule, default=SPARSE):
        self.schedule = dict(schedule)
        self.default = default

    def choose(self, *, superstep, **_):
        return self.schedule.get(superstep, self.default)


# -- selection helpers -----------------------------------------------------


class TestSelection:
    def test_policy_validation(self):
        for mode in ("turbo", COMPLEMENT):  # complement is auto's alone
            with pytest.raises(ValueError, match="mode"):
                FrontierPolicy(mode=mode)
        with pytest.raises(ValueError, match="k"):
            FrontierPolicy(k=0)

    def test_policy_threshold(self):
        policy = FrontierPolicy(k=3)
        common = dict(superstep=1, frontier_size=4, num_vertices=100)
        assert (
            policy.choose(frontier_arcs=100, num_arcs=300, **common) == SPARSE
        )
        assert (
            policy.choose(frontier_arcs=101, num_arcs=300, **common) == DENSE
        )
        # The mirror rule: complement once the quiet vertices' arcs
        # (m less the frontier's) number at most m / k; a full flood too.
        assert policy.choose(frontier_arcs=199, num_arcs=300, **common) == DENSE
        for frontier_arcs in (200, 300):
            assert policy.choose(
                frontier_arcs=frontier_arcs, num_arcs=300, **common
            ) == COMPLEMENT

    def test_forced_modes_ignore_density(self):
        common = dict(
            superstep=1, frontier_size=4, num_vertices=10, num_arcs=30
        )
        sparse = FrontierPolicy(mode="sparse")
        dense = FrontierPolicy(mode="dense")
        assert sparse.choose(frontier_arcs=30, **common) == SPARSE
        assert dense.choose(frontier_arcs=0, **common) == DENSE
        assert dense.choose(frontier_arcs=30, **common) == DENSE

    @pytest.mark.parametrize(
        "make_graph",
        [lambda: rmat(scale=7, edge_factor=8, seed=3), lambda: star_graph(9)],
        ids=["rmat7", "star"],
    )
    def test_sparse_selects_same_arcs_as_mask(self, make_graph):
        g = make_graph()
        rng = np.random.default_rng(5)
        for size in (0, 1, g.num_vertices // 2, g.num_vertices):
            senders = np.sort(
                rng.choice(g.num_vertices, size=size, replace=False)
            ).astype(np.int64)
            mask = arcs_from(senders, g.row_ptr)
            idx = arc_indices(senders, g.row_ptr)
            assert np.array_equal(np.flatnonzero(mask), idx)
            dense = select_arcs(senders, g.row_ptr, DENSE)
            if mask.all():  # every arc: the slice stands in for the mask
                assert dense == slice(0, g.num_arcs)
            else:
                assert np.array_equal(dense, mask)
            assert np.array_equal(
                select_arcs(senders, g.row_ptr, SPARSE), idx
            )
            assert (
                selected_arc_count(mask)
                == selected_arc_count(idx)
                == selected_arc_count(dense)
            )
            # All representations index arc-parallel arrays identically.
            assert np.array_equal(g.col_idx[mask], g.col_idx[idx])
            assert np.array_equal(g.col_idx[dense], g.col_idx[idx])

    @given(st.lists(st.integers(min_value=0, max_value=23), max_size=30))
    def test_arc_indices_concatenates_the_senders_rows(self, senders):
        """Any sender order (the shard layout passes an owner-sorted
        one), zero-degree senders and the empty set included."""
        g = from_edge_list([(0, 1), (0, 5), (1, 5), (5, 9), (9, 20)], 24)
        senders = np.asarray(senders, dtype=np.int64)
        rows = [np.arange(g.row_ptr[v], g.row_ptr[v + 1]) for v in senders]
        expected = np.concatenate(rows + [np.empty(0, dtype=np.int64)])
        got = arc_indices(senders, g.row_ptr)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_full_flood_is_the_whole_arc_slice(self):
        """Every arc selected <=> the dense form is ``slice(0, m)``."""
        # Vertices 2 and 5 are isolated; 0 has out-arcs only.
        g = from_edge_list(
            [(0, 1), (0, 3), (1, 3), (3, 4), (4, 1)],
            num_vertices=6,
            directed=True,
            weights=[1.0, 2.0, 3.0, 4.0, 5.0],
        )
        everyone = np.arange(6, dtype=np.int64)
        with_out_arcs = np.flatnonzero(g.degrees()).astype(np.int64)
        assert with_out_arcs.tolist() == [0, 1, 3, 4]
        for senders in (everyone, with_out_arcs):
            full = select_arcs(senders, g.row_ptr, DENSE)
            assert full == slice(0, g.num_arcs)
            assert selected_arc_count(full) == g.num_arcs
            # Indexing with it copies nothing.
            for arc_array in (g.col_idx, g.weights, g.arc_sources()):
                assert np.shares_memory(arc_array[full], arc_array)
                assert np.array_equal(
                    arc_array[full],
                    arc_array[arc_indices(senders, g.row_ptr)],
                )
            # The form belongs to the dense mode only.
            forced = select_arcs(senders, g.row_ptr, SPARSE)
            assert isinstance(forced, np.ndarray)
            assert forced.tolist() == list(range(g.num_arcs))

    def test_proper_subset_is_never_the_slice(self):
        g = rmat(scale=6, edge_factor=8, seed=3)
        with_out_arcs = np.flatnonzero(g.degrees()).astype(np.int64)
        for drop in range(with_out_arcs.size):
            senders = np.delete(with_out_arcs, drop)
            selection = select_arcs(senders, g.row_ptr, DENSE)
            assert isinstance(selection, np.ndarray)
            assert selection.dtype == bool
            assert selected_arc_count(selection) < g.num_arcs


# -- run-length payloads -----------------------------------------------------


def gather_idiom(graph, per_vertex, selection):
    """What ``source_values`` must equal, bit for bit."""
    return per_vertex[graph.arc_sources()[selection]]


def shard_subgraph(graph, worker, num_workers):
    """Worker ``worker``'s sub-CSR under a hash partition, laid out as
    the sharded engine lays it out: global vertex ids, other workers'
    rows empty."""
    assignment = np.arange(graph.num_vertices) % num_workers
    order, row_ptr = parallel._shard_layout(graph, assignment, num_workers)
    lo = int(row_ptr[:worker, -1].sum())
    hi = lo + int(row_ptr[worker, -1])
    return CSRGraph(row_ptr[worker], graph.col_idx[order][lo:hi], directed=True)


@st.composite
def payload_graph(draw):
    """One graph from each family the payload expansion must survive."""
    family = draw(
        st.sampled_from(
            ["rmat", "directed-weighted", "isolated", "self-loops", "empty", "shard"]
        )
    )
    seed = draw(st.integers(min_value=0, max_value=7))
    rng = np.random.default_rng(seed)
    if family == "rmat":
        return rmat(scale=5, edge_factor=4, seed=seed)
    if family == "shard":
        num_workers = draw(st.sampled_from([2, 3]))
        worker = draw(st.integers(min_value=0, max_value=num_workers - 1))
        whole = rmat(scale=5, edge_factor=4, seed=seed)
        return shard_subgraph(whole, worker, num_workers)
    n = 24
    if family == "empty":
        return from_edge_list([], n)
    # "isolated": only the low half of the ids ever gets an arc.
    edges = rng.integers(0, n // 2 if family == "isolated" else n, size=(40, 2))
    if family == "self-loops":
        edges[::3, 1] = edges[::3, 0]
        return from_edge_array(edges, n, directed=True, remove_self_loops=False)
    if family == "directed-weighted":
        return from_edge_array(edges, n, directed=True, weights=rng.random(40))
    return from_edge_array(edges, n)


def per_vertex_array(n, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype is np.bool_:
        return rng.random(n) < 0.5
    if dtype is np.float64:
        return rng.random(n)
    return rng.integers(-(2**40), 2**40, size=n, dtype=np.int64)


class TestSourceValues:
    """``source_values`` == the gather idiom for every selection that
    :func:`select_arcs` can produce, with no m-long temporary."""

    @given(
        payload_graph(),
        st.data(),
        st.sampled_from([SPARSE, DENSE]),
        st.sampled_from([np.int64, np.float64, np.bool_]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_gather_idiom(self, g, data, mode, dtype):
        n = g.num_vertices
        # Any sender set, zero-degree vertices included; "everyone"
        # often enough that the slice form is exercised.
        if data.draw(st.booleans(), label="everyone"):
            senders = np.arange(n, dtype=np.int64)
        else:
            picked = data.draw(st.sets(st.integers(0, n - 1)), label="senders")
            senders = np.asarray(sorted(picked), dtype=np.int64)
        per_vertex = per_vertex_array(n, dtype, seed=n + senders.size)
        selection = select_arcs(senders, g.row_ptr, mode)
        got = source_values(g, per_vertex, selection)
        expected = gather_idiom(g, per_vertex, selection)
        assert got.dtype == expected.dtype == dtype
        assert np.array_equal(got, expected)
        assert got.size == selected_arc_count(selection)

    @pytest.mark.parametrize("form", ["full", "dense", "sparse"])
    def test_every_form_is_reached(self, form):
        g = rmat(scale=7, edge_factor=8, seed=3)
        senders = np.arange(0 if form == "full" else 1, g.num_vertices)
        mode = SPARSE if form == "sparse" else DENSE
        selection = select_arcs(senders, g.row_ptr, mode)
        assert isinstance(selection, slice) == (form == "full")
        if form != "full":
            assert (selection.dtype == bool) == (form == "dense")
        labels = np.arange(g.num_vertices, dtype=np.int64)[::-1].copy()
        assert np.array_equal(
            source_values(g, labels, selection), gather_idiom(g, labels, selection)
        )

    def test_a_dense_selection_is_whole_rows(self):
        """The invariant the mask branch rests on: ``arcs_from`` selects
        each row entirely or not at all."""
        g = rmat(scale=7, edge_factor=8, seed=3)
        rng = np.random.default_rng(11)
        for size in (1, 5, g.num_vertices // 2, g.num_vertices - 1):
            senders = np.sort(rng.choice(g.num_vertices, size=size, replace=False))
            mask = arcs_from(senders, g.row_ptr)
            nonempty = g.degrees() > 0
            per_row = np.add.reduceat(mask, g.row_ptr[:-1][nonempty])
            assert np.all((per_row == 0) | (per_row == g.degrees()[nonempty]))

    def test_a_mask_splitting_a_row_is_outside_the_contract(self):
        """Documented, not rejected: a row goes whole or not at all, by
        the mask's value at its first arc."""
        g = from_edge_list([(0, 1), (0, 2), (1, 2), (2, 0)], 3, directed=True)
        values = np.asarray([10, 20, 30], dtype=np.int64)
        first_arc_only = np.asarray([True, False, False, False])
        assert source_values(g, values, first_arc_only).tolist() == [10, 10]
        second_arc_only = np.asarray([False, True, False, False])
        assert source_values(g, values, second_arc_only).tolist() == []

    def test_mask_flood_builds_no_arc_long_temporary(self):
        """Structural pin, not a time: the payload of a mask flood is
        the only arc-sized allocation (the gather idiom peaks at 2.0x:
        the compressed ``arc_sources`` beside the result)."""
        g = rmat(scale=12, edge_factor=16, seed=1)
        senders = np.flatnonzero(np.arange(g.num_vertices) % 5 != 0)
        mask = select_arcs(senders, g.row_ptr, DENSE)
        assert mask.dtype == bool
        program = DenseConnectedComponents()
        values = program.initial_values(g)
        program.arc_payload(g, values, mask)  # warm the graph's caches
        tracemalloc.start()
        try:
            payload = program.arc_payload(g, values, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(payload, gather_idiom(g, values, mask))
        assert peak < 1.5 * payload.nbytes, peak / payload.nbytes


# -- representation independence -------------------------------------------


@pytest.fixture(scope="module")
def medium_graph():
    return rmat(scale=8, edge_factor=8, seed=7)


PROGRAMS = {
    "cc": (BSPConnectedComponents, DenseConnectedComponents, ()),
    "bfs": (BSPBreadthFirstSearch, DenseBreadthFirstSearch, (0,)),
    "sssp": (BSPShortestPaths, DenseShortestPaths, (0,)),
    "kcore": (BSPKCore, DenseKCore, (2,)),
}


class TestRepresentationIndependence:
    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_forced_mode_matches_reference(self, medium_graph, name, mode):
        make_ref, make_dense, args = PROGRAMS[name]
        ref = BSPEngine(medium_graph).run(make_ref(*args))
        if name == "bfs":
            ref.values = [UNREACHED if v is None else v for v in ref.values]
        forced = DenseBSPEngine(
            medium_graph, frontier_policy=FrontierPolicy(mode=mode)
        ).run(make_dense(*args))
        assert_results_equal(ref, forced)

    def test_switch_at_every_superstep(self, medium_graph, selection_forms):
        """Flipping sparse->dense at any superstep changes nothing —
        whether the dense supersteps include the all-arc flood of
        superstep 0 (the full form) or only masks."""
        ref = BSPEngine(medium_graph).run(BSPConnectedComponents())
        supersteps = ref.num_supersteps
        sending = sum(1 for sent in ref.messages_per_superstep if sent)
        for flip in range(supersteps + 1):
            policy = ScheduledPolicy(
                {s: DENSE for s in range(flip, supersteps + 1)}
            )
            del selection_forms[:]
            got = DenseBSPEngine(medium_graph, frontier_policy=policy).run(
                DenseConnectedComponents()
            )
            assert_results_equal(ref, got)
            assert len(selection_forms) == sending
            assert selection_forms[0] == ("full" if flip == 0 else "sparse")
            assert selection_forms[1:] == [
                "sparse" if s < flip else "dense" for s in range(1, sending)
            ]

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_sharded_forced_modes(self, medium_graph, num_workers):
        ref = BSPEngine(medium_graph).run(BSPConnectedComponents())
        for mode in ("sparse", "dense"):
            with ShardedBSPEngine(
                medium_graph,
                num_workers=num_workers,
                frontier_policy=FrontierPolicy(mode=mode),
            ) as engine:
                got = engine.run(DenseConnectedComponents())
            assert_results_equal(ref, got)


# -- receiver-filter BFS ---------------------------------------------------


DIRECTED_DIAMOND = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 5)]


class TestDenseBFS:
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: rmat(scale=8, edge_factor=8, seed=7),
            lambda: from_edge_list(
                DIRECTED_DIAMOND, num_vertices=7, directed=True
            ),
        ],
        ids=["undirected", "directed"],
    )
    def test_matches_reference(self, make_graph):
        g = make_graph()
        ref = reference_bfs(g, 0)
        got = DenseBSPEngine(g).run(DenseBreadthFirstSearch(0))
        assert_results_equal(ref, got)

    def test_frontier_sizes_report_true_discoveries(self, medium_graph):
        """``frontier_sizes`` equals the per-level discovery counts from
        the reference engine's distances — including no trailing zero
        for the final empty superstep."""
        ref = reference_bfs(medium_graph, 0)
        levels = np.asarray(
            [v for v in ref.values if v != UNREACHED], dtype=np.int64
        )
        truth = np.bincount(levels).tolist()
        program = DenseBreadthFirstSearch(0)
        DenseBSPEngine(medium_graph).run(program)
        assert program.frontier_sizes == truth

    def test_frontier_sizes_no_trailing_zero_on_path(self):
        g = path_graph(5)
        program = DenseBreadthFirstSearch(0)
        DenseBSPEngine(g).run(program)
        assert program.frontier_sizes == [1, 1, 1, 1, 1]


# -- property tests: random graphs x random schedules ----------------------


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    m = draw(st.integers(min_value=0, max_value=40))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m, max_size=m,
        )
    )
    return from_edge_list(edges, n)


class TestPropertySchedules:
    @given(random_graph(), st.integers(min_value=0, max_value=63))
    @settings(max_examples=60, deadline=None)
    def test_any_mode_schedule_matches_reference(self, g, schedule_bits):
        """Sparse/dense chosen per superstep by arbitrary bits: CC stays
        bit-identical to the reference engine."""
        ref = BSPEngine(g).run(BSPConnectedComponents())
        policy = ScheduledPolicy(
            {
                s: DENSE if (schedule_bits >> s) & 1 else SPARSE
                for s in range(ref.num_supersteps + 1)
            }
        )
        got = DenseBSPEngine(g, frontier_policy=policy).run(
            DenseConnectedComponents()
        )
        assert_results_equal(ref, got)


# -- the complement form ---------------------------------------------------

#: Every superstep a complement, whatever its flood (the auto rule takes
#: it only once the quiet vertices' arcs number at most m / k).
ALWAYS_COMPLEMENT = ScheduledPolicy({}, default=COMPLEMENT)

#: Complement floods that leave out most of the arcs (a tiny frontier:
#: BFS / SSSP from one vertex), none of them (CC's first superstep, every
#: PageRank superstep), zero-degree vertices' empty rows, and directed
#: and weighted arcs.
COMPLEMENT_GRAPHS = {
    "rmat8": lambda: rmat(scale=8, edge_factor=8, seed=7),
    "path": lambda: path_graph(12),
    "isolated": lambda: from_edge_list(
        [(0, 1), (2, 3), (3, 5), (5, 2)], num_vertices=9
    ),
    "directed": lambda: from_edge_list(
        DIRECTED_DIAMOND, num_vertices=7, directed=True
    ),
    "directed-weighted": lambda: from_edge_array(
        np.random.default_rng(4).integers(0, 40, size=(160, 2)),
        40,
        directed=True,
        weights=np.random.default_rng(5).random(160) + 0.25,
    ),
}


def reference_run(graph, name):
    make_ref, _, args = PROGRAMS[name]
    ref = BSPEngine(graph).run(make_ref(*args))
    if name == "bfs":
        ref.values = [UNREACHED if v is None else v for v in ref.values]
    return ref


class LightestInArc(DenseVertexProgram):
    """Flood from a source: a reached vertex sends once, and every vertex
    keeps the lightest arc weight it was sent.  The payload is a bare view
    of an arc array the engine does not own — the graph's read-only
    ``weights`` or (``kept``) a writable copy the program keeps between
    supersteps — so a complement's identity fill must copy it: written
    through, a left-out row would carry ``inf`` once its vertex sends."""

    combine = np.minimum
    combine_identity = np.inf
    message_dtype = np.float64

    def __init__(self, source, *, kept):
        self.source = source
        self.kept = kept
        self.lengths = None

    def initial_values(self, graph):
        return np.full(graph.num_vertices, np.inf)

    def arc_payload(self, graph, values, selection):
        if not self.kept:
            return graph.weights[selection]
        if self.lengths is None:
            self.lengths = np.array(graph.weights)  # owned, writable
        return self.lengths[selection]

    def compute(self, ctx):
        ctx.vote_to_halt()
        if ctx.superstep == 0:
            return np.asarray([self.source], dtype=np.int64)
        receivers, values = ctx.receivers, ctx.values
        reached = receivers[np.isinf(values[receivers])]
        values[receivers] = np.minimum(values[receivers], ctx.messages[receivers])
        return reached


class OutOfRangeSender(DenseConnectedComponents):
    """CC whose first superstep also names vertex ``bad`` as a sender."""

    def __init__(self, bad):
        self.bad = bad

    def compute(self, ctx):
        senders = super().compute(ctx)
        if ctx.superstep:
            return senders
        return np.unique(np.append(senders, self.bad))


class TestComplement:
    """The complement form — the whole-arc slice less the quiet vertices'
    rows — is one more interchangeable representation: forced at every
    superstep it equals the reference engine, its histogram and delivery
    count only the selected arcs, and its identity fill never writes
    through to arrays the engine does not own."""

    def test_left_out_arcs_are_the_quiet_rows(self):
        g = rmat(scale=7, edge_factor=8, seed=3)
        rng = np.random.default_rng(2)
        for size in (0, 1, g.num_vertices // 2, g.num_vertices):
            senders = np.sort(
                rng.choice(g.num_vertices, size=size, replace=False)
            ).astype(np.int64)
            quiet = g.degrees() > 0
            quiet[senders] = False
            left_out = arc_indices(np.flatnonzero(quiet), g.row_ptr)
            kept = np.setdiff1d(np.arange(g.num_arcs), left_out)
            assert np.array_equal(kept, arc_indices(senders, g.row_ptr))
            # The selection a program sees is the whole-arc slice.
            assert select_arcs(senders, g.row_ptr, COMPLEMENT) == slice(
                0, g.num_arcs
            )

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize("graph_name", sorted(COMPLEMENT_GRAPHS))
    def test_every_superstep_complement_matches_reference(
        self, graph_name, name, selection_forms
    ):
        g = COMPLEMENT_GRAPHS[graph_name]()
        ref = reference_run(g, name)
        _, make_dense, args = PROGRAMS[name]
        got = DenseBSPEngine(g, frontier_policy=ALWAYS_COMPLEMENT).run(
            make_dense(*args)
        )
        assert_results_equal(ref, got)
        assert set(selection_forms) <= {"complement", "full"}
        assert len(selection_forms) == sum(
            1 for sent in ref.messages_per_superstep if sent
        )

    def test_forms_reached(self, medium_graph, selection_forms):
        """A one-vertex frontier leaves out almost every arc; CC's first
        flood leaves out none (the full slice)."""
        policy = ALWAYS_COMPLEMENT
        DenseBSPEngine(medium_graph, frontier_policy=policy).run(
            DenseBreadthFirstSearch(0)
        )
        assert selection_forms[0] == "complement"
        del selection_forms[:]
        DenseBSPEngine(medium_graph, frontier_policy=policy).run(
            DenseConnectedComponents()
        )
        assert selection_forms[0] == "full"
        assert "complement" in selection_forms[1:]

    def test_auto_policy_takes_the_complement(self, medium_graph, selection_forms):
        """CC's second superstep floods nearly every arc: the default
        policy takes the complement there, and the result is unchanged."""
        ref = reference_run(medium_graph, "cc")
        got = DenseBSPEngine(medium_graph).run(DenseConnectedComponents())
        assert_results_equal(ref, got)
        assert selection_forms[:2] == ["full", "complement"]

    def test_pagerank_is_bit_identical(self):
        """Float sums: folding ``0.0`` at left-out arcs changes no bit."""
        g = rmat(scale=8, edge_factor=8, seed=7)
        aggs = lambda: {"dangling": SumAggregator()}  # noqa: E731
        ref = BSPEngine(g, aggregators=aggs()).run(BSPPageRank(num_supersteps=6))
        mask = DenseBSPEngine(
            g, aggregators=aggs(), frontier_policy=FrontierPolicy(mode="dense")
        ).run(DensePageRank(num_supersteps=6))
        got = DenseBSPEngine(
            g, aggregators=aggs(), frontier_policy=ALWAYS_COMPLEMENT
        ).run(DensePageRank(num_supersteps=6))
        assert_results_equal(ref, got, float_values=True)
        assert np.array_equal(mask.values, got.values)

    @given(random_graph(), st.integers(min_value=0, max_value=3**6 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_three_form_schedule_matches_reference(self, g, schedule):
        """Sparse / mask / complement chosen per superstep by arbitrary
        digits: CC and k-core stay bit-identical to the reference."""
        forms = (SPARSE, DENSE, COMPLEMENT)
        policy = ScheduledPolicy(
            {s: forms[(schedule // 3**s) % 3] for s in range(6)}
        )
        for name in ("cc", "kcore"):
            _, make_dense, args = PROGRAMS[name]
            got = DenseBSPEngine(g, frontier_policy=policy).run(
                make_dense(*args)
            )
            assert_results_equal(reference_run(g, name), got)

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("partition", ["hash", "balanced-edge"])
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    def test_sharded_every_superstep_complement(self, num_workers, partition):
        for graph_name in ("rmat8", "isolated", "directed-weighted"):
            g = COMPLEMENT_GRAPHS[graph_name]()
            with ShardedBSPEngine(
                g,
                num_workers=num_workers,
                partition=partition,
                frontier_policy=ALWAYS_COMPLEMENT,
            ) as engine:
                for name in sorted(PROGRAMS):
                    _, make_dense, args = PROGRAMS[name]
                    got = engine.run(make_dense(*args))
                    assert_results_equal(reference_run(g, name), got)

    @pytest.mark.parametrize("name", ["rmat7", "isolated"])
    def test_worker_complement_counts_selected_arcs(self, name):
        """A worker's complement scatter: the whole shard as the
        selection, its quiet rows left out of the histogram and of the
        arc count it replies."""
        g = (
            rmat(scale=7, edge_factor=8, seed=3)
            if name == "rmat7"
            else COMPLEMENT_GRAPHS["isolated"]()
        )
        rng = np.random.default_rng(8)
        with ShardedBSPEngine(g, num_workers=2) as engine:
            marked = engine._senders
            hist = engine._pool.arrays["hist"]
            for w in range(2):
                shard = _worker._Shard(dict(engine._pool.spec, worker_index=w))
                sub = shard.graph
                try:
                    for density in (0.0, 0.3, 0.9, 1.0):
                        marked[:] = rng.random(g.num_vertices) < density
                        senders = np.flatnonzero(marked & (sub.degrees() > 0))
                        chosen = arc_indices(senders, sub.row_ptr)
                        assert shard.scatter(1, COMPLEMENT) == chosen.size
                        assert shard.sel == slice(0, sub.num_arcs)
                        assert np.array_equal(
                            hist[w],
                            np.bincount(
                                sub.col_idx[chosen], minlength=g.num_vertices
                            ),
                        )
                finally:
                    shard.close()

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("kept", [False, True], ids=["graph", "kept"])
    @pytest.mark.parametrize("engine_name", ["dense", "sharded"])
    def test_payload_is_not_written_through(self, engine_name, kept):
        """An unowned payload is copied before the identity fill, and
        ``bytes_delivered`` counts the selected arcs, not ``m``: both
        equal to a forced-mask run, superstep by superstep."""
        g = COMPLEMENT_GRAPHS["directed-weighted"]()
        weights = g.weights.copy()

        def run(policy):
            tel = Telemetry("t")
            if engine_name == "dense":
                engine = DenseBSPEngine(g, frontier_policy=policy, telemetry=tel)
            else:
                engine = ShardedBSPEngine(
                    g, num_workers=2, frontier_policy=policy, telemetry=tel
                )
            with engine:
                program = LightestInArc(0, kept=kept)
                result = engine.run(program)
            delivered = [
                (c.superstep, c.value)
                for c in tel.counters
                if c.name == "bytes_delivered"
            ]
            return result, delivered, program

        mask, mask_bytes, _ = run(FrontierPolicy(mode="dense"))
        got, got_bytes, program = run(ALWAYS_COMPLEMENT)
        assert_results_equal(mask, got)
        assert np.isfinite(got.values).sum() > 1
        assert got_bytes == mask_bytes and got_bytes
        assert sum(v for _, v in got_bytes) < len(got_bytes) * g.num_arcs * 8
        assert np.array_equal(g.weights, weights)
        if kept and engine_name == "dense":
            assert np.array_equal(program.lengths, weights)


class TestSenderRange:
    """A sender id outside ``[0, n)`` is an ``IndexError`` in every form
    and on both engines — not a flood from vertex ``n - 1`` (mask,
    bitmap) or numpy's "negative dimensions" (sparse)."""

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("engine_name", ["dense", "sharded"])
    @pytest.mark.parametrize(
        "policy",
        [FrontierPolicy(mode="sparse"), FrontierPolicy(mode="dense"),
         ALWAYS_COMPLEMENT, FrontierPolicy()],
        ids=["sparse", "dense", "complement", "auto"],
    )
    def test_out_of_range_sender_raises(self, medium_graph, policy, engine_name):
        n = medium_graph.num_vertices
        if engine_name == "dense":
            engine = DenseBSPEngine(medium_graph, frontier_policy=policy)
        else:
            engine = ShardedBSPEngine(
                medium_graph, num_workers=2, frontier_policy=policy
            )
        with engine:
            for bad in (-1, n, -n - 1):
                with pytest.raises(IndexError, match="sender vertex out of range"):
                    engine.run(OutOfRangeSender(bad))
            # The engine is still good for the next run.
            got = engine.run(DenseConnectedComponents())
        assert_results_equal(reference_run(medium_graph, "cc"), got)


# -- telemetry counters ----------------------------------------------------


class TestFrontierTelemetry:
    def test_dense_bfs_counters(self, medium_graph):
        tel = Telemetry("t")
        DenseBSPEngine(medium_graph, telemetry=tel).run(
            DenseBreadthFirstSearch(0)
        )
        modes = [c for c in tel.counters if c.name == "frontier_mode"]
        assert modes and all(c.value in (0, 1) for c in modes)
        # The apex superstep floods most of the graph: dense must appear.
        assert any(c.value == 1 for c in modes)
        assert all(c.superstep >= 0 for c in modes)

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_sharded_pipe_byte_counters(self, medium_graph):
        """Every exchanging superstep records its bytes, and a traced
        run ships exactly the bytes an untraced one does."""
        tel = Telemetry("t")
        with ShardedBSPEngine(
            medium_graph, num_workers=2, telemetry=tel
        ) as engine:
            engine.run(DenseConnectedComponents())
            traced = engine.pipe_bytes
        with ShardedBSPEngine(medium_graph, num_workers=2) as engine:
            engine.run(DenseConnectedComponents())
            assert engine.pipe_bytes == traced
        counted = [c for c in tel.counters if c.name == "pipe_bytes"]
        assert len(counted) == len(tel.spans_named("barrier"))
        assert all(c.value > 0 and c.superstep >= 0 for c in counted)
        assert 0 < sum(c.value for c in counted) < traced  # + run frames
        assert "pipe_bytes_legacy" not in {c.name for c in tel.counters}


# -- wire framing ----------------------------------------------------------

#: An ("ok", arcs, busy_ns, peak_rss) reply: scatter, gather and deliver
#: tasks.
TASK_REPLY_BYTES = 2 + 8 * 3


def frame_bytes(msg):
    """Bytes ``msg`` puts on a pipe, as ``PackedWire.send`` reports them."""

    class Sink:
        def send_bytes(self, frame):
            self.size = len(frame)

    sink = Sink()
    assert PackedWire().send(sink, msg) == sink.size
    return sink.size


class TestWireFraming:
    def test_invalid_wire_rejected(self):
        """One wire format: the codec factory knows no other name, and
        the engine has no parameter to ask for one."""
        assert isinstance(make_wire("packed"), PackedWire)
        for name in ("telegraph", "pickle"):
            with pytest.raises(ValueError, match="wire"):
                make_wire(name)
        with pytest.raises(TypeError, match="wire"):
            ShardedBSPEngine(star_graph(4), num_workers=2, wire="packed")

    @pytest.mark.parametrize("k", [0, 1, 7, 4096])
    def test_frame_sizes_are_pinned(self, k):
        senders = np.arange(k, dtype=np.int64)
        for cmd, mode in (
            ("scatter", SPARSE), ("gather", DENSE), ("scatter", COMPLEMENT)
        ):
            assert frame_bytes((cmd, 3, senders, mode)) == 18 + 8 * k
        assert frame_bytes(("ok", *range(k % 256))) == 2 + 8 * (k % 256)
        assert frame_bytes(("ok", 5, 10**9, 2**40)) == TASK_REPLY_BYTES
        assert frame_bytes(("close",)) == 1
        assert frame_bytes(("error", "é" * k)) == 1 + 2 * k

    def test_mode_codes_round_trip(self):
        """Each frontier mode has its one-byte code (complement is 2);
        any other code is a protocol error, not a guess."""
        wire = PackedWire()
        empty = np.empty(0, dtype=np.int64)
        for code, mode in enumerate((SPARSE, DENSE, COMPLEMENT)):
            frame = wire._encode(("scatter", 7, empty, mode))
            assert len(frame) == 18 and frame[9] == code
            assert wire._decode(frame)[::3] == ("scatter", mode)
        unknown = bytearray(wire._encode(("gather", 7, empty, COMPLEMENT)))
        unknown[9] = 3
        with pytest.raises(WireFormatError, match="frontier-mode code 0x3"):
            wire._decode(bytes(unknown))

    @pytest.mark.parametrize(
        "make_program",
        [
            lambda: DenseConnectedComponents(),
            lambda: DenseBreadthFirstSearch(0),
        ],
        ids=["cc", "bfs"],
    )
    def test_pipe_bytes_are_the_sum_of_the_frames(
        self, medium_graph, make_program, monkeypatch
    ):
        """``pipe_bytes`` after one fanned-out run: the run frames, and
        per recorded barrier one task frame and one reply per
        participant.  Neither frame carries sender ids (a scatter's
        senders are in the shared bitmap), so every one is 18 bytes
        however many of the shard's vertices send."""
        dense = DenseBSPEngine(medium_graph).run(make_program())
        tel = Telemetry("pins")
        with ShardedBSPEngine(medium_graph, num_workers=2) as engine:
            # A run kept in the parent exchanges its run frames only.
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", 1 << 40)
            engine.run(make_program())
            run_frames = engine.pipe_bytes
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", 0)
            engine.telemetry = tel
            sharded = engine.run(make_program())
            fanned_out = engine.pipe_bytes - run_frames
        assert_results_equal(dense, sharded)
        senders = {}  # superstep -> sender count of each worker's shard
        for c in tel.counters:
            if c.name == "shard_senders":
                senders.setdefault(c.superstep, []).append(c.value)
        expected = run_frames
        barriers = tel.spans_named("barrier")
        for span in barriers:
            if span.args["phase"] == "scatter":
                shards = [k for k in senders[span.superstep] if k]
                assert len(shards) == span.args["workers"]
            expected += span.args["workers"] * (18 + TASK_REPLY_BYTES)
        assert barriers and fanned_out == expected

    def test_deliver_frame_is_18_bytes_and_counts_into_pipe_bytes(
        self, monkeypatch
    ):
        """A deliver frame has the scatter/gather header and no ids; a
        fanned-out PageRank run, whose every round floods every arc,
        exchanges nothing else: one deliver and one reply per worker per
        round."""
        wire = PackedWire()
        empty = np.empty(0, dtype=np.int64)
        for code, mode in enumerate((SPARSE, DENSE, COMPLEMENT)):
            msg = ("deliver", 9, empty, mode)
            frame = wire._encode(msg)
            assert frame_bytes(msg) == len(frame) == 18
            assert frame[0] == 0x05 and frame[9] == code
            cmd, generation, senders, decoded = wire._decode(frame)
            assert (cmd, generation, decoded) == ("deliver", 9, mode)
            assert senders.size == 0
        assert frame_bytes(("deliver", 9, np.arange(7), SPARSE)) == 18 + 56
        graph = rmat(scale=8, edge_factor=8, seed=7)
        tel = Telemetry("deliver")
        with ShardedBSPEngine(
            graph, num_workers=2, aggregators={"dangling": SumAggregator()}
        ) as engine:
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", 1 << 40)
            engine.run(DensePageRank(num_supersteps=4))
            run_frames = engine.pipe_bytes
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", 0)
            engine.telemetry = tel
            engine.run(DensePageRank(num_supersteps=4))
            fanned_out = engine.pipe_bytes - run_frames
        barriers = tel.spans_named("barrier")
        assert [(s.args["phase"], s.superstep) for s in barriers] == [
            ("gather", s) for s in range(1, 5)
        ]
        per_round = 2 * (18 + TASK_REPLY_BYTES)
        assert fanned_out == run_frames + 4 * per_round
        assert sum(
            c.value for c in tel.counters if c.name == "pipe_bytes"
        ) == 4 * per_round

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_pipe_bytes_are_independent_of_scale(self):
        """Frames carry no vertex ids, so a fanned-out PageRank run puts
        the same bytes on the pipes at 4x the vertices: a count, not a
        timing."""
        totals = []
        for scale in (8, 10):
            graph = rmat(scale=scale, edge_factor=8, seed=7)
            with ShardedBSPEngine(
                graph,
                num_workers=2,
                aggregators={"dangling": SumAggregator()},
            ) as engine:
                result = engine.run(DensePageRank(num_supersteps=8))
                totals.append((result.num_supersteps, engine.pipe_bytes))
        assert totals[0] == totals[1]
