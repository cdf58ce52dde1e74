"""Equivalence suite: the dense engine against the reference engine.

The contract under test: for each algorithm's twin programs, running the
:class:`~repro.bsp.dense.DenseVertexProgram` on the
:class:`~repro.bsp.dense.DenseBSPEngine` produces the *same*
:class:`~repro.bsp.engine.BSPResult` as running the per-vertex
:class:`~repro.bsp.vertex.VertexProgram` on the reference engine —
identical values, superstep counts, per-superstep active/message counts,
and work-trace regions.  Plus the dense engine's own mechanics:
checkpoint/resume, aggregators, initial activation, and validation.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp import (
    BSPEngine,
    CheckpointStore,
    DenseBSPEngine,
    DenseVertexProgram,
    FrontierPolicy,
    ShardedBSPEngine,
    SumAggregator,
    VertexProgram,
    load_checkpoint,
    save_checkpoint,
)
from repro.bsp.dense import _compute_set
from repro.bsp.frontier import select_arcs
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
from repro.graph import from_edge_list, path_graph, ring_graph, rmat, star_graph

# -- graph cases -----------------------------------------------------------

GRAPHS = {
    "path": lambda: path_graph(9),
    "ring": lambda: ring_graph(12),
    "star": lambda: star_graph(8),
    "isolated": lambda: from_edge_list([(0, 1), (2, 3)], num_vertices=7),
    "self_loops": lambda: from_edge_list(
        [(0, 0), (0, 1), (1, 2), (2, 2), (3, 3)],
        num_vertices=5,
        remove_self_loops=False,
    ),
    "rmat6": lambda: rmat(scale=6, edge_factor=8, seed=3),
    "rmat8": lambda: rmat(scale=8, edge_factor=8, seed=7),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def graph(request):
    return GRAPHS[request.param]()


def assert_traces_equal(ref, dense):
    """Region-by-region work-trace identity."""
    assert len(ref.trace) == len(dense.trace)
    for a, b in zip(ref.trace, dense.trace):
        for f in dataclasses.fields(a):
            assert getattr(a, f.name) == pytest.approx(
                getattr(b, f.name)
            ), f.name


def assert_results_equal(ref, dense, *, float_values=False):
    """Superstep-level identity of two BSPResults (reference vs dense)."""
    assert ref.num_supersteps == dense.num_supersteps
    assert ref.active_per_superstep == dense.active_per_superstep
    assert ref.messages_per_superstep == dense.messages_per_superstep
    if float_values:
        np.testing.assert_allclose(
            np.asarray(ref.values, dtype=np.float64),
            np.asarray(dense.values, dtype=np.float64),
            rtol=0, atol=1e-12,
        )
    else:
        assert np.array_equal(np.asarray(ref.values), dense.values)
    assert_traces_equal(ref, dense)


# -- per-algorithm equivalence ---------------------------------------------


class TestAlgorithmEquivalence:
    def test_connected_components(self, graph):
        ref = BSPEngine(graph).run(BSPConnectedComponents())
        dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
        assert_results_equal(ref, dense)

    def test_bfs(self, graph):
        for source in (0, graph.num_vertices - 1):
            ref = BSPEngine(graph).run(BSPBreadthFirstSearch(source))
            ref.values = [
                UNREACHED if v is None else v for v in ref.values
            ]
            dense = DenseBSPEngine(graph).run(
                DenseBreadthFirstSearch(source)
            )
            assert_results_equal(ref, dense)

    def test_sssp(self, graph):
        source = 0
        ref = BSPEngine(graph).run(BSPShortestPaths(source))
        dense = DenseBSPEngine(graph).run(DenseShortestPaths(source))
        assert_results_equal(ref, dense)

    def test_sssp_weighted(self):
        rng = np.random.default_rng(11)
        edges = [(i % 20, (i * 7 + 3) % 20) for i in range(40)]
        weights = rng.uniform(0.1, 5.0, size=len(edges))
        g = from_edge_list(edges, num_vertices=20, weights=weights)
        ref = BSPEngine(g).run(BSPShortestPaths(0))
        dense = DenseBSPEngine(g).run(DenseShortestPaths(0))
        assert_results_equal(ref, dense)

    def test_pagerank(self, graph):
        # Both engines get the dangling aggregator: the reference program
        # drops dangling mass without one, while the dense program (like
        # the vectorized kernel it replaced) always redistributes it.
        aggs = {"dangling": SumAggregator()}
        ref = BSPEngine(graph, aggregators=aggs).run(
            BSPPageRank(num_supersteps=8)
        )
        dense = DenseBSPEngine(graph, aggregators=aggs).run(
            DensePageRank(num_supersteps=8)
        )
        assert_results_equal(ref, dense, float_values=True)

    def test_kcore(self, graph):
        for k in (1, 2, 3):
            ref = BSPEngine(graph).run(BSPKCore(k))
            dense = DenseBSPEngine(graph).run(DenseKCore(k))
            assert_results_equal(ref, dense)

    @pytest.mark.parametrize(
        "dense_program",
        [DenseConnectedComponents(), DensePageRank(num_supersteps=3)],
        ids=["cc", "pagerank"],
    )
    def test_empty_graph(self, dense_program):
        g = from_edge_list([], num_vertices=0)
        dense = DenseBSPEngine(g).run(dense_program)
        assert dense.num_supersteps == 0
        assert dense.values.size == 0
        assert dense.active_per_superstep == []

    def test_combine_messages_matches_reference_combiner_values(self, graph):
        """The ablation accounting changes counts, never labels."""
        plain = DenseBSPEngine(graph).run(DenseConnectedComponents())
        combined = DenseBSPEngine(graph, combine_messages=True).run(
            DenseConnectedComponents()
        )
        assert np.array_equal(plain.values, combined.values)
        assert plain.num_supersteps == combined.num_supersteps
        assert combined.total_messages <= plain.total_messages


# -- the all-arc flood -------------------------------------------------------


def directed_weighted_graph():
    """Directed, weighted, with a dangling vertex (5), an isolated one
    (6) and a vertex that only sends (0)."""
    edges = [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 1), (3, 4), (4, 2),
        (4, 5), (2, 5),
    ]
    weights = [2.0, 7.5, 1.25, 4.0, 0.5, 3.0, 1.0, 6.0, 2.5, 9.0]
    return from_edge_list(
        edges, num_vertices=7, directed=True, weights=weights
    )


class TestFullFlood:
    """Supersteps whose senders' out-arcs are all the arcs there are."""

    def test_kcore_above_max_degree_drops_everyone_at_once(
        self, graph, selection_forms
    ):
        """Every vertex drops in superstep 0; the payload is sized by
        ``selected_arc_count`` alone."""
        k = int(graph.degrees().max()) + 1
        ref = BSPEngine(graph).run(BSPKCore(k))
        program = DenseKCore(k)
        dense = DenseBSPEngine(graph).run(program)
        assert_results_equal(ref, dense)
        assert program.dropped_per_superstep[0] == graph.num_vertices
        assert selection_forms == ["full"]
        assert np.all(dense.values == -1)

    def test_pagerank_directed_weighted(self, selection_forms):
        g = directed_weighted_graph()
        aggs = {"dangling": SumAggregator()}
        ref = BSPEngine(g, aggregators=aggs).run(BSPPageRank(num_supersteps=6))
        dense = DenseBSPEngine(g, aggregators=aggs).run(
            DensePageRank(num_supersteps=6)
        )
        assert_results_equal(ref, dense, float_values=True)
        assert selection_forms == ["full"] * 6

    def test_pagerank_sums_are_bit_identical_to_the_mask_form(self):
        """A slice picks the same arcs in the same order, so the float
        folds do not move by one ulp."""
        g = rmat(scale=8, edge_factor=8, seed=7)
        full = DenseBSPEngine(g).run(DensePageRank(num_supersteps=8))
        masked = DenseBSPEngine(
            g, frontier_policy=FrontierPolicy(mode="sparse")
        ).run(DensePageRank(num_supersteps=8))
        assert np.array_equal(full.values, masked.values)

    @pytest.mark.parametrize(
        "name", ["rmat8", "star", "isolated", "directed-weighted"]
    )
    def test_pagerank_payload_equals_the_masked_divide(self, name):
        """``rank / max(degree, 1)`` is the masked ``rank / degree`` on
        every arc: a vertex with no out-arcs is never expanded onto one."""
        g = (
            directed_weighted_graph()
            if name == "directed-weighted"
            else GRAPHS[name]()
        )
        n = g.num_vertices
        values = np.random.default_rng(n).random(n)
        deg = g.degrees().astype(np.float64)
        share = np.zeros(n)
        np.divide(values, deg, out=share, where=deg > 0)
        program = DensePageRank()
        everyone = np.arange(n, dtype=np.int64)
        every_other = everyone[::2]  # zero-degree vertices included
        for senders, mode in (
            (everyone, "dense"),  # the whole-arc slice
            (every_other, "dense"),  # a mask
            (every_other, "sparse"),
        ):
            selection = select_arcs(senders, g.row_ptr, mode)
            old = share[g.arc_sources()[selection]]
            got = program.arc_payload(g, values, selection)
            assert np.array_equal(got, old)
        assert name == "star" or (g.degrees() == 0).any()

    def test_sssp_weighted_out_star(self, selection_forms):
        """The source's out-arcs are all the arcs: ``weights[selection]``
        is read through the slice."""
        n = 9
        g = from_edge_list(
            [(0, v) for v in range(1, n)],
            num_vertices=n,
            directed=True,
            weights=[0.5 * v for v in range(1, n)],
        )
        policy = FrontierPolicy(mode="dense")
        ref = BSPEngine(g).run(BSPShortestPaths(0))
        dense = DenseBSPEngine(g, frontier_policy=policy).run(
            DenseShortestPaths(0)
        )
        assert_results_equal(ref, dense)
        assert selection_forms == ["full"]

    def test_sssp_directed_weighted(self):
        g = directed_weighted_graph()
        for mode in ("auto", "dense"):
            ref = BSPEngine(g).run(BSPShortestPaths(0))
            dense = DenseBSPEngine(
                g, frontier_policy=FrontierPolicy(mode=mode)
            ).run(DenseShortestPaths(0))
            assert_results_equal(ref, dense)

    @pytest.mark.parametrize("combine_messages", [False, True])
    def test_histogram_is_the_cached_in_degree_vector(self, combine_messages):
        """The engine reads the graph's in-degrees; it never writes them."""
        g = rmat(scale=6, edge_factor=8, seed=3)
        before = g.in_degrees().copy()
        plain = DenseBSPEngine(
            g,
            combine_messages=combine_messages,
            frontier_policy=FrontierPolicy(mode="sparse"),
        ).run(DenseConnectedComponents())
        full = DenseBSPEngine(g, combine_messages=combine_messages).run(
            DenseConnectedComponents()
        )
        assert full.messages_per_superstep == plain.messages_per_superstep
        assert_traces_equal(plain, full)
        assert np.array_equal(g.in_degrees(), before)


# -- the active set ----------------------------------------------------------


class WakefulComponents(VertexProgram):
    """Min-label flooding in which every third vertex stays awake for
    ``rounds`` supersteps instead of voting to halt: the compute set is
    then a true union — messages land on halted and on awake vertices,
    and awake vertices compute with or without a message."""

    def __init__(self, rounds):
        self.rounds = rounds

    def initial_value(self, vertex, graph):
        return vertex

    def compute(self, ctx, messages):
        label = min(messages, default=ctx.value)
        if ctx.superstep == 0:
            ctx.send_to_neighbors(ctx.value)
        elif label < ctx.value:
            ctx.value = label
            ctx.send_to_neighbors(label)
        if ctx.vertex_id % 3 or ctx.superstep >= self.rounds:
            ctx.vote_to_halt()


class DenseWakefulComponents(DenseConnectedComponents):
    """Array twin of :class:`WakefulComponents`."""

    def __init__(self, rounds):
        self.rounds = rounds

    def compute(self, ctx):
        labels, receivers = ctx.values, ctx.receivers
        if ctx.superstep == 0:
            senders = ctx.active
        else:
            senders = receivers[ctx.messages[receivers] < labels[receivers]]
            labels[senders] = ctx.messages[senders]
        if ctx.superstep >= self.rounds:
            ctx.vote_to_halt()
        else:
            ctx.vote_to_halt(ctx.active[ctx.active % 3 != 0])
        return senders


class TestActiveSet:
    ROUNDS = 4

    def test_some_halt_some_never_do(self, graph):
        ref = BSPEngine(graph).run(WakefulComponents(self.ROUNDS))
        dense = DenseBSPEngine(graph).run(
            DenseWakefulComponents(self.ROUNDS)
        )
        assert_results_equal(ref, dense)
        plain = DenseBSPEngine(graph).run(DenseConnectedComponents())
        assert np.array_equal(dense.values, plain.values)
        # The awake vertices compute in supersteps that sent them nothing.
        awake = len(range(0, graph.num_vertices, 3))
        assert all(
            active >= awake
            for active in dense.active_per_superstep[: self.ROUNDS + 1]
        )
        assert dense.num_supersteps > self.ROUNDS

    def test_messages_land_on_both_kinds(self):
        """Some superstep's receivers include halted and awake vertices
        while other awake vertices compute without a message: neither
        operand of the union contains the other."""
        g = rmat(scale=6, edge_factor=8, seed=3)
        seen = []

        class Recording(DenseWakefulComponents):
            def compute(self, ctx):
                seen.append((ctx.receivers.copy(), ctx.active.copy()))
                return super().compute(ctx)

        DenseBSPEngine(g).run(Recording(self.ROUNDS))
        proper = [
            s
            for s, (receivers, active) in enumerate(seen)
            if np.any(receivers % 3 == 0)
            and np.any(receivers % 3 != 0)
            and np.setdiff1d(active, receivers).size
        ]
        assert proper and max(proper) <= self.ROUNDS
        for receivers, active in seen[1:]:
            assert np.all(np.diff(active) > 0)
            assert np.isin(receivers, active).all()

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_sharded_matches_reference(self, num_workers):
        g = rmat(scale=7, edge_factor=8, seed=5)
        ref = BSPEngine(g).run(WakefulComponents(self.ROUNDS))
        with ShardedBSPEngine(g, num_workers=num_workers) as engine:
            got = engine.run(DenseWakefulComponents(self.ROUNDS))
        assert_results_equal(ref, got)

    @given(
        st.lists(st.booleans(), min_size=0, max_size=40).flatmap(
            lambda halted: st.tuples(
                st.just(halted),
                st.sets(st.integers(0, len(halted) - 1))
                if halted
                else st.just(set()),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_compute_set_is_the_sorted_union(self, case):
        halted_bits, receiver_ids = case
        halted = np.asarray(halted_bits, dtype=bool)
        receivers = np.asarray(sorted(receiver_ids), dtype=np.int64)
        before = halted.copy()
        got = _compute_set(halted, receivers)
        want = np.union1d(receivers, np.flatnonzero(~halted))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(halted, before)


class TestPropertyEquivalence:
    @st.composite
    @staticmethod
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
        loops = draw(st.booleans())
        return from_edge_list(edges, n, remove_self_loops=not loops)

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_connected_components_equivalence(self, g):
        ref = BSPEngine(g).run(BSPConnectedComponents())
        dense = DenseBSPEngine(g).run(DenseConnectedComponents())
        assert_results_equal(ref, dense)

    @given(random_graph())
    @settings(max_examples=40, deadline=None)
    def test_bfs_equivalence(self, g):
        ref = BSPEngine(g).run(BSPBreadthFirstSearch(0))
        ref.values = [UNREACHED if v is None else v for v in ref.values]
        dense = DenseBSPEngine(g).run(DenseBreadthFirstSearch(0))
        assert_results_equal(ref, dense)


# -- dense-engine mechanics ------------------------------------------------


#: Engines the boolean-mask checks run on: the checks live in the run
#: loop the sharded engine inherits.
MASK_ENGINES = {
    "dense": DenseBSPEngine,
    "sharded": lambda g: ShardedBSPEngine(g, num_workers=2),
}


def _mask(n, vertex):
    """An n-long boolean mask marking ``vertex``."""
    mask = np.zeros(n, dtype=bool)
    mask[vertex] = True
    return mask


class MaskSenders(DenseConnectedComponents):
    """Returns a mask marking vertex 3 as its sender set."""

    def compute(self, ctx):
        super().compute(ctx)
        return _mask(ctx.num_vertices, 3)


class HaltsByMask(DenseConnectedComponents):
    """Votes to halt with a mask marking vertex 4."""

    def compute(self, ctx):
        ctx.vote_to_halt(_mask(ctx.num_vertices, 4))
        return super().compute(ctx)


class TestDenseEngineMechanics:
    def test_initial_active_restricts_superstep0(self):
        g = ring_graph(8)
        ref = BSPEngine(g).run(
            BSPConnectedComponents(), initial_active=[3]
        )
        dense = DenseBSPEngine(g).run(
            DenseConnectedComponents(), initial_active=[3]
        )
        assert_results_equal(ref, dense)
        assert dense.active_per_superstep[0] == 1

    def test_initial_active_out_of_range(self):
        with pytest.raises(IndexError):
            DenseBSPEngine(ring_graph(3)).run(
                DenseConnectedComponents(), initial_active=[9]
            )
        with pytest.raises(IndexError):
            DenseBSPEngine(ring_graph(3)).run(
                DenseConnectedComponents(), initial_active=[-1]
            )

    @pytest.mark.parametrize("vertex", [-1, -5, 5])
    def test_vote_to_halt_rejects_out_of_range_ids(self, vertex):
        """An id outside [0, n) is an error, not a wrapped index: -1
        used to halt vertex n - 1 without a word."""

        class HaltsOneId(DenseConnectedComponents):
            def compute(self, ctx):
                ctx.vote_to_halt([vertex])
                return super().compute(ctx)

        with pytest.raises(IndexError, match="halting vertex out of range"):
            DenseBSPEngine(path_graph(5)).run(HaltsOneId())

    @pytest.mark.parametrize("engine_name", sorted(MASK_ENGINES))
    def test_bool_mask_sender_set_is_a_type_error(self, engine_name):
        """A mask marking vertex 3 used to flood from vertices 0 and 1
        (``messages_per_superstep == [3, 0]``)."""
        with MASK_ENGINES[engine_name](path_graph(6)) as engine:
            with pytest.raises(TypeError, match="boolean mask"):
                engine.run(MaskSenders())

    @pytest.mark.parametrize("engine_name", sorted(MASK_ENGINES))
    def test_bool_mask_vote_to_halt_is_a_type_error(self, engine_name):
        """A mask marking vertex 4 used to halt vertices 0 and 1."""
        with MASK_ENGINES[engine_name](path_graph(6)) as engine:
            with pytest.raises(TypeError, match="boolean mask"):
                engine.run(HaltsByMask())

    @pytest.mark.parametrize("engine_name", sorted(MASK_ENGINES))
    def test_bool_mask_initial_active_is_a_type_error(self, engine_name):
        with MASK_ENGINES[engine_name](path_graph(6)) as engine:
            with pytest.raises(TypeError, match="boolean mask"):
                engine.run(
                    DenseConnectedComponents(), initial_active=_mask(6, 3)
                )
            # Ids still work on the same engine.
            ids = engine.run(DenseConnectedComponents(), initial_active=[3])
            assert ids.active_per_superstep[0] == 1

    def test_max_supersteps_cap(self):
        g = ring_graph(6)
        ref = BSPEngine(g).run(BSPPageRank(30), max_supersteps=3)
        dense = DenseBSPEngine(g).run(DensePageRank(30), max_supersteps=3)
        assert dense.num_supersteps == 3
        assert_results_equal(ref, dense, float_values=True)

    def test_max_supersteps_validated(self):
        with pytest.raises(ValueError):
            DenseBSPEngine(ring_graph(3)).run(
                DenseConnectedComponents(), max_supersteps=0
            )

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            DenseBSPEngine(ring_graph(3)).run(
                DenseConnectedComponents(),
                checkpoint_every=0,
                checkpoint_store=CheckpointStore(),
            )
        with pytest.raises(ValueError, match="checkpoint_store"):
            DenseBSPEngine(ring_graph(3)).run(
                DenseConnectedComponents(), checkpoint_every=1
            )

    def test_missing_combine_identity_rejected(self):
        class NoIdentity(DenseVertexProgram):
            def initial_values(self, graph):
                return np.zeros(graph.num_vertices)

            def arc_payload(self, graph, values, arc_mask):
                return values[graph.arc_sources()[arc_mask]]

            def compute(self, ctx):
                ctx.vote_to_halt()
                return None

        with pytest.raises(ValueError, match="combine_identity"):
            DenseBSPEngine(ring_graph(3)).run(NoIdentity())

    def test_result_values_do_not_alias_engine_state(self):
        g = ring_graph(5)
        engine = DenseBSPEngine(g)
        res = engine.run(DenseConnectedComponents())
        engine.values[0] = 999
        assert res.values[0] == 0

    def test_dangling_aggregator_matches_reference(self):
        """PageRank through the ``dangling`` sum aggregator: both engines
        see the same aggregated mass one superstep later."""
        g = from_edge_list([(0, 1), (1, 2)], num_vertices=5)  # 3, 4 dangle
        aggs = {"dangling": SumAggregator()}
        ref = BSPEngine(g, aggregators=aggs).run(BSPPageRank(6))
        dense = DenseBSPEngine(g, aggregators=aggs).run(DensePageRank(6))
        assert ref.num_supersteps == dense.num_supersteps
        np.testing.assert_allclose(
            np.asarray(ref.values), dense.values, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            ref.aggregator_history["dangling"],
            dense.aggregator_history["dangling"],
            rtol=0, atol=1e-12,
        )
        # Dangling redistribution is also exercised without the
        # aggregator — identical ranks via the internal fallback.
        plain = DenseBSPEngine(g).run(DensePageRank(6))
        np.testing.assert_allclose(
            plain.values, dense.values, rtol=0, atol=1e-12
        )

    def test_unknown_aggregator_raises(self):
        class BadAgg(DenseConnectedComponents):
            def compute(self, ctx):
                ctx.aggregate("nope", 1)
                return super().compute(ctx)

        with pytest.raises(KeyError, match="nope"):
            DenseBSPEngine(ring_graph(3)).run(BadAgg())


# -- checkpoint / resume ---------------------------------------------------


class DenseCrashError(RuntimeError):
    pass


class CrashesOnce:
    """Mixin: the program dies when first reaching ``crash_at``."""

    crash_at: int
    armed = True

    def compute(self, ctx):
        if self.armed and ctx.superstep == self.crash_at:
            raise DenseCrashError(
                f"injected failure at superstep {ctx.superstep}"
            )
        return super().compute(ctx)


class CrashingDenseCC(CrashesOnce, DenseConnectedComponents):
    def __init__(self, crash_at: int):
        self.crash_at = crash_at


class CrashingDensePageRank(CrashesOnce, DensePageRank):
    def __init__(self, crash_at: int, num_supersteps: int):
        super().__init__(num_supersteps=num_supersteps)
        self.crash_at = crash_at


@pytest.fixture(scope="module")
def crash_graph():
    return rmat(scale=7, edge_factor=8, seed=5)


class TestDenseFailureRecovery:
    @pytest.mark.parametrize("crash_at,every", [(2, 1), (3, 2), (4, 3)])
    def test_recovered_run_matches_clean_run(
        self, crash_graph, crash_at, every
    ):
        clean = DenseBSPEngine(crash_graph).run(DenseConnectedComponents())
        store = CheckpointStore()
        program = CrashingDenseCC(crash_at)
        engine = DenseBSPEngine(crash_graph)
        with pytest.raises(DenseCrashError):
            engine.run(
                program, checkpoint_every=every, checkpoint_store=store
            )
        assert store.latest is not None
        program.armed = False
        recovered = engine.run(program, resume_from=store.latest)
        assert np.array_equal(recovered.values, clean.values)
        assert recovered.num_supersteps == clean.num_supersteps
        assert (
            recovered.messages_per_superstep == clean.messages_per_superstep
        )
        assert recovered.active_per_superstep == clean.active_per_superstep

    @pytest.mark.parametrize(
        "make_clean,make_crashing",
        [
            (DenseConnectedComponents, lambda: CrashingDenseCC(1)),
            (
                lambda: DensePageRank(num_supersteps=5),
                lambda: CrashingDensePageRank(3, num_supersteps=5),
            ),
        ],
        ids=["cc", "pagerank"],
    )
    def test_resume_right_after_a_full_flood(
        self, crash_graph, selection_forms, make_clean, make_crashing
    ):
        """The checkpoint holds senders whose flood is every arc; the
        resumed gather re-selects them in the same (full) form."""
        clean = DenseBSPEngine(crash_graph).run(make_clean())
        store = CheckpointStore()
        program = make_crashing()
        crash_at = program.crash_at
        engine = DenseBSPEngine(crash_graph)
        with pytest.raises(DenseCrashError):
            engine.run(program, checkpoint_every=1, checkpoint_store=store)
        assert store.latest.superstep == crash_at
        assert store.latest.dense_senders.size == crash_graph.num_vertices
        program.armed = False
        del selection_forms[:]
        resumed = engine.run(program, resume_from=store.latest)
        assert selection_forms[0] == "full"
        assert np.array_equal(resumed.values, clean.values)
        assert resumed.num_supersteps == clean.num_supersteps
        assert (
            resumed.messages_per_superstep == clean.messages_per_superstep
        )
        assert resumed.active_per_superstep == clean.active_per_superstep
        assert resumed.trace.regions == clean.trace.regions[crash_at:]

    def test_trace_covers_only_replayed_supersteps(self, crash_graph):
        clean = DenseBSPEngine(crash_graph).run(DenseConnectedComponents())
        store = CheckpointStore()
        program = CrashingDenseCC(3)
        engine = DenseBSPEngine(crash_graph)
        with pytest.raises(DenseCrashError):
            engine.run(program, checkpoint_every=2, checkpoint_store=store)
        program.armed = False
        recovered = engine.run(program, resume_from=store.latest)
        assert (
            len(recovered.trace)
            == clean.num_supersteps - store.latest.superstep
        )

    def test_dense_checkpoint_stores_senders_not_pairs(self, crash_graph):
        store = CheckpointStore(retain=100)
        DenseBSPEngine(crash_graph).run(
            DenseConnectedComponents(),
            checkpoint_every=1,
            checkpoint_store=store,
        )
        for ck in store._checkpoints:
            assert ck.pending == []
            assert ck.dense_senders is not None

    def test_dense_checkpoint_disk_round_trip(self, tmp_path, crash_graph):
        clean = DenseBSPEngine(crash_graph).run(DenseConnectedComponents())
        store = CheckpointStore()
        DenseBSPEngine(crash_graph).run(
            DenseConnectedComponents(),
            max_supersteps=3,
            checkpoint_every=2,
            checkpoint_store=store,
        )
        path = tmp_path / "dense.pkl"
        save_checkpoint(store.latest, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.dense_senders, store.latest.dense_senders)
        resumed = DenseBSPEngine(crash_graph).run(
            DenseConnectedComponents(), resume_from=loaded
        )
        assert np.array_equal(resumed.values, clean.values)

    def test_cross_engine_checkpoints_rejected(self, crash_graph):
        dense_store = CheckpointStore()
        DenseBSPEngine(crash_graph).run(
            DenseConnectedComponents(),
            max_supersteps=3,
            checkpoint_every=2,
            checkpoint_store=dense_store,
        )
        with pytest.raises(ValueError, match="DenseBSPEngine"):
            BSPEngine(crash_graph).run(
                BSPConnectedComponents(), resume_from=dense_store.latest
            )
        ref_store = CheckpointStore()
        BSPEngine(crash_graph).run(
            BSPConnectedComponents(),
            max_supersteps=3,
            checkpoint_every=2,
            checkpoint_store=ref_store,
        )
        with pytest.raises(ValueError, match="reference"):
            DenseBSPEngine(crash_graph).run(
                DenseConnectedComponents(), resume_from=ref_store.latest
            )

    def test_resume_graph_mismatch_rejected(self, crash_graph):
        store = CheckpointStore()
        DenseBSPEngine(crash_graph).run(
            DenseConnectedComponents(),
            max_supersteps=3,
            checkpoint_every=2,
            checkpoint_store=store,
        )
        with pytest.raises(ValueError, match="vertex count"):
            DenseBSPEngine(ring_graph(5)).run(
                DenseConnectedComponents(), resume_from=store.latest
            )
