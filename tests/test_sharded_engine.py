"""Equivalence suite: the sharded engine against the dense engine.

The contract under test: :class:`~repro.bsp.parallel.ShardedBSPEngine`
runs the *same* dense programs as :class:`~repro.bsp.dense.DenseBSPEngine`
and produces the same :class:`~repro.bsp.engine.BSPResult` — identical
values, superstep counts, per-superstep active/message counts, and work
traces — at any worker count and under either partition policy.  Plus
the pool's own mechanics: reuse across runs, crash safety, checkpoint
interchange with the dense engine, and constructor validation.

Floods of at most ``repro.bsp.parallel._LOCAL_SUPERSTEP_ARCS`` arcs run
in the parent, which on these graphs is every superstep — so the suites
about workers force fan-out (``fan_out_every_superstep``),
``TestLocalSupersteps`` covers the selection itself at thresholds on
both sides of, and inside, a run, and ``TestParentAccountedFloods`` the
near-full floods the parent accounts without a scatter exchange.

Set ``SHARDED_WORKERS`` (comma-separated) to restrict the worker counts
exercised — CI's multiprocessing smoke job runs the suite with
``SHARDED_WORKERS=2``.
"""

import gc
import inspect
import os
import weakref

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
    ShardedWorkerError,
    SumAggregator,
    _pool,
    _worker,
    make_engine,
    parallel,
)
from repro.bsp.frontier import source_values
from repro.bsp_algorithms import (
    BSPBreadthFirstSearch,
    BSPConnectedComponents,
    BSPShortestPaths,
    DenseBreadthFirstSearch,
    DenseConnectedComponents,
    DenseKCore,
    DensePageRank,
    DenseShortestPaths,
)
from repro.bsp_algorithms.bfs import UNREACHED
from repro.graph import from_edge_list, rmat, star_graph, two_d_grid
from repro.telemetry.core import MAIN_TRACK, Telemetry
from tests.test_dense_engine import assert_results_equal

WORKER_COUNTS = [
    int(w) for w in os.environ.get("SHARDED_WORKERS", "1,2,4").split(",")
]
POLICIES = ["hash", "balanced-edge"]

GRAPHS = {
    "star": lambda: star_graph(8),
    "isolated": lambda: from_edge_list([(0, 1), (2, 3)], num_vertices=7),
    "rmat8": lambda: rmat(scale=8, edge_factor=8, seed=7),
}

#: name -> (program factory, engine kwargs, float-tolerant values?)
ALGORITHMS = {
    "cc": (lambda: DenseConnectedComponents(), {}, False),
    "bfs": (lambda: DenseBreadthFirstSearch(0), {}, False),
    "sssp": (lambda: DenseShortestPaths(0), {}, False),
    # Sharded float summation may differ from the single-pass fold in
    # the last ulp (per-shard partial sums merge in shard order) — the
    # same tolerance the dense-vs-reference PageRank test uses.
    "pagerank": (
        lambda: DensePageRank(num_supersteps=8),
        {"aggregators": {"dangling": SumAggregator()}},
        True,
    ),
    "kcore": (lambda: DenseKCore(2), {}, False),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def graph(request):
    return GRAPHS[request.param]()


@pytest.fixture(params=WORKER_COUNTS, ids=lambda w: f"w{w}", scope="module")
def num_workers(request):
    return request.param


@pytest.fixture(params=POLICIES, scope="module")
def partition(request):
    return request.param


@pytest.mark.usefixtures("fan_out_every_superstep")
class TestShardedEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_matches_dense(self, graph, num_workers, partition, algorithm):
        make_program, engine_kwargs, float_values = ALGORITHMS[algorithm]
        dense = DenseBSPEngine(graph, **engine_kwargs).run(make_program())
        with ShardedBSPEngine(
            graph,
            num_workers=num_workers,
            partition=partition,
            **engine_kwargs,
        ) as engine:
            sharded = engine.run(make_program())
        assert_results_equal(dense, sharded, float_values=float_values)

    def test_pool_reuse_across_runs(self, graph):
        """One warm pool serves many programs back to back."""
        with ShardedBSPEngine(graph, num_workers=2) as engine:
            for name in ("cc", "bfs", "sssp"):
                make_program, engine_kwargs, float_values = ALGORITHMS[name]
                dense = DenseBSPEngine(graph, **engine_kwargs).run(
                    make_program()
                )
                sharded = engine.run(make_program())
                assert_results_equal(dense, sharded, float_values=float_values)

    def test_exact_at_one_worker_pagerank(self, graph):
        """A single shard is one fold — bit-identical even for floats."""
        dense = DenseBSPEngine(graph).run(DensePageRank(num_supersteps=8))
        with ShardedBSPEngine(graph, num_workers=1) as engine:
            sharded = engine.run(DensePageRank(num_supersteps=8))
        assert np.array_equal(dense.values, sharded.values)

    def test_combine_messages_accounting(self, graph):
        dense = DenseBSPEngine(graph, combine_messages=True).run(
            DenseConnectedComponents()
        )
        with ShardedBSPEngine(
            graph, num_workers=2, combine_messages=True
        ) as engine:
            sharded = engine.run(DenseConnectedComponents())
        assert_results_equal(dense, sharded)

    def test_custom_assignment(self, graph):
        """An explicit per-vertex placement array is honoured."""
        n = graph.num_vertices
        assignment = (np.arange(n) < n // 2).astype(np.int64)
        dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
        with ShardedBSPEngine(
            graph, num_workers=2, partition=assignment
        ) as engine:
            assert engine.partition_policy == "custom"
            sharded = engine.run(DenseConnectedComponents())
        assert_results_equal(dense, sharded)

    def test_weighted_sssp(self):
        rng = np.random.default_rng(11)
        edges = [(i % 20, (i * 7 + 3) % 20) for i in range(40)]
        weights = rng.uniform(0.1, 5.0, size=len(edges))
        g = from_edge_list(edges, num_vertices=20, weights=weights)
        dense = DenseBSPEngine(g).run(DenseShortestPaths(0))
        with ShardedBSPEngine(g, num_workers=2) as engine:
            sharded = engine.run(DenseShortestPaths(0))
        assert_results_equal(dense, sharded)

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=0)
        with ShardedBSPEngine(g, num_workers=2) as engine:
            result = engine.run(DenseConnectedComponents())
        assert result.num_supersteps == 0
        assert result.values.size == 0

    def test_spawn_start_method(self, monkeypatch):
        """The pool also works where the platform cannot fork: the
        engine asks the platform, so the test answers for it."""
        asked = []
        get_context = _pool.get_context
        monkeypatch.setattr(_pool, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(
            _pool, "get_context", lambda m: asked.append(m) or get_context(m)
        )
        g = GRAPHS["rmat8"]()
        for check in (False, True):
            with ShardedBSPEngine(g, num_workers=2, check=check) as engine:
                for name in ("cc", "bfs", "kcore"):
                    make_program, engine_kwargs, _ = ALGORITHMS[name]
                    dense = DenseBSPEngine(g, **engine_kwargs).run(
                        make_program()
                    )
                    assert_results_equal(dense, engine.run(make_program()))
        assert asked == ["spawn", "spawn"]


# -- crash safety ----------------------------------------------------------


class PoisonPayloadCC(DenseConnectedComponents):
    """CC whose arc payload (computed *inside the workers*) raises."""

    def arc_payload(self, graph, values, arc_mask):
        raise RuntimeError("injected shard failure")


@pytest.mark.usefixtures("fan_out_every_superstep")
class TestShardedCrashSafety:
    def test_raising_program_surfaces_worker_error(self):
        g = rmat(scale=6, edge_factor=8, seed=3)
        engine = ShardedBSPEngine(g, num_workers=2)
        try:
            with pytest.raises(ShardedWorkerError, match="injected"):
                engine.run(PoisonPayloadCC())
            # The pool survives a program failure: workers answered with
            # an error instead of dying, so the engine stays usable.
            dense = DenseBSPEngine(g).run(DenseConnectedComponents())
            recovered = engine.run(DenseConnectedComponents())
            assert_results_equal(dense, recovered)
        finally:
            engine.close()
        assert engine.workers_alive == 0

    def test_gather_without_its_scatter_is_a_worker_error(self):
        """Gather frames carry no senders: a worker asked to deliver a
        generation it never scattered must refuse, not improvise."""
        g = rmat(scale=6, edge_factor=8, seed=3)
        with ShardedBSPEngine(g, num_workers=2) as engine:
            engine.run(DenseConnectedComponents())
            stale = engine._generation + 1
            with pytest.raises(ShardedWorkerError, match="generation"):
                engine._exchange(
                    {0: ("gather", stale, parallel._NO_SENDERS, "sparse")}
                )
            dense = DenseBSPEngine(g).run(DenseConnectedComponents())
            assert_results_equal(dense, engine.run(DenseConnectedComponents()))

    def test_close_is_idempotent_and_terminal(self):
        g = star_graph(5)
        engine = ShardedBSPEngine(g, num_workers=2)
        engine.run(DenseConnectedComponents())
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run(DenseConnectedComponents())

    def test_closed_engine_is_freed_without_the_collector(self):
        """No reference cycle through the pool: a closed engine (and the
        arc-sized arrays it holds) goes when its last reference does —
        repeated set-ups must not wait for a gen-2 collection."""
        engine = ShardedBSPEngine(star_graph(5), num_workers=2)
        engine.run(DenseConnectedComponents())
        engine.close()
        gone = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert gone() is None
        finally:
            gc.enable()

    def test_values_survive_close(self):
        g = star_graph(5)
        engine = ShardedBSPEngine(g, num_workers=2)
        result = engine.run(DenseConnectedComponents())
        engine.close()
        assert np.array_equal(result.values, np.zeros(6, dtype=np.int64))
        assert engine.values.shape == (6,)


# -- checkpoint interchange ------------------------------------------------


@pytest.mark.usefixtures("fan_out_every_superstep")
class TestShardedCheckpoints:
    def test_dense_checkpoint_resumes_on_sharded(self):
        g = rmat(scale=7, edge_factor=8, seed=5)
        clean = DenseBSPEngine(g).run(DenseConnectedComponents())
        store = CheckpointStore()
        DenseBSPEngine(g).run(
            DenseConnectedComponents(),
            max_supersteps=3,
            checkpoint_every=2,
            checkpoint_store=store,
        )
        with ShardedBSPEngine(g, num_workers=2) as engine:
            resumed = engine.run(
                DenseConnectedComponents(), resume_from=store.latest
            )
        assert np.array_equal(resumed.values, clean.values)
        assert resumed.num_supersteps == clean.num_supersteps

    def test_sharded_checkpoint_resumes_on_dense(self):
        g = rmat(scale=7, edge_factor=8, seed=5)
        clean = DenseBSPEngine(g).run(DenseConnectedComponents())
        store = CheckpointStore()
        with ShardedBSPEngine(g, num_workers=2) as engine:
            engine.run(
                DenseConnectedComponents(),
                max_supersteps=3,
                checkpoint_every=2,
                checkpoint_store=store,
            )
        resumed = DenseBSPEngine(g).run(
            DenseConnectedComponents(), resume_from=store.latest
        )
        assert np.array_equal(resumed.values, clean.values)
        assert resumed.num_supersteps == clean.num_supersteps


# -- shard layout ----------------------------------------------------------


def _directed_weighted():
    rng = np.random.default_rng(11)
    edges = [(i % 20, (i * 7 + 3) % 20) for i in range(60)]
    return from_edge_list(
        edges, 20, weights=rng.uniform(0.1, 5.0, size=60), directed=True
    )


LAYOUT_GRAPHS = {
    "rmat7": lambda: rmat(scale=7, edge_factor=8, seed=5),
    "directed-weighted": _directed_weighted,
    "isolated": GRAPHS["isolated"],
    "self-loops": lambda: from_edge_list(
        [(0, 0), (0, 1), (1, 1), (2, 3), (3, 3)], 5, remove_self_loops=False
    ),
    # Every endpoint is a multiple of 4: under the hash placement all
    # other workers own vertices but not one arc.
    "idle-worker": lambda: from_edge_list([(0, 4), (4, 8)], 10),
    "empty": lambda: from_edge_list([], 0),
}

LAYOUT_PARTITIONS = {
    "hash": lambda n, w: "hash",
    "balanced-edge": lambda n, w: "balanced-edge",
    "custom": lambda n, w: np.random.default_rng(n).integers(0, w, size=n),
}


@pytest.fixture(params=sorted(LAYOUT_GRAPHS), scope="module")
def layout_graph(request):
    return LAYOUT_GRAPHS[request.param]()


@pytest.fixture(params=sorted(LAYOUT_PARTITIONS))
def layout_partition(request, layout_graph, num_workers):
    return LAYOUT_PARTITIONS[request.param](
        layout_graph.num_vertices, num_workers
    )


def _shards(engine):
    """In-process twins of the engine's workers, built as they build
    themselves: from the pool's spec (a twin attaches worker ``w``'s
    ring, but only a gather would record to it)."""
    return [
        _worker._Shard(dict(engine._pool.spec, worker_index=w))
        for w in range(engine.num_workers)
    ]


class TestShardLayout:
    """A worker's graph is the sub-CSR of its shard: its vertices'
    out-arcs, in global arc order, over the global vertex ids."""

    def test_shards_partition_the_arcs_in_order(
        self, layout_graph, num_workers, layout_partition
    ):
        g = layout_graph
        with ShardedBSPEngine(
            g, num_workers=num_workers, partition=layout_partition
        ) as engine:
            bounds = engine._pool.spec["arc_bounds"]
            assert bounds[0] == 0 and bounds[-1] == g.num_arcs
            assert len(bounds) == num_workers + 1
            owner = engine.assignment[g.arc_sources()]
            shards = _shards(engine)
            for w, shard in enumerate(shards):
                mine = owner == w
                sub = shard.graph
                assert sub.num_arcs == bounds[w + 1] - bounds[w]
                assert sub.num_vertices == g.num_vertices
                assert np.array_equal(sub.arc_sources(), g.arc_sources()[mine])
                assert np.array_equal(sub.col_idx, g.col_idx[mine])
                if g.weights is None:
                    assert sub.weights is None
                else:
                    assert np.array_equal(sub.weights, g.weights[mine])
                # Per-vertex quantities hold for the shard's own vertices.
                owned = engine.assignment == w
                assert np.array_equal(sub.degrees()[owned], g.degrees()[owned])
                assert not sub.degrees()[~owned].any()
            for shard in shards:
                shard.close()

    @pytest.mark.parametrize("name", ["rmat7", "directed-weighted", "idle-worker"])
    def test_whole_shard_flood_is_a_slice(self, name, num_workers):
        """A worker reads its senders off the engine's shared bitmap:
        marks on other shards' vertices select nothing in its sub-CSR."""
        g = LAYOUT_GRAPHS[name]()
        with ShardedBSPEngine(g, num_workers=num_workers) as engine:
            hist = engine._pool.arrays["hist"]
            marked = engine._senders
            shards = _shards(engine)
            for w, shard in enumerate(shards):
                owned = np.flatnonzero(engine.assignment == w)
                m_w = shard.graph.num_arcs
                marked[:] = True
                assert shard.scatter(1, "dense") == m_w
                assert shard.sel == slice(0, m_w)
                assert np.shares_memory(shard.dst, shard.graph.col_idx) or not m_w
                assert np.array_equal(hist[w], shard.graph.in_degrees())
                assert np.array_equal(
                    hist[w], np.bincount(shard.graph.col_idx, minlength=g.num_vertices)
                )
                senders = owned[g.degrees()[owned] > 0]
                if senders.size < 2:
                    continue
                # All but one sender: dense, but not the whole shard.
                marked[senders[0]] = False
                assert shard.scatter(2, "dense") < m_w
                assert shard.sel.dtype == bool and shard.sel.size == m_w
                assert np.array_equal(
                    hist[w], np.bincount(shard.dst, minlength=g.num_vertices)
                )
                assert not np.array_equal(hist[w], shard.graph.in_degrees())
            for shard in shards:
                shard.close()

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    @pytest.mark.parametrize("algorithm", ["cc", "sssp", "pagerank", "kcore"])
    @pytest.mark.parametrize("name", ["rmat7", "directed-weighted"])
    def test_matches_dense_with_and_without_check(
        self, name, algorithm, check, num_workers, partition
    ):
        g = LAYOUT_GRAPHS[name]()
        make_program, engine_kwargs, float_values = ALGORITHMS[algorithm]
        dense = DenseBSPEngine(g, **engine_kwargs).run(make_program())
        with ShardedBSPEngine(
            g, num_workers=num_workers, partition=partition, check=check,
            **engine_kwargs,
        ) as engine:
            sharded = engine.run(make_program())
        # Exact folds are bit-identical; PageRank's per-shard partial
        # sums merge in shard order (see ALGORITHMS).
        assert_results_equal(
            dense, sharded, float_values=float_values and num_workers > 1
        )

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    def test_resume_right_after_a_full_flood(self, check, num_workers):
        """CC's superstep 0 floods every arc; a run resumed at superstep
        1 has no cached scatter, so each worker selects its whole shard
        again — as a slice — and the run ends as the dense engine's does."""
        g = LAYOUT_GRAPHS["rmat7"]()
        store = CheckpointStore()
        with ShardedBSPEngine(g, num_workers=num_workers, check=check) as engine:
            engine.run(
                DenseConnectedComponents(),
                max_supersteps=2,
                checkpoint_every=1,
                checkpoint_store=store,
            )
            assert store.latest.superstep == 1
            assert store.latest.dense_senders.size == g.num_vertices
            resumed = engine.run(
                DenseConnectedComponents(), resume_from=store.latest
            )
        dense = DenseBSPEngine(g).run(
            DenseConnectedComponents(), resume_from=store.latest
        )
        assert_results_equal(dense, resumed)

    def test_worker_view_of_the_sender_bitmap_is_read_only(self):
        with ShardedBSPEngine(LAYOUT_GRAPHS["rmat7"](), num_workers=2) as engine:
            shards = _shards(engine)
            for shard in shards:
                with pytest.raises(ValueError, match="read-only"):
                    shard.senders[0] = True
            engine._senders[0] = True  # the parent marks, the workers see
            assert all(shard.senders[0] for shard in shards)
            for shard in shards:
                shard.close()

    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    def test_static_blocks_and_none_left_behind(self, check):
        before = set(os.listdir("/dev/shm"))
        for g, blocks in (
            (LAYOUT_GRAPHS["rmat7"](), {"row_ptr", "col_idx", "hist", "senders"}),
            (
                LAYOUT_GRAPHS["directed-weighted"](),
                {"row_ptr", "col_idx", "weights", "hist", "senders"},
            ),
        ):
            engine = ShardedBSPEngine(g, num_workers=2, check=check)
            try:
                assert set(engine._pool.arrays) == blocks
                assert len(engine._pool._blocks) == len(blocks)
                engine.run(DenseConnectedComponents())
            finally:
                engine.close()
        assert set(os.listdir("/dev/shm")) <= before


# -- run blocks --------------------------------------------------------------


class ComplexNeighbourSum(DenseVertexProgram):
    """Sums each vertex's in-neighbour ids plus ``1j`` per arc: 16-byte
    messages, twice the size of every in-tree program's."""

    combine = np.add
    combine_identity = 0j
    message_dtype = np.complex128

    def initial_values(self, graph):
        return np.arange(graph.num_vertices, dtype=np.float64)

    def arc_payload(self, graph, values, selection):
        return source_values(graph, values, selection) + 1j

    def compute(self, ctx):
        ctx.vote_to_halt()
        if ctx.superstep == 0:
            return ctx.active
        messages = ctx.messages
        ctx.values[:] = messages.real + 1000 * messages.imag
        return None


def _mapped_shm(pid):
    """Names of the ``/dev/shm`` blocks process ``pid`` maps."""
    with open(f"/proc/{pid}/maps") as maps:
        return {
            line.split("/dev/shm/", 1)[1].split()[0]
            for line in maps
            if "/dev/shm/" in line
        }


@pytest.mark.usefixtures("fan_out_every_superstep")
class TestRunBlocks:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/maps"
    )
    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    def test_run_blocks_stay_warm(self, check):
        """One engine's runs share its values / gathered / shadow blocks:
        same names, no new ``/dev/shm`` entries, earlier results intact;
        a run with bigger messages replaces ``gathered`` once, and the
        workers stop mapping the block it replaced."""
        g = rmat(scale=7, edge_factor=8, seed=5)
        roles = {"values", "gathered", "shadow"} if check else {
            "values", "gathered"
        }
        programs = [
            lambda: DenseBreadthFirstSearch(0),  # int64 values
            lambda: DenseShortestPaths(0),  # float64 values
            lambda: DensePageRank(num_supersteps=4),
            DenseConnectedComponents,
        ]
        before = set(os.listdir("/dev/shm"))
        engine = ShardedBSPEngine(g, num_workers=2, check=check)
        pids = [row["pid"] for row in engine._pool.worker_status()]
        kept = []  # (result, its values as returned)

        def run(make_program):
            result = engine.run(make_program())
            kept.append((result, result.values.copy()))
            return result

        def blocks():
            return {
                role: shm.name for role, shm in engine._run_blocks.items()
            }

        def new_entries():
            return set(os.listdir("/dev/shm")) - before

        try:
            run(programs[0])
            first, entries = blocks(), len(new_entries())
            assert set(first) == roles
            for make_program in [*programs[1:], lambda: PoisonPayloadCC()]:
                try:
                    run(make_program)
                except ShardedWorkerError as error:
                    assert "injected" in str(error)
                assert blocks() == first
                assert len(new_entries()) == entries
            for make_program in programs:
                result = run(make_program)
                assert_results_equal(
                    DenseBSPEngine(g).run(make_program()), result,
                    float_values=True,
                )
                assert blocks() == first
                assert len(new_entries()) == entries

            wide = run(ComplexNeighbourSum)
            assert_results_equal(
                DenseBSPEngine(g).run(ComplexNeighbourSum()), wide
            )
            grown = blocks()
            assert grown["gathered"] != first["gathered"]
            assert {r: n for r, n in grown.items() if r != "gathered"} == {
                r: n for r, n in first.items() if r != "gathered"
            }
            for make_program in [ComplexNeighbourSum, *programs]:
                run(make_program)
                assert blocks() == grown
                assert len(new_entries()) == entries
            ever = set(first.values()) | set(grown.values())
            for pid in pids:
                assert _mapped_shm(pid) & ever == set(grown.values())
            for result, values in kept:
                assert np.array_equal(result.values, values)
        finally:
            engine.close()
        assert set(os.listdir("/dev/shm")) <= before


# -- split floods ----------------------------------------------------------


def _split_flood_graph():
    """Vertex 0, its six neighbours 1..6, two children each (7..18) and
    five grandchildren (19..23): BFS from 0 and CC's second superstep
    both send from every neighbour of 0 but not from 0 itself."""
    edges = [(0, i) for i in range(1, 7)] + [(1, 2), (3, 4), (5, 6)]
    edges += [(i, 5 + 2 * i + k) for i in range(1, 7) for k in (0, 1)]
    edges += [(7 + 2 * j, 19 + j) for j in range(5)]
    return from_edge_list(edges, 24)


def _split_flood_partition(num_workers):
    """Worker 0 owns neighbours 1..3 of vertex 0 and nothing else; the
    other workers share every remaining vertex."""
    v = np.arange(24)
    if num_workers == 1:
        return np.zeros(24, dtype=np.int64)
    owner = 1 + v % (num_workers - 1)
    owner[1:4] = 0
    return owner


@pytest.mark.usefixtures("fan_out_every_superstep")
class TestSplitFlood:
    """One shard floods every arc it has (a slice, in its worker) while
    the global flood is partial: that worker's histogram row still counts,
    so the all-arcs ``in_degrees()`` shortcut must not take this path."""

    @pytest.mark.parametrize("algorithm", ["cc", "bfs", "pagerank"])
    def test_matches_dense(self, algorithm, num_workers):
        g = _split_flood_graph()
        make_program, engine_kwargs, float_values = ALGORITHMS[algorithm]
        policy = FrontierPolicy(mode="dense")
        dense = DenseBSPEngine(
            g, frontier_policy=policy, **engine_kwargs
        ).run(make_program())
        tel = Telemetry("split")
        assignment = _split_flood_partition(num_workers)
        with ShardedBSPEngine(
            g, num_workers=num_workers, partition=assignment,
            frontier_policy=policy, telemetry=tel, **engine_kwargs,
        ) as engine:
            sharded = engine.run(make_program())
        assert_results_equal(
            dense, sharded, float_values=float_values and num_workers > 1
        )
        if algorithm == "pagerank" or num_workers == 1:
            return
        # The run did split a flood: worker 0 sent its whole shard while
        # worker 1 sent part of its own.
        counts = {}
        for c in tel.counters:
            if c.name == "shard_senders":
                counts.setdefault(c.superstep, []).append(c.value)
        shard_1 = int((assignment == 1).sum())
        assert any(
            k[0] == 3 and 0 < k[1] < shard_1 for k in counts.values()
        ), counts


# -- local supersteps ------------------------------------------------------

#: Always fan out / split the rmat8 runs of CC, BFS and SSSP (their
#: floods straddle 400 arcs) / never fan out.
THRESHOLDS = (0, 400, 1 << 40)


def _local_decisions(tel):
    """``{superstep: 0|1}`` from the ``local_superstep`` counter."""
    return {
        c.superstep: c.value
        for c in tel.counters
        if c.name == "local_superstep"
    }


def _barriers(tel, phase):
    """Supersteps that recorded a ``barrier`` span for ``phase``."""
    return {
        s.superstep
        for s in tel.spans_named("barrier", track=MAIN_TRACK)
        if s.args["phase"] == phase
    }


class TestLocalSupersteps:
    @pytest.fixture(scope="class")
    def rmat8(self):
        return GRAPHS["rmat8"]()

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_matches_dense_at_any_threshold(
        self, rmat8, num_workers, algorithm, threshold, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", threshold)
        make_program, engine_kwargs, float_values = ALGORITHMS[algorithm]
        dense = DenseBSPEngine(rmat8, **engine_kwargs).run(make_program())
        with ShardedBSPEngine(
            rmat8, num_workers=num_workers, **engine_kwargs
        ) as engine:
            sharded = engine.run(make_program())
        assert_results_equal(dense, sharded, float_values=float_values)

    @given(
        threshold=st.integers(min_value=0, max_value=3000),
        algorithm=st.sampled_from(sorted(ALGORITHMS)),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_threshold_matches_dense(self, threshold, algorithm):
        graph = GRAPHS["rmat8"]()
        make_program, engine_kwargs, float_values = ALGORITHMS[algorithm]
        dense = DenseBSPEngine(graph, **engine_kwargs).run(make_program())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", threshold)
            with ShardedBSPEngine(
                graph, num_workers=2, **engine_kwargs
            ) as engine:
                sharded = engine.run(make_program())
        assert_results_equal(dense, sharded, float_values=float_values)

    def test_threshold_is_inclusive_and_local_costs_no_exchange(
        self, rmat8, monkeypatch
    ):
        """A flood *at* the threshold stays in the parent: no barrier
        span and not one byte on the pipes beyond the run frame; one arc
        more and it fans out."""
        largest = rmat8.num_arcs  # CC's superstep 0 floods every arc
        with ShardedBSPEngine(rmat8, num_workers=2) as engine:
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", largest)
            engine.telemetry = local_tel = Telemetry("local")
            engine.run(DenseConnectedComponents())
            run_frame_bytes = engine.pipe_bytes
            monkeypatch.setattr(
                parallel, "_LOCAL_SUPERSTEP_ARCS", largest - 1
            )
            engine.telemetry = split_tel = Telemetry("split")
            engine.run(DenseConnectedComponents())
            split_bytes = engine.pipe_bytes - run_frame_bytes
        assert set(_local_decisions(local_tel).values()) == {1}
        assert not local_tel.spans_named("barrier")
        assert not [c for c in local_tel.counters if c.name == "pipe_bytes"]
        # Only superstep 0's flood is above the threshold.  It is full, so
        # the parent accounts it: no scatter barrier, only the gather
        # barrier that selects and delivers it at superstep 1.
        decisions = _local_decisions(split_tel)
        assert decisions[0] == 0 and set(decisions.values()) == {0, 1}
        assert _barriers(split_tel, "scatter") == set()
        assert _barriers(split_tel, "gather") == {1}
        exchanged = sum(
            c.value for c in split_tel.counters if c.name == "pipe_bytes"
        )
        assert exchanged > 0
        assert split_bytes == run_frame_bytes + exchanged

    def test_barriers_follow_the_decision(self, rmat8, monkeypatch):
        monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", THRESHOLDS[1])
        tel = Telemetry("mid")
        with ShardedBSPEngine(rmat8, num_workers=2, telemetry=tel) as engine:
            engine.run(DenseShortestPaths(0))
        decisions = _local_decisions(tel)
        fanned_out = {s for s, local in decisions.items() if not local}
        assert fanned_out and fanned_out != set(decisions)
        assert _barriers(tel, "scatter") == fanned_out
        assert _barriers(tel, "gather") == {s + 1 for s in fanned_out}

    @pytest.mark.parametrize("threshold", [0, 1 << 40], ids=["fan-out", "local"])
    def test_resume_lands_on_either_side(self, threshold, monkeypatch):
        monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", threshold)
        g = rmat(scale=7, edge_factor=8, seed=5)
        clean = DenseBSPEngine(g).run(DenseConnectedComponents())
        store = CheckpointStore()
        DenseBSPEngine(g).run(
            DenseConnectedComponents(),
            max_supersteps=3,
            checkpoint_every=2,
            checkpoint_store=store,
        )
        tel = Telemetry("resume")
        with ShardedBSPEngine(g, num_workers=2, telemetry=tel) as engine:
            resumed = engine.run(
                DenseConnectedComponents(), resume_from=store.latest
            )
        assert np.array_equal(resumed.values, clean.values)
        assert resumed.num_supersteps == clean.num_supersteps
        assert resumed.messages_per_superstep == clean.messages_per_superstep
        # The pending flood is decided at the superstep resumed into.
        resumed_at = store.latest.superstep
        assert _local_decisions(tel)[resumed_at] == int(threshold > 0)
        assert (resumed_at in _barriers(tel, "scatter")) == (threshold == 0)

    def test_check_mode_always_fans_out(self, rmat8):
        """The write-race audit is about worker writes: a graph whose
        every flood is below the threshold still reaches them (that the
        audit then catches a race is ``tests/test_check.py``'s job)."""
        assert rmat8.num_arcs <= parallel._LOCAL_SUPERSTEP_ARCS
        tel = Telemetry("check")
        dense = DenseBSPEngine(rmat8).run(DenseConnectedComponents())
        with ShardedBSPEngine(
            rmat8, num_workers=2, check=True, telemetry=tel
        ) as engine:
            checked = engine.run(DenseConnectedComponents())
        assert_results_equal(dense, checked)
        assert set(_local_decisions(tel).values()) == {0}
        assert _barriers(tel, "gather")

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_isolated_source_performs_no_exchange(self):
        """A sender set with no out-arcs floods nothing — not even a
        scatter barrier to find that out."""
        g = GRAPHS["isolated"]()
        tel = Telemetry("isolated")
        dense = DenseBSPEngine(g).run(DenseBreadthFirstSearch(6))
        with ShardedBSPEngine(g, num_workers=2, telemetry=tel) as engine:
            sharded = engine.run(DenseBreadthFirstSearch(6))
        assert_results_equal(dense, sharded)
        assert not tel.spans_named("barrier")


# -- near-full floods ------------------------------------------------------

#: On rmat8 (2 666 arcs) CC floods 2 666, 2 523, 385 and 4 arcs: at this
#: threshold the first two leave out at most 200 arcs and are accounted
#: by the parent, the third is scattered, the last stays local.
ACCOUNTED_THRESHOLD = 200


def _flood_forms(result, num_arcs, threshold):
    """``(accounted, scattered)`` supersteps of a run, from its floods."""
    accounted, scattered = set(), set()
    for superstep, flood in enumerate(result.messages_per_superstep):
        if flood > threshold:
            near_full = num_arcs - flood <= threshold
            (accounted if near_full else scattered).add(superstep)
    return accounted, scattered


def _barrier_counts(tel):
    """``{(phase, superstep): barrier spans}``."""
    counts = {}
    for span in tel.spans_named("barrier", track=MAIN_TRACK):
        key = (span.args["phase"], span.superstep)
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestParentAccountedFloods:
    """A flood that leaves out at most ``_LOCAL_SUPERSTEP_ARCS`` arcs is
    accounted by the parent (no scatter exchange) and selected by the
    workers as they deliver it: one exchange, and only if the program
    reads its messages."""

    @pytest.fixture(scope="class")
    def rmat8(self):
        return GRAPHS["rmat8"]()

    @pytest.mark.parametrize("algorithm", ["cc", "pagerank"])
    def test_one_delivery_barrier_and_no_scatter(
        self, rmat8, algorithm, monkeypatch
    ):
        monkeypatch.setattr(
            parallel, "_LOCAL_SUPERSTEP_ARCS", ACCOUNTED_THRESHOLD
        )
        make_program, engine_kwargs, float_values = ALGORITHMS[algorithm]
        dense = DenseBSPEngine(rmat8, **engine_kwargs).run(make_program())
        tel = Telemetry("accounted")
        with ShardedBSPEngine(
            rmat8, num_workers=2, telemetry=tel, **engine_kwargs
        ) as engine:
            sharded = engine.run(make_program())
        assert_results_equal(dense, sharded, float_values=float_values)
        accounted, scattered = _flood_forms(
            dense, rmat8.num_arcs, ACCOUNTED_THRESHOLD
        )
        if algorithm == "cc":
            assert (accounted, scattered) == ({0, 1}, {2})
        else:
            assert accounted == set(range(8)) and not scattered
        delivered = {s + 1 for s in accounted | scattered}
        # One barrier per exchange: a scatter for each scattered flood,
        # a gather (the accounted floods': a deliver) for every flood.
        assert _barrier_counts(tel) == {
            **{("scatter", s): 1 for s in scattered},
            **{("gather", s): 1 for s in delivered},
        }

    @pytest.mark.parametrize("threshold", [503, 502], ids=["at", "below"])
    def test_bfs_pays_no_exchange_for_an_accounted_flood(
        self, rmat8, threshold, monkeypatch
    ):
        """BFS(0)'s widest flood (superstep 1) takes 2 163 of the 2 666
        arcs and leaves out 503.  At a threshold of 503 the parent
        accounts it, and BFS, which never reads its messages, records no
        barrier at all; one arc lower it is a scatter exchange.  SSSP's
        floods are the same, and it reads them: one delivery."""
        monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", threshold)
        for make_program, reads in (
            (lambda: DenseBreadthFirstSearch(0), False),
            (lambda: DenseShortestPaths(0), True),
        ):
            dense = DenseBSPEngine(rmat8).run(make_program())
            assert dense.messages_per_superstep == [117, 2163, 382, 4, 0]
            tel = Telemetry("bfs")
            with ShardedBSPEngine(
                rmat8, num_workers=2, telemetry=tel
            ) as engine:
                sharded = engine.run(make_program())
            assert_results_equal(dense, sharded)
            assert _local_decisions(tel)[1] == 0
            expected = {("gather", 2): 1} if reads else {}
            if threshold == 502:
                expected[("scatter", 1)] = 1
            assert _barrier_counts(tel) == expected

    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    @pytest.mark.parametrize("partition", POLICIES)
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4], ids=lambda w: f"w{w}")
    def test_matches_dense_with_the_rule_firing(
        self, rmat8, num_workers, partition, check, monkeypatch
    ):
        monkeypatch.setattr(
            parallel, "_LOCAL_SUPERSTEP_ARCS", ACCOUNTED_THRESHOLD
        )
        aggregators = {"dangling": SumAggregator()}
        with ShardedBSPEngine(
            rmat8,
            num_workers=num_workers,
            partition=partition,
            check=check,
            aggregators=aggregators,
        ) as engine:
            for algorithm in sorted(ALGORITHMS):
                make_program, _, float_values = ALGORITHMS[algorithm]
                dense = DenseBSPEngine(rmat8, aggregators=aggregators).run(
                    make_program()
                )
                assert_results_equal(
                    dense,
                    engine.run(make_program()),
                    float_values=float_values and num_workers > 1,
                )


# -- small supersteps on a high-diameter graph -----------------------------

#: name -> (reference program, dense program): a grid's BFS, SSSP and CC
#: run ~2 x 12 supersteps that each flood a few dozen arcs.
GRID_ALGORITHMS = {
    "bfs": (lambda: BSPBreadthFirstSearch(0), lambda: DenseBreadthFirstSearch(0)),
    "sssp": (lambda: BSPShortestPaths(0), lambda: DenseShortestPaths(0)),
    "cc": (BSPConnectedComponents, DenseConnectedComponents),
}


class TestHighDiameter:
    @pytest.fixture(scope="class")
    def grid(self):
        return two_d_grid(12, 12)

    @pytest.fixture(scope="class")
    def reference(self, grid):
        results = {}
        for name, (make_program, _) in GRID_ALGORITHMS.items():
            result = BSPEngine(grid).run(make_program())
            result.values = [UNREACHED if v is None else v for v in result.values]
            results[name] = result
        return results

    @pytest.mark.parametrize("fan_out", [True, False], ids=["fan-out", "local"])
    def test_grid_small_supersteps_match_everywhere(
        self, grid, reference, fan_out, monkeypatch
    ):
        """Dense and sharded W = 1 / 2 under both placements reproduce
        the reference engine superstep by superstep, whether every tiny
        superstep goes to the workers or stays in the parent."""
        if fan_out:
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", 0)
        engines = [DenseBSPEngine(grid)] + [
            ShardedBSPEngine(grid, num_workers=w, partition=policy)
            for w in (1, 2)
            for policy in POLICIES
        ]
        try:
            for name, (_, make_program) in GRID_ALGORITHMS.items():
                assert reference[name].num_supersteps > 20
                for engine in engines:
                    assert_results_equal(
                        reference[name], engine.run(make_program())
                    )
        finally:
            for engine in engines:
                engine.close()


# -- construction & selection ----------------------------------------------


class TestEngineSelection:
    def test_make_engine_modes(self):
        g = star_graph(4)
        dense = make_engine(g)
        assert type(dense) is DenseBSPEngine
        dense.close()
        with make_engine(g, "sharded", num_workers=2) as engine:
            assert isinstance(engine, ShardedBSPEngine)
            assert engine.num_workers == 2
        with make_engine(g, num_workers=2) as engine:
            assert isinstance(engine, ShardedBSPEngine)
        with pytest.raises(ValueError, match="mode"):
            make_engine(g, "turbo")

    def test_invalid_partition_policy(self):
        g = star_graph(4)
        with pytest.raises(ValueError, match="partition"):
            ShardedBSPEngine(g, num_workers=2, partition="nope")

    def test_invalid_assignment_shape(self):
        g = star_graph(4)
        with pytest.raises(ValueError, match="one entry per vertex"):
            ShardedBSPEngine(g, num_workers=2, partition=np.zeros(3))

    def test_assignment_out_of_range(self):
        g = star_graph(4)
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ShardedBSPEngine(
                g, num_workers=2, partition=np.full(5, 7, dtype=np.int64)
            )

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="num_workers"):
            ShardedBSPEngine(star_graph(4), num_workers=0)

    def test_constructor_surface(self):
        """The option census: ten keywords, none of them a wire format
        or a start method — and no environment variable stands in.
        Supervision has no off switch: the recorder is an instance (a
        default one when omitted), never a bool, and the stall deadline
        a positive number of seconds (``STALL_TIMEOUT`` when omitted)."""
        assert list(inspect.signature(ShardedBSPEngine).parameters) == [
            "graph", "num_workers", "partition", "check", "flight_recorder",
            "stall_timeout", "combine_messages", "frontier_policy",
            "aggregators", "costs", "telemetry",
        ]
        for kwarg in ("wire", "start_method"):
            with pytest.raises(TypeError, match=kwarg):
                ShardedBSPEngine(star_graph(4), **{kwarg: None})
        for switch in (False, True):
            with pytest.raises(TypeError, match="FlightRecorder"):
                ShardedBSPEngine(star_graph(4), flight_recorder=switch)
        with pytest.raises(ValueError, match="stall_timeout"):
            ShardedBSPEngine(star_graph(4), stall_timeout=0)
