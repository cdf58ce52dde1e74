"""Frontier-adaptive BFS.

The performance claim from the frontier work, gated by the bench
ledger: the pre-frontier BFS always swept the whole arc array and
materialized the inbox every superstep.  The adaptive run switches to
sparse selections on small frontiers and never reads the inbox (it
filters the engine's receiver set), with bit-identical distances and
modeled message counts — only wall time changes.  The same BFS over two
shard workers, every superstep made to fan out (at ledger scale the
engine would otherwise keep them all in the parent), must agree too.
"""

import time
from unittest import mock

from _emit import emit_bench
from conftest import once

import numpy as np

from repro.analysis.report import format_seconds
from repro.bsp import (
    DenseBSPEngine,
    FrontierPolicy,
    ShardedBSPEngine,
    parallel,
)
from repro.bsp_algorithms import DenseBreadthFirstSearch

#: Timing repetitions per strategy (min is reported — the ledger gates
#: the ratio, so the estimator must be stable at reduced CI scale).
REPS = 3


class _EagerBFS(DenseBreadthFirstSearch):
    """Pre-frontier execution: an eagerly delivered inbox.

    Reading ``ctx.messages`` forces the payload gather and combiner fold
    the lazy inbox otherwise skips; paired with a dense-forced policy
    this reproduces the engine's per-superstep work before the frontier
    abstraction (results are bit-identical either way).
    """

    def compute(self, ctx):
        if ctx.superstep > 0:
            ctx.messages
        return super().compute(ctx)


def bench_frontier(benchmark, workload, capsys):
    graph = workload.graph
    source = int(np.argmax(graph.degrees()))

    def timed(make_engine, make_program):
        best, result = np.inf, None
        for _ in range(REPS):
            program = make_program()
            with make_engine() as engine:
                t0 = time.perf_counter()
                result = engine.run(program)
                best = min(best, time.perf_counter() - t0)
        return best, result

    def run():
        # Legacy execution: full-mask selection, eager delivery.
        t_legacy, legacy = timed(
            lambda: DenseBSPEngine(
                graph, frontier_policy=FrontierPolicy(mode="dense")
            ),
            lambda: _EagerBFS(source),
        )
        # Adaptive execution: GBBS mode switch, inbox never read.
        t_adaptive, adaptive = timed(
            lambda: DenseBSPEngine(graph),
            lambda: DenseBreadthFirstSearch(source),
        )
        # The same BFS over 2 workers, every superstep on the pipes.
        with mock.patch.object(parallel, "_LOCAL_SUPERSTEP_ARCS", 0):
            with ShardedBSPEngine(graph, num_workers=2) as engine:
                sharded = engine.run(DenseBreadthFirstSearch(source))
                pipe_bytes = engine.pipe_bytes
        return legacy, adaptive, t_legacy, t_adaptive, pipe_bytes, sharded

    legacy, adaptive, t_legacy, t_adaptive, pipe_bytes, sharded = once(
        benchmark, run
    )

    # Same computation under every execution strategy, not merely the
    # same distances.
    assert np.array_equal(legacy.values, adaptive.values)
    assert legacy.num_supersteps == adaptive.num_supersteps
    assert legacy.messages_per_superstep == adaptive.messages_per_superstep
    assert np.array_equal(adaptive.values, sharded.values)
    assert pipe_bytes > 0

    speedup = t_legacy / t_adaptive
    info = dict(
        supersteps=adaptive.num_supersteps,
        messages=sum(adaptive.messages_per_superstep),
        seconds={
            "legacy": round(t_legacy, 4),
            "adaptive": round(t_adaptive, 4),
        },
        speedup=round(speedup, 2),
    )
    benchmark.extra_info.update(info)
    emit_bench(
        "frontier",
        config={
            "algorithm": "bfs",
            "scale": workload.config.scale,
            "edge_factor": workload.config.edge_factor,
            "seed": workload.config.seed,
            "source": source,
        },
        data=info,
    )
    with capsys.disabled():
        print(
            f"\nfrontier (BFS, scale {workload.config.scale}): legacy "
            f"{format_seconds(t_legacy)} -> adaptive "
            f"{format_seconds(t_adaptive)} ({speedup:.1f}x); "
            f"{pipe_bytes:,} B on the pipes at 2 workers"
        )
