"""Bulk synchronous parallel (Pregel-style) vertex-centric framework.

The programming model the paper investigates (§II): a computation is a
sequence of **supersteps**; in each superstep an active vertex

1. receives the messages sent to it in the previous superstep,
2. performs local computation and may update its state,
3. sends messages that will be delivered in the *next* superstep,

and may **vote to halt** — it then stays inactive until a message
re-activates it.  Messages crossing superstep boundaries make the model
deadlock-free by construction, at the price of computing on stale data
(the effect behind the paper's connected-components iteration blow-up).

Three engines share these semantics:

* :class:`~repro.bsp.engine.BSPEngine` — the reference engine: runs any
  user :class:`~repro.bsp.vertex.VertexProgram` one vertex at a time in
  pure Python.  The readable rendition of the paper's pseudocode.
* :class:`~repro.bsp.dense.DenseBSPEngine` — the array-mode fast path:
  runs a :class:`~repro.bsp.dense.DenseVertexProgram` (whole-superstep
  NumPy kernels) with a combiner-fused scatter/gather.  The benchmark
  path behind :mod:`repro.bsp_algorithms`.
* :class:`~repro.bsp.parallel.ShardedBSPEngine` — the multi-worker
  path: the same dense programs with scatter/gather fanned out over a
  pool of OS processes sharing the CSR through
  :mod:`multiprocessing.shared_memory`.  The measured counterpart of
  the paper's 1–128 processor strong-scaling study.

All engines record the same instrumentation (messages per superstep,
active vertices, per-destination queue pressure) into an XMT work trace
and produce identical :class:`~repro.bsp.engine.BSPResult` s for
equivalent programs — asserted by the equivalence suite.
"""

from repro.bsp.aggregators import (
    Aggregator,
    LogicalAndAggregator,
    LogicalOrAggregator,
    MaxAggregator,
    MinAggregator,
    SumAggregator,
)
from repro.bsp.checkpoint import (
    Checkpoint,
    CheckpointStore,
    load_checkpoint,
    save_checkpoint,
)
from repro.bsp.combiners import (
    Combiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.bsp.dense import (
    DenseBSPEngine,
    DenseSuperstepContext,
    DenseVertexProgram,
)
from repro.bsp.engine import BSPEngine, BSPResult
from repro.bsp.frontier import (
    DEFAULT_FRONTIER_POLICY,
    FrontierPolicy,
)
from repro.bsp.messages import MessageBuffer
from repro.bsp.parallel import (
    PARTITION_POLICIES,
    ShardedBSPEngine,
    ShardedWorkerError,
    ShardedWriteRaceError,
)
from repro.bsp.vertex import VertexContext, VertexProgram

#: Engine selection modes accepted by :func:`make_engine`.
ENGINE_MODES = ("dense", "sharded")


def engine_for(graph, engine=None):
    """The engine an algorithm wrapper runs on: the caller's warm
    ``engine`` (left open), else a default :class:`DenseBSPEngine`.

    A caller's engine must have been built on the *same* graph object —
    running a program against a different graph's shared-memory CSR
    would silently compute on the wrong topology.
    """
    if engine is None:
        return DenseBSPEngine(graph)
    if engine.graph is not graph:
        raise ValueError(
            "engine was built on a different graph object; warm "
            "engines are bound to the CSR they froze at construction"
        )
    return engine


def make_engine(graph, mode="dense", *, num_workers=None, **kwargs):
    """Build a dense-program BSP engine by name.

    ``mode="dense"`` gives the single-process
    :class:`~repro.bsp.dense.DenseBSPEngine`; ``mode="sharded"`` the
    multi-process :class:`~repro.bsp.parallel.ShardedBSPEngine`.  As a
    convenience, ``mode="dense"`` with ``num_workers`` > 1 upgrades to
    the sharded engine, so callers can thread one worker-count knob
    through.  Extra keyword arguments pass to the engine constructor.
    """
    if mode not in ENGINE_MODES:
        raise ValueError(f"mode must be one of {ENGINE_MODES}")
    if mode == "sharded" or (num_workers is not None and num_workers > 1):
        return ShardedBSPEngine(graph, num_workers=num_workers, **kwargs)
    kwargs.pop("partition", None)
    return DenseBSPEngine(graph, **kwargs)


__all__ = [
    "DEFAULT_FRONTIER_POLICY",
    "ENGINE_MODES",
    "FrontierPolicy",
    "PARTITION_POLICIES",
    "ShardedBSPEngine",
    "ShardedWorkerError",
    "ShardedWriteRaceError",
    "engine_for",
    "make_engine",
    "Aggregator",
    "BSPEngine",
    "BSPResult",
    "Checkpoint",
    "CheckpointStore",
    "Combiner",
    "DenseBSPEngine",
    "DenseSuperstepContext",
    "DenseVertexProgram",
    "load_checkpoint",
    "save_checkpoint",
    "LogicalAndAggregator",
    "LogicalOrAggregator",
    "MaxAggregator",
    "MaxCombiner",
    "MessageBuffer",
    "MinAggregator",
    "MinCombiner",
    "SumAggregator",
    "SumCombiner",
    "VertexContext",
    "VertexProgram",
]
