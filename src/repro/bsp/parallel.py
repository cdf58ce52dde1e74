"""Sharded multi-process execution of dense BSP programs.

The paper's central experiment is strong scaling from 1 to 128 XMT
processors, but :class:`~repro.bsp.dense.DenseBSPEngine` executes every
superstep on one core.  This module adds the multi-worker path: a
:class:`ShardedBSPEngine` that runs the *same*
:class:`~repro.bsp.dense.DenseVertexProgram` s with the edge-proportional
scatter/gather work fanned out over a pool of OS processes —
the standard partitioned-frontier + merged-exchange route from one core
to many (Buluç & Madduri's distributed BFS; Pregel's worker model).

Design:

* **A worker owns its arcs** — the frozen CSR goes into
  :mod:`multiprocessing.shared_memory` once at pool start, arcs grouped
  by owning worker (:func:`_shard_layout`); each worker maps its range
  read-only as its shard's sub-CSR, so its sweeps are O(m / W) and a flood
  of its whole shard is a slice.  The per-vertex ``values`` array is
  shared too: the parent's ``compute`` updates reach workers with no copy.
* **Run blocks belong to the engine** — ``values``, the per-worker
  ``gathered`` output and (``check=True``) the ``shadow`` copies live in
  shared blocks the engine creates at its first run and keeps until
  :meth:`~ShardedBSPEngine.close`.  Each run re-views them with its own
  dtypes and names them in its install; a block is replaced only when a
  run needs more bytes than it holds, and the workers attach a block once
  per name.  So ``engine.values`` is run state the next run overwrites;
  a :class:`~repro.bsp.engine.BSPResult` holds a copy.
* **Vertex partitioning** — vertices are assigned to workers with the
  cluster placement policies (:func:`~repro.cluster.partition.hash_partition`
  or :func:`~repro.cluster.partition.balanced_edge_partition`); the
  parent marks a fanned-out superstep's sender set in one shared n-byte
  ``senders`` bitmap, and each worker reads its own shard's senders off
  it and floods only their out-arcs, using the frontier-adaptive arc
  selection (:mod:`repro.bsp.frontier`) the parent chose for the
  superstep — for a complement, each worker leaves out the rows of its
  own quiet vertices (``owned & ~senders``) and never lists a sender.
  The parent never splits the set.
* **Combiner merge at the barrier** — each worker folds its shard's
  messages into a private per-destination array; the parent merges the
  per-worker arrays with the program's combiner (``np.minimum`` /
  ``np.add``), which is exactly the fold the dense engine computes in
  one pass.  Enqueue histograms merge by summation, so the superstep
  accounting fed to :func:`~repro.bsp.instrumentation.record_superstep`
  is *identical* to the dense engine's at any worker count — results,
  message histories and work traces stay equivalent (bit-identical for
  every exact fold; PageRank's float summation order may differ in the
  last ulp across shard boundaries, same as dense-vs-reference).
  Delivery is lazy (see :meth:`DenseBSPEngine._gather`): the gather
  exchange and combine only run if the program reads ``ctx.messages``,
  so a message-free superstep costs its scatter round-trip at most.
* **Persistent pool, fixed-size frames** — workers live for the
  engine's lifetime (:mod:`repro.bsp._worker`) and keep their shard's
  arc selection between the scatter accounting and the delivery at the
  next barrier.  Every exchange is one round-trip of 18-byte binary
  frames (:mod:`repro.bsp._wire`) that carry no vertex ids, counted in
  :attr:`ShardedBSPEngine.pipe_bytes`, and a fanned-out superstep costs
  at most two of them: a scatter, then a gather if the program reads its
  messages.  A run costs no exchange of its own: its install (the
  pickled program and block names, made once per run) rides in a
  ``run`` frame around each worker's first task, so a run that stays in
  the parent sends nothing, and a worker no flood of the run reaches is
  not installed for it.
* **Near-full floods cost one exchange** — when a flood leaves out at
  most :data:`_LOCAL_SUPERSTEP_ARCS` arcs (every PageRank round, CC's
  first ones), the parent takes its histogram from the in-degree vector
  less the quiet rows, as the dense engine does, and sends no scatter.
  A program that reads the messages gets one ``deliver`` exchange, in
  which each worker selects its shard's flood off the bitmap and folds
  it; one that does not (BFS) pays no exchange for the flood at all.
* **Small supersteps stay in the parent** — a flood of at most
  :data:`_LOCAL_SUPERSTEP_ARCS` arcs (the flat tails of the paper's
  Fig. 2/3, most supersteps of a BFS or SSSP) is accounted and delivered
  by the inherited dense hooks: no frames, no barrier, same numbers.
  The choice is made per superstep from its own arc count and recorded
  as the ``local_superstep`` telemetry counter.

The engine subclasses :class:`DenseBSPEngine` and overrides only the
scatter/gather hooks; the run loop — active-set selection, vote-to-halt,
termination, aggregators, checkpoint/resume (checkpoints interchange
freely with the dense engine) — is inherited verbatim.  The processes,
pipes, shared blocks and their supervision, including what a failed
exchange leaves behind, are :class:`repro.bsp._pool.WorkerPool`.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Any, Callable

import numpy as np

from repro.bsp._pool import WorkerPool, release_block, shared_array
from repro.bsp._scatter import complement_histogram, receivers_of
from repro.bsp._wire import (
    OkReply,
    ShardedWorkerError,
    WorkerStallError,
    pack_install,
)
from repro.bsp.dense import DenseBSPEngine, DenseVertexProgram
from repro.bsp.frontier import FrontierPolicy
from repro.cluster.partition import balanced_edge_partition, hash_partition
from repro.graph.csr import CSRGraph, arc_indices
from repro.telemetry.core import Telemetry, worker_track
from repro.telemetry.flightrec import FlightRecorder
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts

__all__ = [
    "PARTITION_POLICIES",
    "STALL_TIMEOUT",
    "ShardedBSPEngine",
    "ShardedWorkerError",
    "ShardedWriteRaceError",
    "WorkerStallError",
]

#: Placement policies understood by :class:`ShardedBSPEngine`.
PARTITION_POLICIES = ("hash", "balanced-edge")

#: Default seconds of worker silence a barrier tolerates before it
#: raises :class:`WorkerStallError` (``ShardedBSPEngine(stall_timeout=)``
#: and ``repro serve --stall-timeout``).
STALL_TIMEOUT = 30.0


class ShardedWriteRaceError(RuntimeError):
    """Two shard workers wrote conflicting values to shared state.

    Raised at the gather barrier by the write-race detector
    (``ShardedBSPEngine(check=True)``) when
    per-worker write-sets over the shared ``values`` array overlap with
    differing values — the outcome of the corresponding unchecked run
    would depend on worker scheduling.

    Attributes
    ----------
    superstep:
        Superstep index at whose barrier the conflict was detected.
    conflicts:
        ``[(vertex, {worker: value}), ...]`` for each conflicting
        vertex (capped; see the message for the total).
    """

    def __init__(
        self,
        message: str,
        *,
        superstep: int,
        conflicts: list[tuple[int, dict[int, Any]]],
    ) -> None:
        super().__init__(message)
        self.superstep = superstep
        self.conflicts = conflicts


#: Largest number of arcs the parent handles itself instead of paying an
#: exchange for them.  A flood of at most this many arcs (out of a
#: superstep's senders) is accounted and delivered through the inherited
#: dense hooks, with no exchange; a flood that leaves out at most this
#: many (every full flood included) is accounted by the parent from the
#: in-degree vector less the left-out arcs, with no scatter exchange,
#: and the workers select it only when it is delivered.  An exchange
#: costs ~0.3 ms of frame/wake-up overhead however little the workers
#: then do (~0.4 ms when this was set), and the parent's own pass ~6-10
#: ns per arc it touches plus ~0.05 ms.  2^14 was the largest power of
#: two at which that pass stayed under the overhead, so the parent wins
#: however many workers would have shared the work; at today's figures
#: 2^15 would also qualify (measurements in docs/MODEL.md).
_LOCAL_SUPERSTEP_ARCS = 1 << 14

#: Scatter, gather and deliver frames name a generation, not senders: a
#: scatter's or a deliver's senders are in the shared ``senders`` bitmap,
#: and a gather delivers the selection the worker cached at the scatter
#: exchange that always precedes it.
_NO_SENDERS = np.empty(0, dtype=np.int64)


def _shard_layout(
    graph: CSRGraph, assignment: np.ndarray, num_workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """The arcs regrouped by owning worker, in O(m): ``(order, row_ptr)``.

    ``order`` lists worker 0's out-arcs, then worker 1's, ..., each group
    in ascending arc order; row ``w`` of ``row_ptr`` indexes group ``w``
    from 0 over the global vertex ids (other workers' rows are empty).
    """
    order = arc_indices(np.argsort(assignment, kind="stable"), graph.row_ptr)
    row_ptr = np.zeros((num_workers, graph.num_vertices + 1), dtype=np.int64)
    for w, row in enumerate(row_ptr):
        np.cumsum(np.where(assignment == w, graph.degrees(), 0), out=row[1:])
    return order, row_ptr


def _pool_view(name: str, doc: str) -> property:
    """A read-only engine attribute (or method) that lives on the pool."""
    return property(lambda self: getattr(self._pool, name), doc=doc)


class ShardedBSPEngine(DenseBSPEngine):
    """Multi-process sibling of :class:`DenseBSPEngine`.

    Same constructor contract, same ``run`` signature, same
    :class:`~repro.bsp.engine.BSPResult`, interchangeable checkpoints —
    but each superstep's scatter/gather executes as per-shard dense
    kernels on a persistent worker pool, unless its flood is small
    enough (:data:`_LOCAL_SUPERSTEP_ARCS`) that the parent's own pass is
    cheaper than the round trip.  Close the engine (or use it as a
    context manager) to release the workers and shared memory.

    Parameters
    ----------
    graph:
        The input graph, frozen into shared memory at construction.
    num_workers:
        Worker process count (default: the host's CPU count).
    partition:
        ``"hash"`` (Pregel's default placement), ``"balanced-edge"``
        (degree-aware greedy placement), or an explicit per-vertex
        machine assignment array with ids in ``[0, num_workers)``.
    check:
        Enable the write-race detector: every worker runs
        ``arc_payload`` on a private copy of the shared ``values`` and
        the parent diffs the per-worker write-sets at each barrier
        (:meth:`_audit_write_sets`).  Conflicting writes raise
        :class:`ShardedWriteRaceError`, any other write warns.
        Well-behaved programs produce bit-identical results with the
        mode on or off, at the cost of one values-array copy per worker
        per delivering superstep — and of every superstep fanning out,
        however small (the audit is about worker writes).
    flight_recorder:
        An unbound :class:`~repro.telemetry.flightrec.FlightRecorder`
        the engine opens and closes (default: one with default
        settings).  The workers record to its shared-memory rings
        (:mod:`repro.telemetry.flightrec`), :meth:`worker_status`
        decodes them, and any worker crash, error or stall dumps a
        postmortem bundle to its ``postmortem_dir``.
    stall_timeout:
        Seconds of worker silence tolerated while awaiting a barrier
        reply before raising :class:`WorkerStallError` (default:
        :data:`STALL_TIMEOUT`, read when the engine is built).  Silence
        is measured on the worker's ring from the task's send, so
        progress ticks keep a slow but live worker alive.  :meth:`close`
        bounds each shutdown step by it too (at most 5 s), so shutdown
        cannot hang on a wedged worker.
    combine_messages, frontier_policy, aggregators, costs, telemetry:
        As for :class:`DenseBSPEngine`.  With telemetry enabled the
        engine additionally records per-worker busy spans (one trace
        row per worker), barrier spans around every exchange, per-worker
        busy/wait and shard-size counters, per-barrier straggler skew
        (``straggler_skew_ns`` / ``straggler_count``) and per-superstep
        ``pipe_bytes``.

    A stalled, dead or garbled worker ends the engine, not just the run:
    every later ``run`` raises :class:`ShardedWorkerError` naming the
    first failure (:mod:`repro.bsp._pool`).  A program error reported by
    a worker does not.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        num_workers: int | None = None,
        partition: str | np.ndarray = "hash",
        check: bool = False,
        flight_recorder: FlightRecorder | None = None,
        stall_timeout: float | None = None,
        combine_messages: bool = False,
        frontier_policy: FrontierPolicy | None = None,
        aggregators: dict | None = None,
        costs: KernelCosts = DEFAULT_COSTS,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(
            graph,
            combine_messages=combine_messages,
            frontier_policy=frontier_policy,
            aggregators=aggregators,
            costs=costs,
            telemetry=telemetry,
        )
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        num_workers = int(num_workers)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        #: Write-race detector state (see the ``check`` parameter).
        self.check = bool(check)
        stall_timeout = float(
            STALL_TIMEOUT if stall_timeout is None else stall_timeout
        )
        if not 0 < stall_timeout < float("inf"):
            raise ValueError("stall_timeout must be positive and finite")
        #: Stall deadline in seconds.
        self.stall_timeout = stall_timeout
        if not isinstance(flight_recorder, (FlightRecorder, type(None))):
            raise TypeError(
                "flight_recorder must be a FlightRecorder, not "
                f"{type(flight_recorder).__name__}"
            )
        #: The attached :class:`~repro.telemetry.flightrec.FlightRecorder`.
        #: The engine owns its open/close.
        self.flight_recorder = flight_recorder or FlightRecorder()

        if isinstance(partition, str):
            if partition == "hash":
                assignment = hash_partition(graph, num_workers)
            elif partition == "balanced-edge":
                assignment = balanced_edge_partition(graph, num_workers)
            else:
                raise ValueError(
                    f"partition must be one of {PARTITION_POLICIES} "
                    "or an assignment array"
                )
            self.partition_policy = partition
        else:
            assignment = np.asarray(partition, dtype=np.int64)
            if assignment.shape != (graph.num_vertices,):
                raise ValueError(
                    "assignment must have one entry per vertex"
                )
            if assignment.size and (
                assignment.min() < 0 or assignment.max() >= num_workers
            ):
                raise ValueError(
                    f"machine ids must lie in [0, {num_workers})"
                )
            self.partition_policy = "custom"
        self.assignment = assignment

        self._closed = False
        # One runner at a time: the pipe protocol interleaves send/recv
        # pairs per worker, so concurrent run() calls (e.g. service job
        # threads sharing one warm engine) must serialize here.  Close
        # takes the same lock, so a shutdown waits for an in-flight run.
        self._lifecycle_lock = threading.RLock()
        # Run blocks by role ("values", "gathered", "shadow"), kept for
        # the engine's lifetime and re-viewed by every run (_begin_run).
        self._run_blocks: dict[str, Any] = {}
        # The run's pickled install, and the workers it has not reached.
        self._install = b""
        self._uninstalled: set[int] = set()
        self._gathered: np.ndarray | None = None
        self._shadow: np.ndarray | None = None
        self._shard_mode: str | None = None
        self._participants: tuple[int, ...] = ()
        # Whether the pending flood was accounted by the parent, so its
        # workers select it at delivery (see _fan_out).
        self._delivers = False
        self._generation = 0
        n = graph.num_vertices
        order, row_ptr = _shard_layout(graph, assignment, num_workers)
        self._pool = WorkerPool(
            num_workers,
            {
                "num_vertices": n,
                # Worker w's arcs are [arc_bounds[w], arc_bounds[w + 1]).
                "arc_bounds": [0, *np.cumsum(row_ptr[:, -1]).tolist()],
                "sorted_adjacency": graph.sorted_adjacency,
            },
            {
                "row_ptr": row_ptr,
                "col_idx": graph.col_idx[order],
                "weights": None if graph.weights is None
                else graph.weights[order],
                # Row w: worker w's per-destination scatter histogram.
                "hist": np.zeros((num_workers, n), dtype=np.int64),
                # The fanned-out superstep's sender set, marked by the
                # parent and read by every worker.
                "senders": np.zeros(n, dtype=np.bool_),
            },
            recorder=self.flight_recorder,
            stall_timeout=stall_timeout,
            describe=self._describe(),
        )
        self._hist = self._pool.arrays["hist"]
        self._senders = self._pool.arrays["senders"]

    pipe_bytes = _pool_view(
        "pipe_bytes", "Cumulative frame bytes on the worker pipes."
    )
    stall_detected = _pool_view(
        "stall_detected", "True once any worker tripped the stall deadline."
    )
    stall_events = _pool_view(
        "stall_events", "Distinct stall detections (watchdog + recv loop)."
    )
    superstep_skew_seconds = _pool_view(
        "superstep_skew_seconds",
        "Last completed barrier's slowest-vs-median worker gap, seconds.",
    )
    workers_alive = _pool_view(
        "workers_alive",
        "Worker processes alive: fewer than ``num_workers`` on an open "
        "engine means one died; 0 after :meth:`close`.",
    )

    worker_status = _pool_view(
        "worker_status", "See :meth:`WorkerPool.worker_status`."
    )
    drain_skew_samples = _pool_view(
        "drain_skew_samples", "See :meth:`WorkerPool.drain_skew_samples`."
    )

    def _describe(self) -> dict:
        """The ``engine`` / ``partition`` sections of a postmortem bundle."""
        partition = {
            "policy": self.partition_policy,
            "num_workers": self.num_workers,
            "shard_sizes": np.bincount(
                self.assignment, minlength=self.num_workers
            ).tolist(),
        }
        # The full map is O(vertices); embed it only when small enough
        # to keep bundles readable, the shard sizes always.
        if self.assignment.size <= 4096:
            partition["assignment"] = self.assignment.tolist()
        return {
            "engine": {
                "pid": os.getpid(),
                "engine": type(self).__name__,
                "num_workers": self.num_workers,
                "check": self.check,
                "stall_timeout": self.stall_timeout,
                "num_vertices": int(self.graph.num_vertices),
                "num_arcs": int(self.graph.num_arcs),
            },
            "partition": partition,
        }

    def _exchange(
        self, tasks: dict[int, tuple], phase: str = "control"
    ) -> dict[int, OkReply]:
        """One pool exchange, stamped with where the run is; a worker's
        first task of the run carries the run's install."""
        uninstalled = self._uninstalled
        if uninstalled:
            tasks = {
                w: ("run", self._install, task) if w in uninstalled else task
                for w, task in tasks.items()
            }
            uninstalled.difference_update(tasks)
        return self._pool.exchange(
            tasks,
            phase=phase,
            tel=self.telemetry,
            superstep=self._tel_superstep,
            generation=self._generation,
        )

    def _audit_write_sets(
        self,
        snapshot: np.ndarray,
        participants: tuple[int, ...],
        superstep: int,
    ) -> None:
        """Diff worker shadow copies against the pre-gather snapshot.

        ``arc_payload`` must treat the shared ``values`` array as
        read-only: workers run concurrently over the same block, so any
        write is scheduling-dependent.  Overlapping writes that disagree
        raise :class:`ShardedWriteRaceError`; writes that never collide
        (or collide with equal values) are still a hazard — they only
        stayed benign for this partition — and emit a RuntimeWarning.
        """
        shadow = self._shadow
        assert shadow is not None
        is_float = np.issubdtype(snapshot.dtype, np.floating)
        write_masks: dict[int, np.ndarray] = {}
        for w in participants:
            changed = shadow[w] != snapshot
            if is_float:  # NaN-to-NaN is not a write
                changed &= ~(np.isnan(shadow[w]) & np.isnan(snapshot))
            if changed.any():
                write_masks[w] = changed
        if not write_masks:
            return
        writers = np.zeros(snapshot.shape[0], dtype=np.int64)
        for mask in write_masks.values():
            writers += mask
        conflicts: list[tuple[int, dict[int, Any]]] = []
        for vertex in np.flatnonzero(writers >= 2).tolist():
            values_by_worker = {
                w: shadow[w][vertex].item()
                for w, mask in write_masks.items()
                if mask[vertex]
            }
            distinct = {
                repr(v) for v in values_by_worker.values()
            }
            if len(distinct) > 1:
                conflicts.append((vertex, values_by_worker))
        if conflicts:
            shown = ", ".join(
                f"vertex {vertex}: " + ", ".join(
                    f"worker {w} wrote {value!r}"
                    for w, value in sorted(values_by_worker.items())
                )
                for vertex, values_by_worker in conflicts[:10]
            )
            raise ShardedWriteRaceError(
                f"superstep {superstep}: {len(conflicts)} vertex/vertices "
                "written concurrently with differing values by "
                f"{len(write_masks)} worker(s) [{shown}]",
                superstep=superstep,
                conflicts=conflicts,
            )
        counts = ", ".join(
            f"worker {w}: {int(mask.sum())} vertex/vertices"
            for w, mask in sorted(write_masks.items())
        )
        warnings.warn(
            f"superstep {superstep}: arc_payload wrote to the shared "
            f"values array ({counts}); the hook must be read-only — "
            "these writes happened not to conflict under this "
            "partition, but are scheduling-dependent in unchecked runs",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- engine hooks ----------------------------------------------------
    def _begin_run(
        self, program: DenseVertexProgram, values: np.ndarray
    ) -> None:
        shape = (self.num_workers, self.graph.num_vertices)
        layouts = {
            "values": (values.shape, values.dtype),
            "gathered": (shape, program.message_dtype),
        }
        if self.check:
            layouts["shadow"] = (shape, values.dtype)
        # The blocks belong to the engine: a run re-views its
        # predecessor's with its own dtypes, so a warm engine neither
        # creates, faults in nor unlinks shared memory per run, and the
        # workers attach nothing new.  A block is replaced only when the
        # run needs more bytes than it holds, and released only once
        # ``values`` (which may be a view of it) has been copied over.
        views, superseded = {}, []
        for role, (role_shape, dtype) in layouts.items():
            dtype = np.dtype(dtype)
            nbytes = int(np.prod(role_shape)) * dtype.itemsize
            shm = self._run_blocks.get(role)
            if shm is None or shm.size < nbytes:
                if shm is not None:
                    superseded.append(shm)
                shm, _ = shared_array(role_shape, dtype)
                self._run_blocks[role] = shm
            views[role] = np.ndarray(role_shape, dtype=dtype, buffer=shm.buf)
        views["values"][...] = values
        # compute() mutates ctx.values in place, so parent-side updates
        # land directly in the block the workers read payloads from.
        self.values = views["values"]
        self._gathered = views["gathered"]
        self._shadow = views.get("shadow")
        for shm in superseded:
            release_block(shm)
        blocks = self._run_blocks
        # Sent with each worker's first task of the run (_exchange): a
        # run that stays in the parent sends nothing.
        self._install = pack_install(
            program,
            blocks["values"].name,
            values.dtype.str,
            blocks["gathered"].name,
            blocks["shadow"].name if self.check else None,
        )
        self._uninstalled = set(range(self.num_workers))

    def _scatter_reset(self) -> None:
        super()._scatter_reset()
        self._shard_mode = None
        self._participants = ()
        self._delivers = False

    def _runs_locally(self, flood_arcs: int) -> bool:
        """Whether a flood of ``flood_arcs`` arcs stays in the parent.

        Small floods (see :data:`_LOCAL_SUPERSTEP_ARCS`) are accounted
        and delivered by the inherited dense hooks: no frames, no
        barrier.  Check mode audits *worker* writes, so it always fans
        out.  The decision is the ``local_superstep`` telemetry counter.
        """
        if not flood_arcs:
            return True
        local = flood_arcs <= _LOCAL_SUPERSTEP_ARCS and not self.check
        if self.telemetry.enabled:
            self.telemetry.counter(
                "local_superstep", int(local), superstep=self._tel_superstep
            )
        return local

    def _fan_out(self, senders: np.ndarray, flood_arcs: int) -> np.ndarray:
        """Hand a flood to the workers; returns its enqueue histogram.

        The sender set goes to the workers as the shared ``senders``
        bitmap, marked here before any frame leaves: each worker reads
        its own senders off it, so a frame is 18 bytes however many
        vertices send.  A flood that leaves out at most
        :data:`_LOCAL_SUPERSTEP_ARCS` arcs is accounted here, as
        :meth:`DenseBSPEngine._select` accounts a complement: the
        in-degree vector less the quiet rows' arcs, ``O(n)`` plus the
        left-out arcs.  Every worker then selects its shard's flood when
        it delivers it, if the program reads its messages.  Any other
        flood is a scatter exchange: its histogram is the sum of the
        participants' rows, each worker's in whichever form it selected,
        and only the workers with senders take part.
        """
        graph, mask = self.graph, self._senders
        if senders.size == mask.size:
            mask[:] = True
        else:
            mask[:] = False
            mask[senders] = True
        self._shard_mode = self._choose_mode(senders, flood_arcs)
        self._pending_sel = self._pending_dst = None
        self._pending_raw = flood_arcs
        self._generation += 1
        self._delivers = graph.num_arcs - flood_arcs <= _LOCAL_SUPERSTEP_ARCS
        tel = self.telemetry
        # Senders per shard (~0.1 ms at n = 32k): a delivered flood goes
        # to every worker, so it counts them only for the trace.
        counts = np.zeros(self.num_workers, dtype=np.int64)
        if tel.enabled or not self._delivers:
            counts = np.bincount(
                self.assignment[senders], minlength=self.num_workers
            )
        if tel.enabled:
            for w, count in enumerate(counts.tolist()):
                tel.counter(
                    "shard_senders",
                    count,
                    track=worker_track(w),
                    superstep=self._tel_superstep,
                )
        if self._delivers:
            self._participants = tuple(range(self.num_workers))
            quiet = graph.degrees() > 0
            quiet &= ~mask
            left_out = arc_indices(np.flatnonzero(quiet), graph.row_ptr)
            return complement_histogram(
                graph.in_degrees(), graph.col_idx, left_out
            )
        self._participants = tuple(np.flatnonzero(counts).tolist())
        self._exchange(
            {
                w: ("scatter", self._generation, _NO_SENDERS, self._shard_mode)
                for w in self._participants
            },
            phase="scatter",
        )
        first, *rest = self._participants
        hist = self._hist[first].copy()
        for w in rest:  # row by row: no (participants, n) temporary
            hist += self._hist[w]
        return hist

    def _scatter(
        self, program: DenseVertexProgram, new_senders: np.ndarray
    ) -> tuple[int, np.ndarray | None]:
        sent_raw = self._flood_arcs(new_senders)
        if self._runs_locally(sent_raw):
            self._shard_mode = None
            return super()._scatter(program, new_senders)
        return sent_raw, self._fan_out(new_senders, sent_raw)

    def _gather(
        self,
        program: DenseVertexProgram,
        senders: np.ndarray,
        identity: Any,
    ) -> tuple[Callable[[], np.ndarray], np.ndarray, int]:
        if self._shard_mode is None and self._pending_sel is None:
            # Resumed run (or zero-arc senders): no prior scatter.
            raw = self._flood_arcs(senders)
            if not self._runs_locally(raw):
                self._pending_hist = self._fan_out(senders, raw)
        if self._shard_mode is None:
            return super()._gather(program, senders, identity)
        n = self.graph.num_vertices
        mdtype = np.dtype(program.message_dtype)
        raw = self._pending_raw
        receivers = receivers_of(self._pending_hist)
        generation = self._generation
        participants = self._participants
        mode = self._shard_mode
        # A flood no worker has selected yet is selected as it is folded.
        command = "deliver" if self._delivers else "gather"
        superstep = self._tel_superstep
        check = self.check

        def inbox() -> np.ndarray:
            snapshot = self.values.copy() if check else None
            replies = self._exchange(
                {
                    w: (command, generation, _NO_SENDERS, mode)
                    for w in participants
                },
                phase="gather",
            )
            if snapshot is not None:
                self._audit_write_sets(snapshot, participants, superstep)
            delivered = sum(reply.arcs for reply in replies.values())
            tel = self.telemetry
            gathered = np.full(n, identity, dtype=mdtype)
            # Merge the per-worker partial folds in shard order.  Exact
            # for every idempotent/integer combine; float np.add may
            # differ from the single-pass fold in the last ulp across
            # shard boundaries.
            with tel.span(
                "combine", category="phase", superstep=superstep
            ):
                for w in participants:
                    program.combine(gathered, self._gathered[w], out=gathered)
            if tel.enabled:
                tel.counter(
                    "bytes_delivered",
                    delivered * mdtype.itemsize,
                    superstep=superstep,
                )
            return gathered

        return inbox, receivers, int(raw)

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the worker pool."""
        return self._closed

    def run(self, program: DenseVertexProgram, **kwargs: Any):
        """Execute ``program`` (see :meth:`DenseBSPEngine.run`).

        The engine is reusable: call ``run`` any number of times between
        construction and :meth:`close` — the worker pool, the
        shared-memory CSR and the run blocks stay warm across runs.  Runs are serialized
        with an internal lock so a warm engine can be shared by
        multiple threads.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            return super().run(program, **kwargs)

    def close(self) -> None:
        """Shut the worker pool down and release all shared memory.

        Idempotent and thread-safe: concurrent calls (and calls racing
        an in-flight :meth:`run`) serialize on the lifecycle lock, and
        every call after the first is a no-op.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self._hist = self._senders = None
            self._pool.close()
            # Detach the engine's state from shared memory before
            # unlinking so `engine.values` stays readable after close().
            self.values = self.values.copy()
            self._gathered = self._shadow = None
            for shm in self._run_blocks.values():
                release_block(shm)
            self._run_blocks = {}

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
