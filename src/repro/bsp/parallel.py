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

* **Zero-copy graph sharing** — the frozen CSR arrays (``row_ptr``,
  ``col_idx``, ``weights``, plus the cached per-arc source vector) are
  placed in :mod:`multiprocessing.shared_memory` once at pool start;
  every worker maps them read-only.  The per-vertex ``values`` array
  lives in a shared block too, so the parent's ``compute`` updates are
  visible to workers without any per-superstep copy.
* **Vertex partitioning** — vertices are assigned to workers with the
  cluster placement policies (:func:`~repro.cluster.partition.hash_partition`
  or :func:`~repro.cluster.partition.balanced_edge_partition`); a
  superstep's sender set is split along that assignment and each worker
  floods only its shard's out-arcs, using the frontier-adaptive arc
  selection (:mod:`repro.bsp.frontier`) the parent chose for the
  superstep.
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
  so message-free supersteps cost one pipe round-trip, not two.
* **Byte-packed pipes** — per-superstep commands cross the worker pipes
  as fixed binary frames (:mod:`repro.bsp._wire`): raw int64 sender ids
  behind a struct header instead of pickled tuples.  Bytes-on-pipe are
  accounted in :attr:`ShardedBSPEngine.pipe_bytes` and, with telemetry,
  the per-superstep ``pipe_bytes`` / ``pipe_bytes_legacy`` counters.
  ``wire="pickle"`` keeps the legacy encoding (bit-identical results).
* **Persistent pool with warm shard handles** — workers live for the
  engine's lifetime and cache their shard's arc selection between the
  scatter-accounting call and the delivery at the next superstep's
  barrier, so each superstep costs at most two small pipe round-trips,
  not a pool spawn.
* **Small supersteps stay in the parent** — a flood of at most
  :data:`_LOCAL_SUPERSTEP_ARCS` arcs (the flat tails of the paper's
  Fig. 2/3, most supersteps of a BFS or SSSP) is accounted and delivered
  by the inherited dense hooks: no frames, no barrier, same numbers.
  The choice is made per superstep from its own arc count and recorded
  as the ``local_superstep`` telemetry counter.

The engine subclasses :class:`DenseBSPEngine` and overrides only the
scatter/gather hooks; the run loop — active-set selection, vote-to-halt,
termination, aggregators, checkpoint/resume (checkpoints interchange
freely with the dense engine) — is inherited verbatim.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import warnings
from collections import deque
from multiprocessing import get_all_start_methods, get_context, shared_memory
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bsp._wire import WIRE_FORMATS, legacy_frame_size, make_wire
from repro.bsp.dense import DenseBSPEngine, DenseVertexProgram
from repro.bsp.frontier import FrontierPolicy, select_arcs
from repro.cluster.partition import (
    balanced_edge_partition,
    hash_partition,
    shard_indices,
)
from repro.graph.csr import CSRGraph
from repro.telemetry.core import Telemetry, peak_rss_bytes, worker_track
from repro.telemetry.flightrec import (
    EV_ENTER,
    EV_EXIT,
    EV_PROGRESS,
    EV_RSS,
    PH_GATHER,
    PH_IDLE,
    PH_RUN,
    PH_SCATTER,
    FlightRecorder,
    RingWriter,
    StallWatchdog,
    straggler_skew_ns,
)
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts

__all__ = [
    "PARTITION_POLICIES",
    "ShardedBSPEngine",
    "ShardedWorkerError",
    "ShardedWriteRaceError",
    "WorkerStallError",
]

#: Placement policies understood by :class:`ShardedBSPEngine`.
PARTITION_POLICIES = ("hash", "balanced-edge")


class ShardedWorkerError(RuntimeError):
    """A shard worker failed while executing its slice of a superstep.

    Attributes
    ----------
    worker_tracebacks:
        ``{worker_index: traceback_text}`` — each failed worker's
        traceback, verbatim as formatted inside the worker process.
    postmortem_path:
        Path of the flight-recorder postmortem bundle dumped for this
        failure, or None when no recorder was attached.
    """

    def __init__(
        self,
        message: str,
        *,
        worker_tracebacks: dict[int, str] | None = None,
        postmortem_path: Path | None = None,
    ) -> None:
        super().__init__(message)
        self.worker_tracebacks = dict(worker_tracebacks or {})
        self.postmortem_path = postmortem_path

    @property
    def postmortem_id(self) -> str | None:
        """Bundle id usable with ``GET /debug/postmortem/<id>``."""
        if self.postmortem_path is None:
            return None
        return Path(self.postmortem_path).stem


class WorkerStallError(ShardedWorkerError):
    """A shard worker went silent past the engine's ``stall_timeout``.

    Raised from the parent's pipe-receive loop when a worker it is
    waiting on has recorded no flight-recorder event (no phase change,
    no progress tick) within ``stall_timeout`` seconds — the sharded
    signature of a wedged or livelocked shard.  ``worker`` names the
    stalled shard; the base-class ``postmortem_path`` points at the
    bundle dumped before raising.
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int | None = None,
        postmortem_path: Path | None = None,
    ) -> None:
        super().__init__(message, postmortem_path=postmortem_path)
        self.worker = worker


class ShardedWriteRaceError(RuntimeError):
    """Two shard workers wrote conflicting values to shared state.

    Raised at the gather barrier by the write-race detector
    (``ShardedBSPEngine(check=True)`` / ``REPRO_SHARDED_CHECK=1``) when
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


def _check_mode_from_env() -> bool:
    """Resolve the ``REPRO_SHARDED_CHECK`` default for ``check=None``."""
    env = os.environ.get("REPRO_SHARDED_CHECK", "").strip().lower()
    return env not in ("", "0", "false", "no", "off")


def _flight_recorder_from_env() -> bool:
    """Resolve ``REPRO_FLIGHT_RECORDER`` for ``flight_recorder=None``.

    The recorder is **default-on** (its steady cost is a handful of
    48-byte ring writes per worker per superstep); the variable exists
    to switch it off wholesale for overhead A/B runs.
    """
    env = os.environ.get("REPRO_FLIGHT_RECORDER", "").strip().lower()
    return env not in ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# Shared-memory plumbing
# ---------------------------------------------------------------------------


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block created by the parent engine.

    No resource-tracker gymnastics needed: worker processes (fork *and*
    spawn/forkserver alike) inherit the parent's tracker, whose cache is
    a per-type set — the workers' attach-time registrations deduplicate
    against the parent's create-time one, and the parent's unlink clears
    the single entry.  Unregistering here would instead corrupt that
    shared cache.
    """
    return shared_memory.SharedMemory(name=name)


def _new_block(nbytes: int) -> shared_memory.SharedMemory:
    """Create a block (shared memory rejects zero-byte segments)."""
    return shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))


def _release_block(shm: shared_memory.SharedMemory | None) -> None:
    """Unlink a block, tolerating still-exported NumPy views.

    ``close`` raises :class:`BufferError` while any array over the
    buffer is alive (e.g. a caller kept ``engine.values``); the unlink
    still proceeds — the OS frees the segment when the last mapping
    drops.
    """
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - defensive
        pass


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


#: Arc-range chunk per ``combine.at`` call when the flight recorder is
#: attached — a progress tick lands between chunks, so the parent can
#: distinguish "grinding through a huge shard" from "wedged".  Chunks
#: are applied in index order, so the fold's element ordering (and hence
#: bit-exactness vs. the single-call path) is preserved.
_PROGRESS_CHUNK_ARCS = 1 << 18

#: Largest flood (arcs out of a superstep's senders) the parent accounts
#: and delivers itself through the inherited dense hooks instead of
#: fanning out.  An exchange costs ~0.4 ms of frame/wake-up overhead
#: however little the workers then do, and the parent's own scatter or
#: delivery pass ~10 ns per arc plus ~0.1 ms: this is the largest power
#: of two at which either pass stays under that overhead, so running
#: locally wins however many workers would have shared the flood
#: (measurements in docs/MODEL.md).
_LOCAL_SUPERSTEP_ARCS = 1 << 14

#: Gather frames name a generation, not senders: the worker delivers the
#: selection it cached at the scatter exchange that always precedes.
_NO_SENDERS = np.empty(0, dtype=np.int64)

_PHASE_BY_CMD = {"run": PH_RUN, "scatter": PH_SCATTER, "gather": PH_GATHER}


def _combine_at_chunked(program, gathered_out, dst, payload, ring, step):
    """``combine.at`` in arc-order chunks, ticking progress after each."""
    total = int(dst.size)
    # A scalar / broadcast payload cannot be sliced alongside dst.
    sliceable = payload.ndim == 1 and payload.shape[0] == total
    done = 0
    while done < total:
        end = min(done + _PROGRESS_CHUNK_ARCS, total)
        chunk = payload[done:end] if sliceable else payload
        program.combine.at(gathered_out, dst[done:end], chunk)
        done = end
        ring.record(EV_PROGRESS, PH_GATHER, step, done, total)


def _worker_main(conn, spec: dict) -> None:
    """Shard worker: serve scatter/gather tasks until told to close.

    The worker owns one vertex shard implicitly — the parent only ever
    sends it the senders that live on its shard.  Warm state between
    tasks: the run-scoped program/values/output handles and the cached
    (generation, arc selection, destinations) of the last scatter,
    reused by the gather of the following superstep.  All traffic is
    encoded by the wire codec named in ``spec["wire"]``.

    When the parent attached a flight recorder (``spec["flightrec"]``),
    every task brackets itself with enter/exit events in this worker's
    shared-memory ring, samples RSS before replying, and the gather's
    combine fold ticks progress every :data:`_PROGRESS_CHUNK_ARCS` arcs
    — the breadcrumbs the parent's stall watchdog and ``repro top``
    read without any extra pipe traffic.
    """
    n = spec["num_vertices"]
    m = spec["num_arcs"]
    w = spec["worker_index"]
    wire = make_wire(spec["wire"])
    handles: list[shared_memory.SharedMemory] = []
    ring: RingWriter | None = None
    if spec.get("flightrec") is not None:
        try:
            ring = RingWriter(
                spec["flightrec"]["shm"], spec["flightrec"]["capacity"], w
            )
        except Exception:  # pragma: no cover - recording is best-effort
            ring = None

    def attach_array(name, shape, dtype):
        shm = _attach(name)
        handles.append(shm)
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    row_ptr = attach_array(spec["row_ptr"], (n + 1,), np.int64)
    col_idx = attach_array(spec["col_idx"], (m,), np.int64)
    weights = (
        attach_array(spec["weights"], (m,), np.float64)
        if spec["weights"] is not None
        else None
    )
    arc_sources = attach_array(spec["arc_sources"], (m,), np.int64)
    graph = CSRGraph(
        row_ptr=row_ptr,
        col_idx=col_idx,
        weights=weights,
        directed=spec["directed"],
        sorted_adjacency=spec["sorted_adjacency"],
    )
    # Seed the per-arc source cache from shared memory so workers don't
    # each rebuild (and privately hold) the O(arcs) expansion.
    graph._degree_cache["arc_sources"] = arc_sources
    hist_shm = _attach(spec["hist"])
    handles.append(hist_shm)
    hist_out = np.ndarray(
        (n,), dtype=np.int64, buffer=hist_shm.buf, offset=w * n * 8
    )

    program: DenseVertexProgram | None = None
    values: np.ndarray | None = None
    gathered_out: np.ndarray | None = None
    shadow_out: np.ndarray | None = None
    run_shms: list[shared_memory.SharedMemory] = []
    sel = dst = None
    generation = -1

    try:
        while True:
            msg, _ = wire.recv(conn)
            cmd = msg[0]
            if cmd == "close":
                return
            # Busy time (recv-to-reply) and the worker's peak RSS ride
            # as the last two elements of every "ok" reply, so the
            # parent's telemetry can draw per-worker rows, barrier-wait
            # skew, and per-worker memory without a second round trip.
            # The nanosecond read and the getrusage call together cost
            # ~1us per task — negligible against any superstep's work.
            t_busy = time.perf_counter_ns()
            phase = _PHASE_BY_CMD.get(cmd, PH_IDLE)
            step = int(msg[1]) if cmd in ("scatter", "gather") else -1
            if ring is not None:
                ring.record(EV_ENTER, phase, step)
            try:
                if cmd == "run":
                    (_, program, values_name, values_dtype, gathered_name,
                     *rest) = msg
                    shadow_name = rest[0] if rest else None
                    for shm in run_shms:
                        shm.close()
                    vshm = _attach(values_name)
                    gshm = _attach(gathered_name)
                    run_shms = [vshm, gshm]
                    vdtype = np.dtype(values_dtype)
                    values = np.ndarray(
                        (n,), dtype=vdtype, buffer=vshm.buf
                    )
                    mdtype = np.dtype(program.message_dtype)
                    gathered_out = np.ndarray(
                        (n,),
                        dtype=mdtype,
                        buffer=gshm.buf,
                        offset=w * n * mdtype.itemsize,
                    )
                    if shadow_name is not None:
                        sshm = _attach(shadow_name)
                        run_shms.append(sshm)
                        shadow_out = np.ndarray(
                            (n,),
                            dtype=vdtype,
                            buffer=sshm.buf,
                            offset=w * n * vdtype.itemsize,
                        )
                    else:
                        shadow_out = None
                    sel = dst = None
                    generation = -1
                    busy = time.perf_counter_ns() - t_busy
                    rss = peak_rss_bytes() or 0
                    if ring is not None:
                        ring.record(EV_RSS, phase, step, rss)
                        ring.record(EV_EXIT, phase, step, 0, busy)
                    wire.send(conn, ("ok", busy, rss))
                elif cmd == "scatter":
                    _, generation, senders, mode = msg
                    sel = select_arcs(senders, row_ptr, mode)
                    dst = col_idx[sel]
                    hist_out[:] = np.bincount(dst, minlength=n)
                    busy = time.perf_counter_ns() - t_busy
                    rss = peak_rss_bytes() or 0
                    if ring is not None:
                        ring.record(EV_RSS, phase, step, rss)
                        ring.record(EV_EXIT, phase, step, int(dst.size), busy)
                    wire.send(conn, ("ok", int(dst.size), busy, rss))
                elif cmd == "gather":
                    gen = msg[1]
                    if gen != generation:
                        # The parent always scatters first; delivering a
                        # stale selection would be a silent wrong answer.
                        raise RuntimeError(
                            f"gather for generation {gen} but the cached "
                            f"scatter is generation {generation}"
                        )
                    if ring is not None:
                        # Announce the arc total up front: the watchdog
                        # can tell a slow payload hook from a dead one.
                        ring.record(
                            EV_PROGRESS, phase, step, 0, int(dst.size)
                        )
                    if shadow_out is not None:
                        # Check mode: run the payload hook on a private
                        # copy of the shared state and publish the
                        # post-call copy to this worker's shadow slice.
                        # Any write the hook performs is attributed to
                        # exactly this worker, never lands in the shared
                        # array, and is diffed by the parent at the
                        # barrier.
                        work_values = values.copy()
                        payload = np.asarray(
                            program.arc_payload(graph, work_values, sel)
                        )
                        shadow_out[:] = work_values
                    else:
                        payload = np.asarray(
                            program.arc_payload(graph, values, sel)
                        )
                    gathered_out[:] = program.combine_identity
                    if dst.size:
                        if ring is not None:
                            _combine_at_chunked(
                                program, gathered_out, dst, payload,
                                ring, step,
                            )
                        else:
                            program.combine.at(gathered_out, dst, payload)
                    busy = time.perf_counter_ns() - t_busy
                    rss = peak_rss_bytes() or 0
                    if ring is not None:
                        ring.record(EV_RSS, phase, step, rss)
                        ring.record(EV_EXIT, phase, step, int(dst.size), busy)
                    wire.send(conn, ("ok", int(dst.size), busy, rss))
                else:
                    if ring is not None:
                        ring.record(EV_EXIT, phase, step, -1, 0)
                    wire.send(conn, ("error", f"unknown command {cmd!r}"))
            except Exception:
                # Close the phase even on failure so the recorder never
                # shows an eternally-open phase for a worker that in
                # fact replied with an error.
                if ring is not None:
                    ring.record(
                        EV_EXIT, phase, step, -1,
                        time.perf_counter_ns() - t_busy,
                    )
                wire.send(conn, ("error", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        if ring is not None:
            ring.close()
        for shm in run_shms + handles:
            try:
                shm.close()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# Parent-side engine
# ---------------------------------------------------------------------------


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
    start_method:
        Multiprocessing start method; default ``fork`` where available
        (cheapest pool spawn), else ``spawn``.  Override with the
        ``REPRO_SHARDED_START_METHOD`` environment variable.
    wire:
        Pipe encoding for worker traffic: ``"packed"`` (binary frames,
        the default) or ``"pickle"`` (legacy whole-tuple pickling).
        Results are bit-identical either way; only bytes-on-pipe differ.
        Override the default with the ``REPRO_SHARDED_WIRE`` environment
        variable.  Cumulative traffic is exposed as :attr:`pipe_bytes`.
    check:
        Enable the write-race detector (default: the
        ``REPRO_SHARDED_CHECK`` environment variable, off when unset).
        In check mode every worker executes ``arc_payload`` on a private
        copy of the shared ``values`` array and publishes the post-call
        copy to a per-worker shadow block; the parent diffs the shadow
        write-sets against a pre-gather snapshot at each barrier.
        Overlapping writes with differing values raise
        :class:`ShardedWriteRaceError`; any other write by the payload
        hook (which must be read-only) emits a :class:`RuntimeWarning`.
        Well-behaved programs produce bit-identical results with the
        mode on or off, at the cost of one values-array copy per worker
        per delivering superstep — and of every superstep fanning out,
        however small (the audit is about worker writes).
    flight_recorder:
        Worker flight recorder (shared-memory event rings; see
        :mod:`repro.telemetry.flightrec`).  **Default-on**: ``None``
        resolves via the ``REPRO_FLIGHT_RECORDER`` environment variable
        (on unless explicitly disabled), ``False`` disables, ``True``
        builds a default :class:`~repro.telemetry.flightrec.FlightRecorder`,
        and an unbound instance is adopted (the engine opens and closes
        it).  With a recorder attached, workers bracket every task with
        enter/exit ring events, tick gather progress per arc chunk, and
        sample RSS; the engine computes per-barrier straggler skew
        (``straggler_skew_ns`` / ``straggler_count`` telemetry
        counters), exposes :meth:`worker_status`, and dumps a
        postmortem bundle to the recorder's ``postmortem_dir`` on any
        worker crash, error, or stall.
    stall_timeout:
        Seconds of worker silence the parent tolerates while awaiting a
        barrier reply before declaring the worker stalled and raising
        :class:`WorkerStallError` (None — the default — waits forever,
        the pre-recorder behaviour).  With a recorder attached the
        clock is the worker's *ring* age (progress ticks keep a slow
        but live worker alive past the deadline); without one it is a
        wall deadline per reply.  :meth:`close` reuses the same bound
        when draining worker pipes, so shutdown can never hang on a
        wedged worker.
    combine_messages, frontier_policy, aggregators, costs, telemetry:
        As for :class:`DenseBSPEngine`.  With telemetry enabled the
        engine additionally records per-worker busy spans (one trace
        row per worker), barrier spans around every exchange, per-worker
        busy/wait and shard-size counters, and per-superstep
        ``pipe_bytes`` (plus, under the packed wire, the
        ``pipe_bytes_legacy`` counterfactual).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        num_workers: int | None = None,
        partition: str | np.ndarray = "hash",
        start_method: str | None = None,
        wire: str | None = None,
        check: bool | None = None,
        flight_recorder: "FlightRecorder | bool | None" = None,
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

        wire = wire or os.environ.get("REPRO_SHARDED_WIRE") or "packed"
        if wire not in WIRE_FORMATS:
            raise ValueError(f"wire must be one of {WIRE_FORMATS}")
        self.wire_format = wire
        self._wire = make_wire(wire)
        #: Write-race detector state (see the ``check`` parameter).
        self.check = _check_mode_from_env() if check is None else bool(check)
        #: Cumulative bytes put on / read from the worker pipes (frame
        #: payloads; excludes the OS pipe framing).  Always maintained,
        #: telemetry or not — the byte-packing tests assert on it.
        self.pipe_bytes = 0

        if stall_timeout is not None:
            stall_timeout = float(stall_timeout)
            if stall_timeout <= 0:
                raise ValueError("stall_timeout must be positive")
        #: Stall deadline in seconds (None: never time a worker out).
        self.stall_timeout = stall_timeout
        if flight_recorder is None:
            flight_recorder = _flight_recorder_from_env()
        if flight_recorder is True:
            recorder: FlightRecorder | None = FlightRecorder()
        elif flight_recorder is False:
            recorder = None
        else:
            recorder = flight_recorder
        #: The attached :class:`~repro.telemetry.flightrec.FlightRecorder`
        #: (None when disabled).  The engine owns its open/close.
        self.flight_recorder = recorder
        #: True once any worker tripped the stall deadline.
        self.stall_detected = False
        #: Count of distinct stall detections (watchdog + recv loop).
        self.stall_events = 0
        #: Last completed barrier's slowest-vs-median worker gap, seconds.
        self.superstep_skew_seconds = 0.0
        # Per-barrier skew samples awaiting the service's histogram
        # bridge (deque: drained thread-safely by drain_skew_samples).
        self._skew_samples: deque[float] = deque(maxlen=4096)
        self._last_barrier: dict[str, Any] = {}
        self._watchdog: StallWatchdog | None = None

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
        self.shards = shard_indices(assignment, num_workers)

        method = (
            start_method
            or os.environ.get("REPRO_SHARDED_START_METHOD")
            or ("fork" if "fork" in get_all_start_methods() else "spawn")
        )
        ctx = get_context(method)

        n = graph.num_vertices
        self._closed = False
        # One runner at a time: the pipe protocol interleaves send/recv
        # pairs per worker, so concurrent run() calls (e.g. service job
        # threads sharing one warm engine) must serialize here.  Close
        # takes the same lock, so a shutdown waits for an in-flight run.
        self._lifecycle_lock = threading.RLock()
        self._static_shms: list[shared_memory.SharedMemory] = []
        self._values_shm: shared_memory.SharedMemory | None = None
        self._gathered_shm: shared_memory.SharedMemory | None = None
        self._shadow_shm: shared_memory.SharedMemory | None = None
        self._gathered: np.ndarray | None = None
        self._shadow: np.ndarray | None = None
        self._hist: np.ndarray | None = None
        self._shard_senders: list[np.ndarray] | None = None
        self._shard_mode: str | None = None
        self._participants: tuple[int, ...] = ()
        self._generation = 0
        self._conns = []
        self._procs = []

        try:
            if recorder is not None:
                recorder.open(num_workers)
            spec = {
                "num_vertices": n,
                "num_arcs": graph.num_arcs,
                "directed": graph.directed,
                "sorted_adjacency": graph.sorted_adjacency,
                "wire": wire,
                "flightrec": (
                    recorder.worker_spec() if recorder is not None else None
                ),
                "row_ptr": self._share(graph.row_ptr),
                "col_idx": self._share(graph.col_idx),
                "weights": (
                    self._share(graph.weights)
                    if graph.weights is not None
                    else None
                ),
                "arc_sources": self._share(graph.arc_sources()),
            }
            hist_shm = _new_block(num_workers * n * 8)
            self._static_shms.append(hist_shm)
            spec["hist"] = hist_shm.name
            self._hist = np.ndarray(
                (num_workers, n), dtype=np.int64, buffer=hist_shm.buf
            )
            for w in range(num_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, dict(spec, worker_index=w)),
                    name=f"bsp-shard-{w}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            if recorder is not None:
                self._watchdog = StallWatchdog(
                    recorder,
                    stall_timeout=self.stall_timeout,
                    on_stall=self._on_watchdog_stall,
                )
                self._watchdog.start()
        except Exception:
            self.close()
            raise

    # -- shared-memory helpers ------------------------------------------
    def _share(self, array: np.ndarray) -> str:
        """Copy ``array`` into a new shared block; return its name."""
        shm = _new_block(array.nbytes)
        self._static_shms.append(shm)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return shm.name

    def _release_run_blocks(self) -> None:
        # Drop this engine's views first so close() can release the
        # mapping (external views merely defer the memory reclaim).
        self.values = np.empty(0)
        self._gathered = None
        self._shadow = None
        _release_block(self._values_shm)
        _release_block(self._gathered_shm)
        _release_block(self._shadow_shm)
        self._values_shm = None
        self._gathered_shm = None
        self._shadow_shm = None

    # -- pool plumbing ---------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")

    def _exchange(
        self, tasks: dict[int, tuple], phase: str | None = None
    ) -> dict[int, tuple]:
        """Send one task per worker, collect one reply per worker.

        With telemetry enabled and a ``phase`` name given, the exchange
        is recorded as one ``"barrier"`` span on the main track plus a
        per-worker busy span on each worker's track (anchored to end at
        the parent's receive, with the duration the worker measured),
        and per-worker busy/wait/peak-RSS counters.  Wait time is the
        barrier window minus the worker's busy time — the skew the
        balanced partition policies exist to shrink.  Workers append
        ``(busy_ns, peak_rss_bytes)`` to every "ok" reply.

        Every exchange also totals its frame bytes (both directions)
        into :attr:`pipe_bytes` and, when recorded, the per-superstep
        ``pipe_bytes`` counter; under the packed wire the pickled
        equivalent is sampled as ``pipe_bytes_legacy``.
        """
        tel = self.telemetry
        wire = self._wire
        record = tel.enabled and phase is not None
        count_legacy = record and self.wire_format == "packed"
        nbytes = 0
        legacy_bytes = 0
        # Freeze the barrier's identity before any pipe traffic: this is
        # what a postmortem bundle reports as "where the run died".
        self._last_barrier = {
            "phase": phase or "control",
            "superstep": int(self._tel_superstep),
            "generation": int(self._generation),
            "workers": sorted(tasks),
            "wall_time": time.time(),
        }
        t0 = tel.now()
        for w, payload in tasks.items():
            nbytes += wire.send(self._conns[w], payload)
            if count_legacy:
                legacy_bytes += legacy_frame_size(payload)
        replies: dict[int, tuple] = {}
        errors: list[tuple[int, str]] = []
        for w in tasks:
            try:
                reply, reply_bytes = self._recv_frame(w)
            except (EOFError, OSError):
                errors.append((w, "worker process died"))
                continue
            nbytes += reply_bytes
            if reply[0] == "error":
                errors.append((w, reply[1]))
            else:
                replies[w] = reply
                if count_legacy:
                    legacy_bytes += legacy_frame_size(reply)
                if record:
                    t_recv = tel.now()
                    busy = int(reply[-2])
                    tel.add_span(
                        phase,
                        t_recv - busy,
                        t_recv,
                        category="worker",
                        track=worker_track(w),
                        superstep=self._tel_superstep,
                        worker=w,
                    )
        self.pipe_bytes += nbytes
        if errors:
            detail = "\n".join(
                f"[shard worker {w}] {text}" for w, text in errors
            )
            crashed = any(
                text == "worker process died" for _, text in errors
            )
            path = self._dump_postmortem(
                reason="worker_crash" if crashed else "worker_error",
                error=detail,
            )
            raise ShardedWorkerError(
                f"{len(errors)} shard worker(s) failed:\n{detail}",
                worker_tracebacks=dict(errors),
                postmortem_path=path,
            )
        if phase is not None and len(replies) >= 2:
            # Straggler classification: the BSP model prices a superstep
            # by its slowest worker, so the slowest-vs-median gap is the
            # time the balanced-partition assumption failed to deliver.
            skew_ns, stragglers = straggler_skew_ns(
                int(reply[-2]) for reply in replies.values()
            )
            self.superstep_skew_seconds = skew_ns / 1e9
            self._skew_samples.append(skew_ns / 1e9)
            if record:
                tel.counter(
                    "straggler_skew_ns",
                    skew_ns,
                    superstep=self._tel_superstep,
                )
                if stragglers:
                    tel.counter(
                        "straggler_count",
                        stragglers,
                        superstep=self._tel_superstep,
                    )
        if record:
            t1 = tel.now()
            tel.add_span(
                "barrier",
                t0,
                t1,
                category="phase",
                superstep=self._tel_superstep,
                phase=phase,
                workers=len(tasks),
            )
            tel.counter(
                "pipe_bytes", nbytes, superstep=self._tel_superstep
            )
            if count_legacy:
                tel.counter(
                    "pipe_bytes_legacy",
                    legacy_bytes,
                    superstep=self._tel_superstep,
                )
            for w, reply in replies.items():
                busy = int(reply[-2])
                tel.counter(
                    "worker_busy_ns",
                    busy,
                    track=worker_track(w),
                    superstep=self._tel_superstep,
                )
                tel.counter(
                    "worker_wait_ns",
                    max((t1 - t0) - busy, 0),
                    track=worker_track(w),
                    superstep=self._tel_superstep,
                )
                rss = int(reply[-1])
                if rss:
                    tel.counter(
                        "worker_peak_rss_bytes",
                        rss,
                        track=worker_track(w),
                        superstep=self._tel_superstep,
                    )
        return replies

    def _recv_frame(self, w: int) -> tuple[Any, int]:
        """Receive one frame from worker ``w``, bounded by the stall deadline.

        Without a ``stall_timeout`` this is the plain blocking receive.
        With one, the wait polls: a dead worker raises :class:`EOFError`
        (after draining any reply already in the pipe), and a silent
        worker — no flight-recorder event within the deadline, or past
        the wall deadline when no recorder is attached — raises
        :class:`WorkerStallError` with a postmortem bundle on disk.
        The ring age is the authority when available: a worker grinding
        through a huge shard keeps itself alive with progress ticks,
        while one wedged *anywhere* (even stopped before reading the
        command) goes silent and trips the deadline.
        """
        conn = self._conns[w]
        timeout = self.stall_timeout
        if timeout is None:
            return self._wire.recv(conn)
        recorder = self.flight_recorder
        deadline = time.monotonic() + timeout
        while not conn.poll(0.05):
            if not self._procs[w].is_alive() and not conn.poll(0):
                raise EOFError(f"shard worker {w} exited")
            age = (
                recorder.seconds_since_last_event(w)
                if recorder is not None and recorder.is_open
                else None
            )
            stalled = (
                age > timeout
                if age is not None
                else time.monotonic() > deadline
            )
            if stalled:
                self._raise_stall(w, age if age is not None else timeout)
        return self._wire.recv(conn)

    def _raise_stall(self, w: int, age: float) -> None:
        self.stall_detected = True
        self.stall_events += 1
        if self.telemetry.enabled:
            self.telemetry.counter(
                "stall_detected",
                1,
                track=worker_track(w),
                superstep=self._tel_superstep,
            )
        message = (
            f"shard worker {w} stalled: no progress for {age:.3f}s "
            f"(stall_timeout={self.stall_timeout}s)"
        )
        path = self._dump_postmortem(reason="stall", error=message)
        raise WorkerStallError(message, worker=w, postmortem_path=path)

    def _on_watchdog_stall(self, w: int, age: float) -> None:
        """Watchdog-thread edge callback: flag without raising.

        The authoritative raise happens in :meth:`_recv_frame` on the
        thread that owns the run; the watchdog only latches the flag so
        health endpoints see the stall even between barriers.
        """
        self.stall_detected = True
        self.stall_events += 1

    def _dump_postmortem(
        self, *, reason: str, error: str | None = None
    ) -> Path | None:
        """Write a postmortem bundle; None when no recorder is attached."""
        recorder = self.flight_recorder
        if recorder is None or not recorder.is_open:
            return None
        try:
            return recorder.dump_postmortem(
                reason=reason,
                error=error,
                engine=self._engine_info(),
                last_barrier=dict(self._last_barrier),
                partition=self._partition_info(),
                workers=[
                    {
                        "worker": w,
                        "pid": proc.pid,
                        "alive": proc.is_alive(),
                        "exitcode": proc.exitcode,
                    }
                    for w, proc in enumerate(self._procs)
                ],
            )
        except OSError:  # pragma: no cover - unwritable results dir
            return None

    def _engine_info(self) -> dict:
        return {
            "pid": os.getpid(),
            "engine": type(self).__name__,
            "num_workers": self.num_workers,
            "wire": self.wire_format,
            "check": self.check,
            "stall_timeout": self.stall_timeout,
            "num_vertices": int(self.graph.num_vertices),
            "num_arcs": int(self.graph.num_arcs),
        }

    def _partition_info(self) -> dict:
        info = {
            "policy": self.partition_policy,
            "num_workers": self.num_workers,
            "shard_sizes": [int(shard.size) for shard in self.shards],
        }
        # The full map is O(vertices); embed it only when small enough
        # to keep bundles readable, the shard sizes always.
        if self.assignment.size <= 4096:
            info["assignment"] = self.assignment.tolist()
        return info

    # -- live introspection ---------------------------------------------
    def worker_status(self) -> list[dict]:
        """Per-worker liveness + flight-recorder status rows.

        One dict per worker with ``pid``/``alive`` from the process
        table and, when the recorder is attached, the decoded ring view
        (phase, superstep, progress ratio, rss, last-event age).  This
        is what ``GET /debug/workers`` and ``repro top`` render.
        """
        recorder = self.flight_recorder
        now_ns = time.monotonic_ns()
        rows = []
        for w in range(self.num_workers):
            if recorder is not None and recorder.is_open:
                row = recorder.status(w).to_dict(now_ns=now_ns)
            else:
                row = {"worker": w}
            proc = self._procs[w] if w < len(self._procs) else None
            row["pid"] = proc.pid if proc is not None else None
            row["alive"] = bool(proc is not None and proc.is_alive())
            rows.append(row)
        return rows

    def drain_skew_samples(self) -> list[float]:
        """Pop and return the per-barrier skew samples (seconds) queued
        since the last drain — the service feeds these to the
        ``repro_superstep_skew_seconds`` histogram on scrape."""
        out: list[float] = []
        while True:
            try:
                out.append(self._skew_samples.popleft())
            except IndexError:
                return out

    def _split(self, vertices: np.ndarray) -> list[np.ndarray]:
        """Partition a sorted vertex set along the machine assignment."""
        owners = self.assignment[vertices]
        return [
            vertices[owners == w] for w in range(self.num_workers)
        ]

    def _merged_hist(self, participants: tuple[int, ...]) -> np.ndarray:
        """Sum the participating workers' per-destination histograms."""
        if not participants:
            return np.zeros(self.graph.num_vertices, dtype=np.int64)
        return self._hist[list(participants)].sum(axis=0)

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
        self._check_open()
        n = self.graph.num_vertices
        self._release_run_blocks()
        self._values_shm = _new_block(values.nbytes)
        shared_values = np.ndarray(
            values.shape, dtype=values.dtype, buffer=self._values_shm.buf
        )
        shared_values[...] = values
        # compute() mutates ctx.values in place, so parent-side updates
        # land directly in the block the workers read payloads from.
        self.values = shared_values
        mdtype = np.dtype(program.message_dtype)
        self._gathered_shm = _new_block(self.num_workers * n * mdtype.itemsize)
        self._gathered = np.ndarray(
            (self.num_workers, n), dtype=mdtype, buffer=self._gathered_shm.buf
        )
        shadow_name = None
        if self.check:
            self._shadow_shm = _new_block(
                self.num_workers * n * values.dtype.itemsize
            )
            self._shadow = np.ndarray(
                (self.num_workers, n),
                dtype=values.dtype,
                buffer=self._shadow_shm.buf,
            )
            shadow_name = self._shadow_shm.name
        self._exchange(
            {
                w: (
                    "run",
                    program,
                    self._values_shm.name,
                    values.dtype.str,
                    self._gathered_shm.name,
                    shadow_name,
                )
                for w in range(self.num_workers)
            }
        )

    def _scatter_reset(self) -> None:
        super()._scatter_reset()
        self._shard_senders = None
        self._shard_mode = None
        self._participants = ()

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
        """Scatter exchange: every shard selects and histograms its arcs."""
        self._shard_senders = self._split(senders)
        self._shard_mode = self._choose_mode(senders, flood_arcs)
        self._pending_sel = self._pending_dst = None
        self._pending_raw = flood_arcs
        self._participants = tuple(
            w for w, s in enumerate(self._shard_senders) if s.size
        )
        self._generation += 1
        if self.telemetry.enabled:
            for w, shard in enumerate(self._shard_senders):
                self.telemetry.counter(
                    "shard_senders",
                    int(shard.size),
                    track=worker_track(w),
                    superstep=self._tel_superstep,
                )
        self._exchange(
            {
                w: (
                    "scatter",
                    self._generation,
                    self._shard_senders[w],
                    self._shard_mode,
                )
                for w in self._participants
            },
            phase="scatter",
        )
        return self._merged_hist(self._participants)

    def _scatter(
        self, program: DenseVertexProgram, new_senders: np.ndarray
    ) -> tuple[int, np.ndarray | None]:
        sent_raw = self._flood_arcs(new_senders)
        if self._runs_locally(sent_raw):
            self._shard_senders = None
            return super()._scatter(program, new_senders)
        return sent_raw, self._fan_out(new_senders, sent_raw)

    def _gather(
        self,
        program: DenseVertexProgram,
        senders: np.ndarray,
        identity: Any,
    ) -> tuple[Callable[[], np.ndarray], np.ndarray, int]:
        if self._shard_senders is None and self._pending_sel is None:
            # Resumed run (or zero-arc senders): no prior scatter.
            raw = self._flood_arcs(senders)
            if not self._runs_locally(raw):
                self._pending_hist = self._fan_out(senders, raw)
        if self._shard_senders is None:
            return super()._gather(program, senders, identity)
        n = self.graph.num_vertices
        mdtype = np.dtype(program.message_dtype)
        raw = self._pending_raw
        receivers = np.flatnonzero(self._pending_hist)
        generation = self._generation
        participants = self._participants
        mode = self._shard_mode
        superstep = self._tel_superstep

        check = self.check

        def inbox() -> np.ndarray:
            snapshot = self.values.copy() if check else None
            replies = self._exchange(
                {
                    w: ("gather", generation, _NO_SENDERS, mode)
                    for w in participants
                },
                phase="gather",
            )
            if snapshot is not None:
                self._audit_write_sets(snapshot, participants, superstep)
            delivered = sum(int(reply[1]) for reply in replies.values())
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
                    int(delivered) * mdtype.itemsize,
                    superstep=superstep,
                )
            return gathered

        return inbox, receivers, int(raw)

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the worker pool."""
        return self._closed

    @property
    def workers_alive(self) -> int:
        """Shard worker processes currently alive (liveness probe).

        Equals ``num_workers`` on a healthy open engine and 0 after
        :meth:`close`; anything in between means a worker died — the
        service health endpoint surfaces this.
        """
        return sum(1 for proc in self._procs if proc.is_alive())

    def run(self, program: DenseVertexProgram, **kwargs: Any):
        """Execute ``program`` (see :meth:`DenseBSPEngine.run`).

        The engine is reusable: call ``run`` any number of times between
        construction and :meth:`close` — the worker pool and the
        shared-memory CSR stay warm across runs.  Runs are serialized
        with an internal lock so a warm engine can be shared by
        multiple threads.
        """
        with self._lifecycle_lock:
            self._check_open()
            return super().run(program, **kwargs)

    def close(self) -> None:
        """Shut the worker pool down and release all shared memory.

        Idempotent and thread-safe: concurrent calls (and calls racing
        an in-flight :meth:`run`) serialize on the lifecycle lock, and
        every call after the first is a no-op.
        """
        with self._lifecycle_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        # Bounded drain: reuse the watchdog deadline (or a 5s default)
        # per escalation step, so a wedged worker — e.g. one stopped by
        # SIGSTOP, to which SIGTERM is queued but never delivered —
        # cannot hang shutdown.  join → terminate → kill: SIGKILL is the
        # only signal a stopped process cannot ignore.
        drain = self.stall_timeout if self.stall_timeout is not None else 5.0
        for conn in self._conns:
            try:
                self._wire.send(conn, ("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=drain)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=drain)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=drain)
        for conn in self._conns:
            conn.close()
        # Detach the engine's state from shared memory before unlinking
        # so `engine.values` stays readable after close().
        if isinstance(self.values, np.ndarray):
            self.values = self.values.copy()
        self._hist = None
        self._gathered = None
        self._shadow = None
        for shm in (
            self._static_shms
            + [self._values_shm, self._gathered_shm, self._shadow_shm]
        ):
            _release_block(shm)
        self._static_shms = []
        self._values_shm = None
        self._gathered_shm = None
        self._shadow_shm = None
        if self.flight_recorder is not None:
            self.flight_recorder.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "ShardedBSPEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
