"""The child side of the sharded engine: one shard worker process.

A worker owns one vertex shard and its out-arcs (its graph is the shard's
sub-CSR) and serves one task per frame (:mod:`repro.bsp._wire`) until
told to close:

* ``run`` carries the worker's first task of a run with the run's
  install: the worker views the run's shared blocks with the run's
  dtypes (values, this worker's slice of the per-destination output, and
  in check mode its shadow slice), then serves the task and sends one
  reply.  The blocks belong to the engine and outlive runs: a block is
  attached once per name, and a superseded one (the parent replaced it
  with a larger block) has its mapping closed at the next install;
* ``scatter`` reads the shard's senders off the shared ``senders``
  bitmap the parent marked, selects their out-arcs (a complement: the
  whole shard less the rows of its quiet vertices), publishes the
  per-destination histogram and keeps the selection warm;
* ``gather`` delivers that cached selection: payload hook (the fold's
  identity written at a complement's left-out arcs), then the combiner
  fold into this worker's output slice;
* ``deliver`` is a flood the parent accounted itself (a near-full one,
  with no scatter exchange): the shard selects it off the bitmap as
  ``scatter`` does, publishes no histogram, and folds it as ``gather``
  does, in one task.

Every task ends in the same epilogue: busy time (recv-to-reply) and the
worker's peak RSS ride on the ``("ok", ...)`` reply, so the parent's
telemetry draws per-worker rows, barrier-wait skew and memory without a
second round trip (~1 us per task).  Each task is also bracketed by
enter/exit events in this worker's flight-recorder ring
(``spec["flightrec"]``), and the scatter histogram and the gather fold
tick progress per arc chunk — what the stall deadline, the watchdog and
``repro top`` read.

A worker announces its start with one ``("ok", ...)`` frame once its
blocks and ring are attached, or an ``("error", traceback)`` frame if
they cannot be, and exits.  It also exits when its pipe reads EOF: the
parent is gone.
"""

from __future__ import annotations

import os
import time
import traceback
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.bsp._scatter import NO_ARCS, fill_left_out
from repro.bsp._wire import PackedWire, ok_reply, unpack_install
from repro.bsp.dense import DenseVertexProgram
from repro.bsp.frontier import COMPLEMENT, select_arcs
from repro.graph.csr import CSRGraph, arc_indices
from repro.telemetry.core import peak_rss_bytes
from repro.telemetry.flightrec import (
    EV_ENTER,
    EV_EXIT,
    EV_PROGRESS,
    EV_RSS,
    PH_GATHER,
    PH_IDLE,
    PH_SCATTER,
    RingWriter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = ["worker_main"]

#: Arc-range chunk per ``combine.at`` call.  A progress tick lands
#: between chunks, so the parent can distinguish "grinding through a
#: huge shard" from "wedged".  Chunks are applied in index order, so the
#: fold's element ordering (and hence bit-exactness vs. one call over
#: the whole range) is preserved.
_PROGRESS_CHUNK_ARCS = 1 << 18

#: Least arc chunk per scatter-histogram ``bincount``; a chunk is
#: ``max(this, n)`` arcs, so each chunk's n-long count is amortised over
#: at least n arcs, and a flood of up to this many arcs is one pass.
_HISTOGRAM_CHUNK_ARCS = 1 << 20

_PHASE_BY_CMD = {
    "scatter": PH_SCATTER,
    "gather": PH_GATHER,
    "deliver": PH_GATHER,
}


class _Shard:
    """A worker's warm state: the attached graph for the pool's lifetime,
    the program and output slices per run, and the (generation, arc
    selection, destinations, left-out arcs) of the last selection, which
    a scatter makes for the gather of the following superstep and a
    deliver for itself."""

    def __init__(self, spec: dict) -> None:
        self.n = n = spec["num_vertices"]
        self.index = w = spec["worker_index"]
        bounds = spec["arc_bounds"]
        m, shard = bounds[-1], slice(bounds[w], bounds[w + 1])
        rec = spec["flightrec"]
        self.ring = RingWriter(rec["shm"], rec["capacity"], w)
        self._static: list[shared_memory.SharedMemory] = []
        # The engine's run blocks this worker has attached, by name.
        self._run_blocks: dict[str, shared_memory.SharedMemory] = {}

        def static(name: str) -> shared_memory.SharedMemory:
            self._static.append(shared_memory.SharedMemory(name=name))
            return self._static[-1]

        def arcs(key: str, dtype: Any) -> np.ndarray:
            return self._view(static(spec[key]), m, dtype)[shard]

        # The shard's out-arcs over the global vertex ids (other workers'
        # rows are empty): per-arc sources stay global, sweeps are O(m / W).
        self.graph = CSRGraph(
            self._view(static(spec["row_ptr"]), n + 1, np.int64, row=w),
            arcs("col_idx", np.int64),
            arcs("weights", np.float64) if spec["weights"] else None,
            directed=True,
            sorted_adjacency=spec["sorted_adjacency"],
        )
        self.hist_out = self._view(static(spec["hist"]), n, np.int64, row=w)
        # The parent's sender bitmap, read-only here: a worker must not
        # corrupt the next superstep's selection.  Other workers' rows are
        # empty in this sub-CSR, so a marked vertex with out-arcs is ours.
        self.senders = self._view(static(spec["senders"]), n, np.bool_)
        self.senders.setflags(write=False)
        self.owned = self.graph.degrees() > 0
        # The shard's per-destination arc counts, made at its first
        # complement scatter (a pass over every arc, with progress ticks).
        self.in_degrees: np.ndarray | None = None
        # Set by run() / select(); the parent always sends those first.
        self.program: Any = None
        self.values: Any = None
        self.gathered_out: Any = None
        self.shadow_out: np.ndarray | None = None
        self.sel: Any = None
        self.dst: Any = None
        self.left_out: np.ndarray = NO_ARCS
        self.generation = -1

    @staticmethod
    def _view(
        shm: shared_memory.SharedMemory,
        length: int,
        dtype: Any,
        row: int = 0,
    ) -> np.ndarray:
        """Row ``row`` of a ``(rows, length)`` array in block ``shm``.

        Attaching needs no resource-tracker gymnastics: workers (fork and
        spawn alike) inherit the parent's tracker, whose per-type set
        deduplicates their registrations against the parent's create-time
        one; unregistering here would corrupt that shared cache.
        """
        dtype = np.dtype(dtype)
        return np.ndarray(
            (length,), dtype=dtype, buffer=shm.buf,
            offset=row * length * dtype.itemsize,
        )

    def run(
        self,
        program: DenseVertexProgram,
        values_name: str,
        values_dtype: str,
        gathered_name: str,
        shadow_name: str | None = None,
    ) -> None:
        names = (values_name, gathered_name, shadow_name)
        # Drop the last run's views before closing any mapping under them.
        self.program = self.values = self.gathered_out = None
        self.shadow_out = None
        blocks = self._run_blocks
        for name in [name for name in blocks if name not in names]:
            _detach(blocks.pop(name))
        for name in names:
            if name is not None and name not in blocks:
                blocks[name] = shared_memory.SharedMemory(name=name)
        n, w = self.n, self.index
        self.program = program
        self.values = self._view(blocks[values_name], n, values_dtype)
        self.gathered_out = self._view(
            blocks[gathered_name], n, program.message_dtype, row=w
        )
        self.shadow_out = (
            self._view(blocks[shadow_name], n, values_dtype, row=w)
            if shadow_name is not None
            else None
        )
        self.sel = self.dst = None
        self.left_out = NO_ARCS
        self.generation = -1

    def select(self, generation: int, mode: str) -> None:
        """Select the shard's flood off the ``senders`` bitmap and keep it
        as ``generation``'s."""
        graph = self.graph
        self.generation = generation
        self.left_out = NO_ARCS
        if mode == COMPLEMENT:  # the senders are never listed
            self.sel = slice(0, graph.num_arcs)
            self.left_out = arc_indices(
                np.flatnonzero(self.owned & ~self.senders), graph.row_ptr
            )
        else:
            senders = np.flatnonzero(self.senders & self.owned)
            self.sel = select_arcs(senders, graph.row_ptr, mode)
        self.dst = graph.col_idx[self.sel]

    def scatter(self, generation: int, mode: str) -> int:
        """Select the shard's flood and publish its histogram; returns
        how many arcs it selects.  Progress ticks follow the selection
        and each histogram chunk."""
        self.select(generation, mode)
        dst, hist = self.dst, self.hist_out
        step = int(generation)
        self.ring.record(EV_PROGRESS, PH_SCATTER, step, 0, int(dst.size))
        if isinstance(self.sel, slice):
            # A complement: every arc's count less the left-out arcs'.
            if self.in_degrees is None:  # the shard's first: count them all
                self.in_degrees = np.zeros(self.n, dtype=np.int64)
                self._count(step, self.in_degrees, dst, np.add)
            hist[:] = self.in_degrees
            self._count(step, hist, dst, np.subtract, self.left_out)
        else:
            hist[:] = 0
            self._count(step, hist, dst, np.add)
        return int(dst.size - self.left_out.size)

    def _count(
        self,
        step: int,
        hist: np.ndarray,
        dst: np.ndarray,
        fold: np.ufunc,
        arcs: np.ndarray | None = None,
    ) -> None:
        """``fold`` the per-destination counts of ``dst`` (of
        ``dst[arcs]``) into ``hist``, a progress tick after each chunk."""
        total = int(dst.size if arcs is None else arcs.size)
        chunk = max(_HISTOGRAM_CHUNK_ARCS, self.n)
        for done in range(0, total, chunk):
            end = min(done + chunk, total)
            part = dst[done:end] if arcs is None else dst[arcs[done:end]]
            fold(hist, np.bincount(part, minlength=self.n), out=hist)
            self.ring.record(EV_PROGRESS, PH_SCATTER, step, end, total)

    def gather(self, generation: int) -> int:
        if generation != self.generation:
            # The parent always scatters first; delivering a stale
            # selection would be a silent wrong answer.
            raise RuntimeError(
                f"gather for generation {generation} but the cached "
                f"scatter is generation {self.generation}"
            )
        program, dst, ring = self.program, self.dst, self.ring
        step, total = int(generation), int(dst.size)
        # Announce the arc total up front: the watchdog can tell a slow
        # payload hook from a dead one.
        ring.record(EV_PROGRESS, PH_GATHER, step, 0, total)
        values = self.values
        if self.shadow_out is not None:
            # Check mode: run the payload hook on a private copy of the
            # shared state and publish the post-call copy to this
            # worker's shadow slice.  Any write the hook performs is
            # attributed to exactly this worker, never lands in the
            # shared array, and is diffed by the parent at the barrier.
            values = values.copy()
        payload = fill_left_out(
            np.asarray(program.arc_payload(self.graph, values, self.sel)),
            self.left_out,
            program.combine_identity,
            total,
        )
        if self.shadow_out is not None:
            self.shadow_out[:] = values
        out = self.gathered_out
        out[:] = program.combine_identity
        # A scalar / broadcast payload cannot be sliced alongside dst.
        sliceable = payload.ndim == 1 and payload.shape[0] == total
        for done in range(0, total, _PROGRESS_CHUNK_ARCS):
            end = min(done + _PROGRESS_CHUNK_ARCS, total)
            program.combine.at(
                out, dst[done:end], payload[done:end] if sliceable else payload
            )
            ring.record(EV_PROGRESS, PH_GATHER, step, end, total)
        return total - int(self.left_out.size)

    def deliver(self, generation: int, mode: str) -> int:
        """Select and deliver a flood the parent accounted itself."""
        self.select(generation, mode)
        return self.gather(generation)

    def close(self) -> None:
        self.ring.close()
        for shm in [*self._run_blocks.values(), *self._static]:
            _detach(shm)


def _detach(shm: shared_memory.SharedMemory) -> None:
    """Close this process's mapping of ``shm`` (the parent unlinks it)."""
    try:
        shm.close()
    except BufferError:  # a view outlived its task
        pass


def worker_main(conn: "Connection", spec: dict, inherited: tuple) -> None:
    """Shard worker entry point: serve tasks until told to close.

    ``inherited`` are the parent-side pipe ends a forked worker holds
    copies of; closing them lets this worker's pipe read EOF once the
    parent is gone.
    """
    for end in inherited:
        end.close()
    if hasattr(os, "sched_setscheduler"):
        # A woken worker must not preempt the parent while it is still
        # writing the other workers' frames: as SCHED_BATCH it waits for
        # the parent's slice, and the parent's 18-byte frame write falls
        # from ~40-100 us to ~6-17 us (measurements in docs/MODEL.md).
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError:  # not permitted: scheduling never changes results
            pass
    wire = PackedWire()
    try:
        shard = _Shard(spec)
    except Exception:
        wire.send(conn, ("error", traceback.format_exc()))
        return
    ring = shard.ring
    try:
        wire.send(conn, ok_reply(0, 0, 0))
        while True:
            msg, _ = wire.recv(conn)
            cmd = msg[0]
            if cmd == "close":
                return
            t_busy = time.perf_counter_ns()
            install: bytes | None = None
            if cmd == "run":  # the run's install rides on its first task
                _, install, msg = msg
                cmd = msg[0]
            phase = _PHASE_BY_CMD.get(cmd, PH_IDLE)
            step = int(msg[1]) if cmd in _PHASE_BY_CMD else -1
            ring.record(EV_ENTER, phase, step)
            arcs: int | None = None
            reply: tuple | None = None
            try:
                if install is not None:
                    shard.run(*unpack_install(install))
                if cmd == "scatter":
                    # msg[2] is the codec's id field, empty from the engine.
                    arcs = shard.scatter(msg[1], msg[3])
                elif cmd == "gather":
                    arcs = shard.gather(msg[1])
                elif cmd == "deliver":
                    arcs = shard.deliver(msg[1], msg[3])
                else:
                    raise ValueError(f"unknown command {cmd!r}")
            except Exception:
                arcs, reply = -1, ("error", traceback.format_exc())
            busy = time.perf_counter_ns() - t_busy
            if reply is None:
                rss = peak_rss_bytes() or 0
                ring.record(EV_RSS, phase, step, rss)
                reply = ok_reply(busy, rss, arcs)
            # Also on failure: the recorder must never show an
            # eternally-open phase for a worker that in fact replied.
            ring.record(EV_EXIT, phase, step, arcs or 0, busy)
            wire.send(conn, reply)
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        shard.close()
