"""The parent side of the sharded engine's worker protocol.

:class:`WorkerPool` owns everything between the engine and its shard
workers (:mod:`repro.bsp._worker`): the shared-memory blocks, the
processes and their pipes, the exchange — a task frame out to each
participant, a reply frame back (:mod:`repro.bsp._wire`) — and its
supervision: the receive deadline, stall/crash detection, postmortem
bundles, live worker status, straggler skew, a shutdown that cannot hang.
None of it can be turned off.

**The failure rule.**  The protocol is in step only while every task
sent has had its reply read.  An exchange that ends otherwise — a
worker stalled past the deadline, died, answered with a malformed
frame, or could not be sent to — *desynchronises* the pool: the
postmortem is dumped once, and that exchange and every later one raise
:class:`ShardedWorkerError` naming the original failure.  A late reply
is therefore never mistaken for the answer to the next task.  A worker
that answers ``("error", traceback)`` has answered: the pipes stay in
step and the pool stays usable.
"""

from __future__ import annotations

import select
import time
from collections import deque
from multiprocessing import get_all_start_methods, get_context, shared_memory
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from repro.bsp._wire import (
    OkReply,
    PackedWire,
    ShardedWorkerError,
    WireFormatError,
    WorkerStallError,
)
from repro.bsp._worker import worker_main
from repro.telemetry.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    worker_track,
)
from repro.telemetry.flightrec import (
    FlightRecorder,
    StallWatchdog,
    straggler_skew_ns,
)

__all__ = ["WorkerPool", "release_block", "shared_array"]

#: Milliseconds a receive waits between checks of a silent worker.
_POLL_MS = 50


def shared_array(
    shape: tuple[int, ...], dtype: Any
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """A new shared block and the ``shape`` / ``dtype`` array over it."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    # Shared memory rejects zero-byte segments.
    shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
    return shm, np.ndarray(shape, dtype=dtype, buffer=shm.buf)


def release_block(shm: shared_memory.SharedMemory) -> None:
    """Unlink a block, tolerating still-exported NumPy views.

    ``close`` raises :class:`BufferError` while any array over the
    buffer is alive (e.g. a caller kept ``engine.values``); the unlink
    still proceeds, and the OS frees the segment with its last mapping.
    """
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - defensive
        pass


class WorkerPool:
    """``num_workers`` persistent shard workers and their shared blocks.

    Every worker is started — by ``fork`` where the platform has it (the
    cheapest spawn), else ``spawn`` — with ``spec`` plus, for each of
    ``arrays``, the name of a shared block holding a copy (None stays
    None); the parent's views of those blocks are :attr:`arrays`, and
    ``arrays`` itself is emptied once copied.
    ``recorder`` is an unbound :class:`FlightRecorder` the pool opens,
    feeds and closes; ``stall_timeout`` the seconds of worker silence
    tolerated per reply; ``describe`` is the owner's ``engine=`` /
    ``partition=`` sections of a postmortem bundle — data, not a
    callback: the pool must not keep its owner alive.  A worker that
    cannot attach its blocks or its ring fails the constructor with
    :class:`ShardedWorkerError`.
    """

    def __init__(
        self,
        num_workers: int,
        spec: dict,
        arrays: dict[str, np.ndarray | None],
        *,
        recorder: FlightRecorder,
        stall_timeout: float,
        describe: dict[str, dict] | None = None,
    ) -> None:
        self.num_workers = num_workers
        self.recorder = recorder
        self.stall_timeout = stall_timeout
        self._describe = describe or {}
        self._wire = PackedWire()
        #: Cumulative frame bytes put on / read from the worker pipes.
        self.pipe_bytes = 0
        #: True once any worker tripped the stall deadline.
        self.stall_detected = False
        #: Count of distinct stall detections (watchdog + recv loop).
        self.stall_events = 0
        #: Last completed barrier's slowest-vs-median worker gap, seconds.
        self.superstep_skew_seconds = 0.0
        # Awaiting the service's histogram bridge (drain_skew_samples).
        self._skew_samples: deque[float] = deque(maxlen=4096)
        self.last_barrier: dict[str, Any] = {}
        # (message, postmortem path) of the first failure that left the
        # pipes out of step (the failure rule); None while in step.
        self._desync: tuple[str, Path | None] | None = None
        self._closed = False
        self._blocks: list[shared_memory.SharedMemory] = []
        self._conns: list = []
        # One poll object per worker connection: the receive deadline's
        # wait costs ~0.1 us per frame, where Connection.poll costs ~5 us.
        self._pollers: list = []
        self._procs: list = []
        self._watchdog: StallWatchdog | None = None
        self.arrays: dict[str, np.ndarray] = {}
        # Outside the cleanup below: a recorder that is already open is
        # another engine's, and closing it would end that engine's rings.
        recorder.open(num_workers)
        try:
            self._start(spec, arrays)
        except Exception:
            self.close()
            raise

    def _start(self, spec: dict, arrays: dict) -> None:
        recorder = self.recorder
        #: What every worker is started with (plus its ``worker_index``).
        self.spec = spec = dict(spec, flightrec=recorder.worker_spec())
        for key, array in arrays.items():
            spec[key] = None
            if array is not None:
                shm, view = shared_array(array.shape, array.dtype)
                self._blocks.append(shm)
                view[...] = array
                self.arrays[key], spec[key] = view, shm.name
        # Drop the caller's graph-sized temporaries (7 MB at RMAT scale 15)
        # before the workers are forked and awaited: neither side needs
        # them once copied.
        arrays.clear()
        method = "fork" if "fork" in get_all_start_methods() else "spawn"
        ctx = get_context(method)
        started_ns = time.monotonic_ns()
        for w in range(self.num_workers):
            parent_conn, child_conn = ctx.Pipe()
            # A forked worker holds copies of its own and every earlier
            # worker's parent end; it closes them, so that when the
            # parent dies (even by SIGKILL) its pipe reads EOF and it
            # exits.  A spawned worker inherits none.
            inherited = (*self._conns, parent_conn) if method == "fork" else ()
            proc = ctx.Process(
                target=worker_main,
                args=(child_conn, dict(spec, worker_index=w), inherited),
                name=f"bsp-shard-{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            poller = select.poll()
            poller.register(parent_conn, select.POLLIN)
            self._conns.append(parent_conn)
            self._pollers.append(poller)
            self._procs.append(proc)
        self._watchdog = StallWatchdog(
            recorder,
            stall_timeout=self.stall_timeout,
            on_stall=self._on_watchdog_stall,
        )
        self._watchdog.start()
        # Each worker announces it has attached its blocks and its ring.
        for w in range(self.num_workers):
            try:
                reply, _ = self._recv_frame(w, started_ns)
            except (EOFError, OSError, WireFormatError) as exc:
                reply = ("error", repr(exc))
            if reply[0] == "error":
                raise ShardedWorkerError(
                    f"shard worker {w} failed to start:\n{reply[1]}",
                    worker_tracebacks={w: reply[1]},
                )

    # -- the exchange ----------------------------------------------------
    def exchange(
        self,
        tasks: dict[int, tuple],
        *,
        phase: str = "control",
        tel: Telemetry | NullTelemetry = NULL_TELEMETRY,
        superstep: int = -1,
        generation: int = 0,
    ) -> dict[int, OkReply]:
        """Send one task per worker, collect one reply per worker.

        Frame bytes (both directions) total into :attr:`pipe_bytes`.
        With telemetry enabled and a superstep ``phase`` named, it is
        one ``"barrier"`` span on the main track, a busy span on each
        worker's track (ending at the parent's receive, as long as the
        worker measured), and ``pipe_bytes`` and per-worker busy / wait
        / peak-RSS counters.  Wait is the barrier window minus busy —
        the skew the balanced partition policies exist to shrink.
        """
        if self._desync is not None:
            first, path = self._desync
            raise ShardedWorkerError(
                "worker pool is desynchronised by an earlier failure and "
                f"cannot run (close the engine and build a new one): {first}",
                postmortem_path=path,
            )
        in_superstep = phase != "control"
        record = tel.enabled and in_superstep
        nbytes = 0
        # Freeze the barrier's identity before any pipe traffic: this is
        # what a postmortem bundle reports as "where the run died".
        self.last_barrier = {
            "phase": phase,
            "superstep": int(superstep),
            "generation": int(generation),
            "workers": sorted(tasks),
            "wall_time": time.time(),
        }
        t0 = tel.now()
        sent_ns = time.monotonic_ns()
        replies: dict[int, OkReply] = {}
        errors: dict[int, str] = {}  # the worker answered: still in step
        gone: dict[int, str] = {}  # no reply will ever be read: desync
        try:
            for w, payload in tasks.items():
                try:
                    nbytes += self._wire.send(self._conns[w], payload)
                except OSError:
                    gone[w] = "worker process died"
            for w in tasks:
                if w in gone:
                    continue
                try:
                    reply, reply_bytes = self._recv_frame(w, sent_ns)
                except (EOFError, OSError):
                    gone[w] = "worker process died"
                    continue
                except WireFormatError as exc:
                    gone[w] = f"malformed reply frame: {exc}"
                    continue
                nbytes += reply_bytes
                if reply[0] == "error":
                    errors[w] = reply[1]
                    continue
                replies[w] = ok = OkReply.parse(reply)
                if record:
                    t_recv = tel.now()
                    tel.add_span(
                        phase, t_recv - ok.busy_ns, t_recv,
                        category="worker", track=worker_track(w),
                        superstep=superstep, worker=w,
                    )
        except WorkerStallError as exc:
            if tel.enabled and exc.worker is not None:
                tel.counter(
                    "stall_detected", 1,
                    track=worker_track(exc.worker), superstep=superstep,
                )
            raise
        except BaseException as exc:  # interrupted: replies left unread
            self._desync = (f"{type(exc).__name__}: {exc}", None)
            raise
        self.pipe_bytes += nbytes
        if errors or gone:
            failed = {**errors, **gone}
            detail = "\n".join(
                f"[shard worker {w}] {text}" for w, text in sorted(failed.items())
            )
            path = self._dump_postmortem(
                reason="worker_crash" if gone else "worker_error",
                error=detail,
            )
            message = f"{len(failed)} shard worker(s) failed:\n{detail}"
            if gone:
                self._desync = (message, path)
            raise ShardedWorkerError(
                message, worker_tracebacks=failed, postmortem_path=path
            )
        if in_superstep and len(replies) >= 2:
            # The BSP model prices a superstep by its slowest worker:
            # the slowest-vs-median gap is what balance failed to deliver.
            skew_ns, stragglers = straggler_skew_ns(
                ok.busy_ns for ok in replies.values()
            )
            self.superstep_skew_seconds = skew_ns / 1e9
            self._skew_samples.append(skew_ns / 1e9)
            if record:
                tel.counter("straggler_skew_ns", skew_ns, superstep=superstep)
                if stragglers:
                    tel.counter(
                        "straggler_count", stragglers, superstep=superstep
                    )
        if record:
            t1 = tel.now()
            tel.add_span(
                "barrier", t0, t1, category="phase",
                superstep=superstep, phase=phase, workers=len(tasks),
            )
            tel.counter("pipe_bytes", nbytes, superstep=superstep)
            for w, ok in replies.items():
                track = worker_track(w)
                tel.counter(
                    "worker_busy_ns", ok.busy_ns,
                    track=track, superstep=superstep,
                )
                tel.counter(
                    "worker_wait_ns", max((t1 - t0) - ok.busy_ns, 0),
                    track=track, superstep=superstep,
                )
                if ok.peak_rss:
                    tel.counter(
                        "worker_peak_rss_bytes", ok.peak_rss,
                        track=track, superstep=superstep,
                    )
        return replies

    def _recv_frame(self, w: int, sent_ns: int) -> tuple[Any, int]:
        """Receive one frame from worker ``w``, bounded by the stall deadline.

        A dead worker raises :class:`EOFError` (after draining any reply
        already in the pipe), and a silent one :class:`WorkerStallError`.
        Silence runs from the later of the worker's newest ring event and
        ``sent_ns``, when the task was sent (``time.monotonic_ns``): progress
        ticks keep a worker grinding through a huge shard alive, one wedged
        *anywhere* (even stopped before reading the task) trips the
        deadline, and a worker that idled longer than the deadline before
        this task is not already stalled by it.
        """
        poller = self._pollers[w]
        while not poller.poll(_POLL_MS):
            if not self._procs[w].is_alive() and not poller.poll(0):
                raise EOFError(f"shard worker {w} exited")
            last_ns = self.recorder.status(w).last_event_ns or 0
            age = (time.monotonic_ns() - max(last_ns, sent_ns)) / 1e9
            if age >= self.stall_timeout:
                self._raise_stall(w, age)
        return self._wire.recv(self._conns[w])

    def _raise_stall(self, w: int, age: float) -> NoReturn:
        self.stall_detected = True
        self.stall_events += 1
        message = (
            f"shard worker {w} stalled: no progress for {age:.3f}s "
            f"(stall_timeout={self.stall_timeout}s)"
        )
        path = self._dump_postmortem(reason="stall", error=message)
        self._desync = (message, path)
        raise WorkerStallError(message, worker=w, postmortem_path=path)

    def _on_watchdog_stall(self, w: int, age: float) -> None:
        """Watchdog-thread edge callback: latch the flag, so health
        endpoints see a stall even between barriers; the raise happens
        in :meth:`_recv_frame`, on the thread that owns the run."""
        self.stall_detected = True
        self.stall_events += 1

    def _dump_postmortem(
        self, *, reason: str, error: str | None = None
    ) -> Path | None:
        """Write a postmortem bundle; None when it cannot be written."""
        try:
            return self.recorder.dump_postmortem(
                reason=reason,
                error=error,
                last_barrier=dict(self.last_barrier),
                workers=[
                    dict(row, exitcode=proc.exitcode)
                    for row, proc in zip(self._liveness(), self._procs)
                ],
                **self._describe,
            )
        except OSError:  # pragma: no cover - unwritable results dir
            return None

    # -- live introspection ---------------------------------------------
    @property
    def workers_alive(self) -> int:
        """Worker processes currently alive (0 after :meth:`close`)."""
        return sum(1 for proc in self._procs if proc.is_alive())

    def worker_status(self) -> list[dict]:
        """One row per worker: ``pid`` / ``alive`` from the process table
        and the decoded ring view (phase, superstep, progress ratio, rss,
        last-event age) — what ``GET /debug/workers`` and ``repro top``
        render."""
        now_ns = time.monotonic_ns()
        return [
            {**self.recorder.status(w).to_dict(now_ns=now_ns), **row}
            for w, row in enumerate(self._liveness())
        ]

    def _liveness(self) -> list[dict]:
        return [
            {"worker": w, "pid": proc.pid, "alive": proc.is_alive()}
            for w, proc in enumerate(self._procs)
        ]

    def drain_skew_samples(self) -> list[float]:
        """Pop and return the per-barrier skew samples (seconds) queued
        since the last drain — the service feeds these to the
        ``repro_superstep_skew_seconds`` histogram on scrape."""
        out: list[float] = []
        try:
            while True:
                out.append(self._skew_samples.popleft())
        except IndexError:
            return out

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release the pool's shared blocks.

        Bounded: each escalation step waits at most ``stall_timeout``
        or 5 s, whichever is shorter, so a wedged worker — e.g. one
        stopped by SIGSTOP, to which SIGTERM is queued but never
        delivered — cannot hang it.  join → terminate → kill: only
        SIGKILL reaches a stopped process.
        """
        if self._closed:
            return
        self._closed = True
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        drain = min(self.stall_timeout, 5.0)
        for conn in self._conns:
            try:
                self._wire.send(conn, ("close",))
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=drain)
            for escalate in (proc.terminate, proc.kill):
                if proc.is_alive():
                    escalate()
                    proc.join(timeout=drain)
        for conn in self._conns:
            conn.close()
        self.arrays = {}
        for shm in self._blocks:
            release_block(shm)
        self.recorder.close()
