"""Job lifecycle for the graph-analytics service.

A job is one algorithm request against the served graph.  Jobs move
through ``submitted → running → done`` (or ``failed``); clients submit,
poll status, then fetch the result.  Execution happens on a small pool
of daemon worker threads feeding from a FIFO queue — the HTTP handler
threads never run algorithms themselves, so slow jobs cannot starve
status polls.

Shutdown drains: :meth:`JobManager.shutdown` stops accepting new jobs,
lets every already-queued job execute, and joins the workers.  A
sentinel per worker rides the same FIFO queue behind the pending jobs,
so "drain" needs no separate bookkeeping.

Observability: each job records monotonic ``submitted``/``started``/
``finished`` stamps alongside the wall-clock ones, so queue wait and run
duration are measured on a clock that cannot step backwards; both are
surfaced in ``GET /jobs/<id>`` and observed into the manager's
:class:`~repro.telemetry.metrics.MetricsRegistry` histograms
(``repro_job_queue_wait_seconds``, ``repro_job_duration_seconds``),
with submission/completion counters and a per-state gauge riding along.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.telemetry.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
)

__all__ = ["JOB_STATES", "Job", "JobManager"]

#: Legal :attr:`Job.status` values, in lifecycle order.
JOB_STATES = ("submitted", "running", "done", "failed")

#: Queue entry that tells a worker thread to exit.
_STOP = None

#: Bounded exception-type → reason mapping for the
#: ``repro_jobs_failed_total{reason=...}`` label.  Matched by walking
#: the exception's MRO by class *name* (so the engine's exception types
#: classify without importing them here), falling back to ``"error"``
#: — the label set can never grow beyond these values.
_FAILURE_REASONS = {
    "WorkerStallError": "stall",
    "ShardedWriteRaceError": "write_race",
    "ShardedWorkerError": "worker_crash",
    "ValueError": "invalid_params",
    "KeyError": "invalid_params",
    "TimeoutError": "timeout",
    "MemoryError": "oom",
}


def _failure_reason(exc: BaseException) -> str:
    """Classify an exception into the bounded failure-reason label set."""
    for klass in type(exc).__mro__:
        reason = _FAILURE_REASONS.get(klass.__name__)
        if reason is not None:
            return reason
    return "error"


@dataclass
class Job:
    """One algorithm request and its lifecycle state.

    Mutable fields are only written by the one :class:`JobManager`
    thread executing the job, ``status`` last (see
    :meth:`JobManager._move`); handler threads read snapshots via
    :meth:`to_dict`.
    """

    job_id: str
    algorithm: str
    #: Canonicalized parameters (defaults filled, keys validated).
    params: dict
    status: str = "submitted"
    #: Trace id of the HTTP request that submitted the job — the one
    #: correlation key across the request log line, this record, and
    #: the job's span in the Chrome-trace export.
    trace_id: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: Monotonic twins of the wall-clock stamps: durations derived from
    #: these cannot go negative when the host clock steps.
    submitted_at_monotonic: float = field(default_factory=time.monotonic)
    started_at_monotonic: float | None = None
    finished_at_monotonic: float | None = None
    #: True when the result came from the cache without recompute.
    cached: bool = False
    error: str | None = None
    #: Verbatim traceback text once ``status == "failed"`` — the full
    #: ``traceback.format_exc()`` of the job thread, which for engine
    #: failures embeds the shard worker's own traceback (the engine
    #: propagates worker tracebacks verbatim in the exception message).
    traceback: str | None = None
    #: Bounded failure classification (see ``_FAILURE_REASONS``); also
    #: the ``reason`` label on ``repro_jobs_failed_total``.
    failure_reason: str | None = None
    #: Flight-recorder postmortem bundle id for engine failures (fetch
    #: via ``GET /debug/postmortem/<id>``), None otherwise.
    postmortem_id: str | None = None
    #: The result's JSON document once ``status == "done"``, encoded once
    #: on the job thread; ``/jobs/<id>/result`` wraps an envelope around it.
    result: bytes | None = None
    #: Telemetry-clock interval covering the job's execution, set by the
    #: service app; ``GET /jobs/<id>/trace`` slices the session spans on it.
    trace_window: tuple[int, int] | None = None

    @property
    def queue_wait_seconds(self) -> float | None:
        """Time from submission to execution start (None while queued)."""
        if self.started_at_monotonic is None:
            return None
        return self.started_at_monotonic - self.submitted_at_monotonic

    @property
    def run_seconds(self) -> float | None:
        """Execution duration (None until the job is terminal)."""
        if (
            self.started_at_monotonic is None
            or self.finished_at_monotonic is None
        ):
            return None
        return self.finished_at_monotonic - self.started_at_monotonic

    def to_dict(self) -> dict:
        """JSON-safe status view (the ``GET /jobs/<id>`` body)."""
        return {
            "job_id": self.job_id,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "status": self.status,
            "trace_id": self.trace_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_seconds": self.queue_wait_seconds,
            "run_seconds": self.run_seconds,
            "cached": self.cached,
            "error": self.error,
            "failure_reason": self.failure_reason,
            "traceback": self.traceback,
            "postmortem_id": self.postmortem_id,
        }


class JobManager:
    """Thread-safe FIFO job queue with worker-thread execution.

    Parameters
    ----------
    execute:
        ``execute(job) -> (encoded_result, cached)``; raising marks the
        job ``failed`` with the exception text as :attr:`Job.error`.
    num_threads:
        Worker thread count.  More than one only helps jobs that do not
        contend on the single warm engine (the engine serializes runs
        internally), e.g. cache hits and the triangles closure scan.
    metrics:
        Registry receiving the job metrics (submission/completion
        counters, queue-wait and duration histograms, per-state gauge,
        queue depth).  Defaults to the no-op registry.
    """

    def __init__(
        self,
        execute: Callable[[Job], tuple[bytes, bool]],
        *,
        num_threads: int = 2,
        metrics: MetricsRegistry | NullMetricsRegistry = NULL_METRICS,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self._execute = execute
        self._queue: queue.Queue[Any] = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        #: Jobs per state (see :meth:`_move`): ``/health`` walks no table.
        self._counts = {state: 0 for state in JOB_STATES}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self.metrics = metrics
        self._m_queue_depth = metrics.gauge(
            "repro_job_queue_depth",
            "Jobs submitted but not yet picked up by a worker thread.",
        )
        self._m_state = {
            state: metrics.gauge(
                "repro_jobs_by_state",
                "Jobs currently in each lifecycle state.",
                {"state": state},
            )
            for state in JOB_STATES
        }
        self._m_queue_wait = metrics.histogram(
            "repro_job_queue_wait_seconds",
            "Time a job waited in the queue before execution started.",
        )
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-{i}", daemon=True
            )
            for i in range(num_threads)
        ]
        for t in self._threads:
            t.start()

    # -- client surface --------------------------------------------------
    def submit(
        self, algorithm: str, params: dict, *, trace_id: str | None = None
    ) -> Job:
        """Enqueue a job (already-canonicalized params); returns it."""
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is shut down")
            job = Job(
                job_id=f"job-{next(self._ids):06d}",
                algorithm=algorithm,
                params=params,
                trace_id=trace_id,
            )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._counts["submitted"] += 1
        self.metrics.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted for execution.",
            {"algorithm": algorithm},
        ).inc()
        self._m_state["submitted"].inc()
        self._m_queue_depth.inc()
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Job | None:
        """The job with ``job_id``, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        """All jobs in submission order."""
        with self._lock:
            return [self._jobs[jid] for jid in self._order]

    def counts(self) -> dict[str, int]:
        """Job tallies by status (every state present, zeros included)."""
        with self._lock:
            return dict(self._counts)

    def queue_depth(self) -> int:
        """Jobs submitted but not yet picked up by a worker thread."""
        return self._counts["submitted"]

    def wait(self, job_id: str, timeout: float = 30.0) -> Job:
        """Poll until the job reaches a terminal state (test helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.get(job_id)
            if job is not None and job.status in ("done", "failed"):
                return job
            time.sleep(0.005)
        raise TimeoutError(f"job {job_id} did not finish in {timeout}s")

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, *, timeout: float | None = None) -> None:
        """Stop accepting jobs, drain the queue, join the workers.

        Every job submitted before the call still executes; the
        per-worker stop sentinels enter the FIFO queue behind them.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(_STOP)
        for t in self._threads:
            t.join(timeout=timeout)

    # -- worker loop -----------------------------------------------------
    def _move(self, job: Job, status: str) -> None:
        """Flip ``job`` to ``status`` — the last write of a transition, so
        a handler thread that sees the new status (it takes no lock) also
        sees the stamps, result or error written before it."""
        with self._lock:
            self._counts[job.status] -= 1
            self._counts[status] += 1
            self._m_state[job.status].dec()
            self._m_state[status].inc()
            job.status = status

    def _finish(self, job: Job, status: str) -> None:
        """Stamp, record the metrics, flip to the terminal ``status``."""
        job.finished_at = time.time()
        job.finished_at_monotonic = time.monotonic()
        self.metrics.counter(
            "repro_jobs_completed_total",
            "Jobs that reached a terminal state.",
            {"algorithm": job.algorithm, "status": status},
        ).inc()
        if status == "failed":
            self.metrics.counter(
                "repro_jobs_failed_total",
                "Jobs that failed, by bounded failure classification.",
                {"reason": job.failure_reason or "error"},
            ).inc()
        self.metrics.histogram(
            "repro_job_duration_seconds",
            "Job execution time (queue wait excluded).",
            {"algorithm": job.algorithm},
        ).observe(job.run_seconds)
        self._move(job, status)

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            job.started_at = time.time()
            job.started_at_monotonic = time.monotonic()
            self._move(job, "running")
            self._m_queue_depth.dec()
            self._m_queue_wait.observe(job.queue_wait_seconds)
            try:
                job.result, job.cached = self._execute(job)
            except Exception as exc:
                # Verbatim, unlimited: for engine failures this embeds
                # the shard worker's own traceback text end to end.
                job.traceback = traceback.format_exc()
                job.error = f"{type(exc).__name__}: {exc}"
                job.failure_reason = _failure_reason(exc)
                job.postmortem_id = getattr(exc, "postmortem_id", None)
                self._finish(job, "failed")
            else:
                self._finish(job, "done")
