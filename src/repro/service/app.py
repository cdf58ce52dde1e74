"""The graph-analytics service: warm engine, jobs, cache, telemetry.

This is the orchestrator tier: it owns the served graph (frozen once
into the sharded engine's shared-memory CSR at startup), the persistent
:class:`~repro.bsp.parallel.ShardedBSPEngine` worker pool reused by
every request, the :class:`~repro.service.jobs.JobManager`, the
:class:`~repro.service.cache.ResultCache`, and one
:class:`~repro.telemetry.core.Telemetry` collecting spans and counters
across the whole serving session.  The HTTP tier
(:mod:`repro.service.handlers`) only translates requests onto this
object, so everything here is exercisable without a socket.

Shutdown is graceful by construction: :meth:`GraphAnalyticsService.close`
first drains the job queue (in-flight and already-queued jobs finish),
then closes the engine — worker processes exit and shared memory is
unlinked, nothing is orphaned.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from http.server import ThreadingHTTPServer

from repro.bsp.parallel import ShardedBSPEngine
from repro.graph.csr import CSRGraph
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobManager
from repro.service.runner import ALGORITHMS, canonicalize_params, run_algorithm
from repro.telemetry.core import Telemetry
from repro.telemetry.flightrec import (
    PHASE_NAMES,
    list_postmortems,
    load_postmortem,
)
from repro.telemetry.export import chrome_trace, telemetry_report
from repro.telemetry.logs import NULL_LOGGER
from repro.telemetry.metrics import (
    MetricsRegistry,
    metrics_snapshot,
    render_prometheus,
)

__all__ = [
    "GraphAnalyticsService",
    "GraphServiceHTTPServer",
    "build_server",
    "new_trace_id",
]


def new_trace_id() -> str:
    """A fresh request/job correlation id (16 hex chars, uuid4-derived)."""
    return uuid.uuid4().hex[:16]


class GraphAnalyticsService:
    """Serve algorithm jobs against one read-only graph.

    Parameters
    ----------
    graph:
        The graph to serve; its CSR is copied into shared memory once,
        at construction, and every job reads that copy.
    num_workers:
        Shard worker processes for the warm engine.
    partition:
        Vertex placement policy for the warm engine.
    job_threads:
        Job-executor threads.  Engine-backed jobs serialize on the
        engine's internal lock; extra threads let cache hits and
        triangle jobs proceed alongside an engine run.
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    telemetry:
        Optional externally-owned :class:`Telemetry`; one is created
        when omitted.  Cache hits/misses, job spans, and every engine
        span of the session land here.
    metrics:
        Optional externally-owned
        :class:`~repro.telemetry.metrics.MetricsRegistry`; one is
        created when omitted.  Pass :data:`~repro.telemetry.metrics.NULL_METRICS`
        to disable aggregation entirely (``repro serve --no-metrics``).
    logger:
        Structured event logger for job lifecycle and HTTP request
        records; defaults to the silent
        :data:`~repro.telemetry.logs.NULL_LOGGER` so in-process
        embedding produces no output.
    stall_timeout:
        Passed through to :class:`~repro.bsp.parallel.ShardedBSPEngine`
        (default :data:`~repro.bsp.parallel.STALL_TIMEOUT`): how long a
        barrier waits on a silent worker before the job fails with a
        stall error and a postmortem bundle, served via
        ``GET /debug/postmortem/<id>``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        num_workers: int = 2,
        partition: str = "hash",
        job_threads: int = 2,
        cache_capacity: int = 128,
        telemetry: Telemetry | None = None,
        metrics=None,
        logger=None,
        stall_timeout: float | None = None,
    ) -> None:
        self.graph = graph
        self.fingerprint = graph.fingerprint()
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(label="serve")
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logger = logger if logger is not None else NULL_LOGGER
        self.num_workers = int(num_workers)
        self.cache = ResultCache(cache_capacity)
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._closed = False
        self._close_lock = threading.Lock()
        self.engine = ShardedBSPEngine(
            graph,
            num_workers=self.num_workers,
            partition=partition,
            telemetry=self.telemetry,
            stall_timeout=stall_timeout,
        )
        # Jobs last: workers must never observe a half-built service.
        self.jobs = JobManager(
            self._execute, num_threads=job_threads, metrics=self.metrics
        )

    # -- request surface -------------------------------------------------
    def submit(
        self,
        algorithm: str,
        params: dict | None,
        *,
        trace_id: str | None = None,
    ) -> Job:
        """Validate and enqueue one job.

        Raises :class:`ValueError` on a bad algorithm/params (HTTP 400)
        and :class:`RuntimeError` once shutdown began (HTTP 503).
        ``trace_id`` correlates the job with the submitting HTTP request;
        one is generated when omitted (direct in-process submission).
        """
        canonical = canonicalize_params(algorithm, params, self.graph)
        if self._closed:
            raise RuntimeError("service is shutting down")
        job = self.jobs.submit(
            algorithm,
            canonical,
            trace_id=trace_id if trace_id is not None else new_trace_id(),
        )
        self.logger.info(
            "job.submitted",
            job_id=job.job_id,
            trace_id=job.trace_id,
            algorithm=algorithm,
        )
        return job

    def _execute(self, job: Job) -> tuple[bytes, bool]:
        """Job-thread entry: serve from cache or compute on the warm engine.

        The result is encoded to its JSON document here, once; the cache
        and the job record keep only those bytes, and every fetch sends them.
        """
        tel = self.telemetry
        key = ResultCache.make_key(self.fingerprint, job.algorithm, job.params)
        hit = self.cache.get(key)
        if hit is not None:
            tel.counter("service_cache_hit", 1)
            self.logger.info(
                "job.done",
                job_id=job.job_id,
                trace_id=job.trace_id,
                algorithm=job.algorithm,
                cached=True,
            )
            return hit, True
        tel.counter("service_cache_miss", 1)
        window_start = tel.now()
        try:
            with tel.span(
                "job", category="service", algorithm=job.algorithm,
                job_id=job.job_id, trace_id=job.trace_id,
            ):
                result = json.dumps(
                    run_algorithm(
                        job.algorithm,
                        job.params,
                        self.graph,
                        engine=self.engine,
                        metrics=self.metrics,
                    ),
                    separators=(",", ":"),
                ).encode("ascii")
        except Exception as exc:
            job.trace_window = (window_start, tel.now())
            self.logger.error(
                "job.failed",
                job_id=job.job_id,
                trace_id=job.trace_id,
                algorithm=job.algorithm,
                error=f"{type(exc).__name__}: {exc}",
                postmortem_id=getattr(exc, "postmortem_id", None),
            )
            raise
        job.trace_window = (window_start, tel.now())
        self.cache.put(key, result)
        self.logger.info(
            "job.done",
            job_id=job.job_id,
            trace_id=job.trace_id,
            algorithm=job.algorithm,
            cached=False,
        )
        return result, False

    # -- reporting -------------------------------------------------------
    def graph_info(self) -> dict:
        """Metadata of the served graph."""
        g = self.graph
        return {
            "fingerprint": self.fingerprint,
            "num_vertices": g.num_vertices,
            "num_edges": g.num_edges,
            "num_arcs": g.num_arcs,
            "directed": g.directed,
            "weighted": g.is_weighted,
            "memory_footprint_bytes": g.memory_footprint_bytes(),
        }

    def status(self) -> dict:
        """The ``GET /health`` body."""
        return {
            "status": "shutting-down" if self._closed else "ok",
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "algorithms": list(ALGORITHMS),
            "num_workers": self.num_workers,
            "workers_alive": self.engine.workers_alive,
            "stall_detected": self.engine.stall_detected,
            "queue_depth": self.jobs.queue_depth(),
            "graph": self.graph_info(),
            "jobs": self.jobs.counts(),
            "cache": self.cache.stats(),
        }

    # -- worker debugging -------------------------------------------------
    def debug_workers(self) -> dict:
        """The ``GET /debug/workers`` body: live flight-recorder view."""
        engine = self.engine
        return {
            "flight_recorder": engine.flight_recorder.is_open,
            "stall_timeout": engine.stall_timeout,
            "stall_detected": engine.stall_detected,
            "stall_events": engine.stall_events,
            "superstep_skew_seconds": engine.superstep_skew_seconds,
            "partition_policy": engine.partition_policy,
            "workers": engine.worker_status(),
        }

    def postmortem_ids(self) -> list[str]:
        """The ``GET /debug/postmortem`` body: bundle ids on disk."""
        return list_postmortems(self.engine.flight_recorder.postmortem_dir)

    def postmortem(self, pm_id: str) -> dict | None:
        """One postmortem bundle by id (None: unknown/malformed id)."""
        return load_postmortem(
            self.engine.flight_recorder.postmortem_dir, pm_id
        )

    # -- metrics ---------------------------------------------------------
    def collect_metrics(self) -> None:
        """Refresh scrape-time series before rendering ``/metrics``.

        Push-style series (request/job counters, histograms) are already
        current; this bridges the pull-style ones — cache tallies, the
        up/uptime gauges — so a scrape always reflects the moment it
        happened.
        """
        self.cache.publish_metrics(self.metrics)
        self.metrics.gauge(
            "repro_service_up",
            "1 while serving, 0 once shutdown began.",
        ).set(0 if self._closed else 1)
        self.metrics.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the service started.",
        ).set(time.monotonic() - self._started_monotonic)
        self.metrics.gauge(
            "repro_engine_workers_alive",
            "Shard worker processes currently alive.",
        ).set(self.engine.workers_alive)
        engine = self.engine
        # One-hot phase gauges plus a progress ratio per worker — label
        # cardinality is bounded by num_workers x 4 phases.
        for row in engine.worker_status():
            worker = str(row["worker"])
            for phase in PHASE_NAMES.values():
                self.metrics.gauge(
                    "repro_worker_phase",
                    "1 for the worker's current flight-recorder "
                    "phase, 0 for the others.",
                    {"worker": worker, "phase": phase},
                ).set(1 if phase == row["phase"] else 0)
            self.metrics.gauge(
                "repro_worker_progress_ratio",
                "Fraction of the current phase's arc range the "
                "worker has processed (1 when idle).",
                {"worker": worker},
            ).set(float(row["progress_ratio"]))
        skew_hist = self.metrics.histogram(
            "repro_superstep_skew_seconds",
            "Per-barrier slowest-vs-median worker busy-time gap — the "
            "skew the BSP model's balanced-work assumption says is 0.",
            buckets=(
                0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
                0.1, 0.5, 1.0, 5.0,
            ),
        )
        for sample in engine.drain_skew_samples():
            skew_hist.observe(sample)

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition)."""
        self.collect_metrics()
        return render_prometheus(self.metrics)

    def metrics_json(self) -> dict:
        """The ``GET /metrics.json`` body (schema-versioned snapshot)."""
        self.collect_metrics()
        return metrics_snapshot(self.metrics)

    def telemetry_report(self) -> dict:
        """The ``GET /telemetry`` body: session report + service block."""
        report = telemetry_report(self.telemetry)
        report["service"] = {
            "uptime_seconds": time.time() - self.started_at,
            "graph": self.graph_info(),
            "jobs": self.jobs.counts(),
            "cache": self.cache.stats(),
        }
        return report

    def chrome_trace(self) -> dict:
        """The ``GET /trace`` body (load in Perfetto / chrome://tracing)."""
        return chrome_trace(self.telemetry)

    def job_trace(self, job: Job) -> dict:
        """The ``GET /jobs/<id>/trace`` body: this job's slice of the session.

        Spans and counters that fall inside the job's execution window
        on the session telemetry clock, rendered as a Chrome trace whose
        ``otherData`` carries the job's ``trace_id`` — the same id the
        submit response, the job record, and the request log line carry.
        Engine-backed jobs serialize on the warm engine, so the window
        contains exactly their spans; a cached job has no window (nothing
        executed) and exports an empty-but-valid trace.
        """
        start_ns, end_ns = job.trace_window or (0, 0)
        view = Telemetry(label=f"job {job.job_id}")
        view.origin_ns = self.telemetry.origin_ns
        view.spans = [
            s
            for s in self.telemetry.spans
            if start_ns <= s.start_ns and s.end_ns <= end_ns
        ]
        view.counters = [
            c
            for c in self.telemetry.counters
            if start_ns <= c.t_ns <= end_ns
        ]
        trace = chrome_trace(view)
        trace["otherData"].update(
            {"job_id": job.job_id, "trace_id": job.trace_id}
        )
        return trace

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, timeout: float | None = None) -> None:
        """Drain in-flight jobs, then release the engine.  Idempotent."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.jobs.shutdown(timeout=timeout)
        self.engine.close()

    def __enter__(self) -> "GraphAnalyticsService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class GraphServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`GraphAnalyticsService`.

    Handler threads are daemonic so a stuck client cannot block process
    exit; job draining is the service's responsibility, not the socket
    layer's.
    """

    daemon_threads = True

    def __init__(self, address, service: GraphAnalyticsService) -> None:
        # Imported here: handlers imports this module for new_trace_id.
        from repro.service.handlers import ServiceRequestHandler

        self.service = service
        #: Set once a client or signal asked the serve loop to stop.
        self.shutdown_requested = threading.Event()
        super().__init__(address, ServiceRequestHandler)

    def initiate_shutdown(self) -> None:
        """Stop the serve loop from any thread (handler or signal safe).

        ``shutdown()`` blocks until the loop exits, so it runs on a
        helper thread; the caller returns immediately.  Job draining
        happens afterwards in the serving thread's epilogue
        (see :func:`repro.service.cli.main`).
        """
        if self.shutdown_requested.is_set():
            return
        self.shutdown_requested.set()
        threading.Thread(
            target=self.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()


def build_server(
    service: GraphAnalyticsService,
    host: str = "127.0.0.1",
    port: int = 8080,
) -> GraphServiceHTTPServer:
    """Bind the HTTP tier to ``service`` (``port=0`` picks a free port)."""
    return GraphServiceHTTPServer((host, port), service)
