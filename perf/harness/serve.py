"""``serve_mixed``: ``repro serve`` under an open loop of BFS requests.

Independent users do not wait for each other, so requests are sent on a
fixed schedule whatever the server does, and each is timed from the
moment it was *due*: a stall delays the requests queued behind it and
their wait counts.  A unit is POST ``/jobs`` → poll ``GET /jobs/<id>``
every 2 ms → ``GET /jobs/<id>/result`` → JSON parse.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from harness import probes
from harness.calibrate import Calibrator
from harness.oracle import Oracle
from harness.procs import descendant_cpu_seconds, peak_rss_mb
from harness.spec import EDGE_FACTOR, LATENCY_LIMIT_S, ROOT, SRC, Sizing
from harness.stats import (
    SpanLog,
    histogram_quantile,
    median,
    percentile,
)

__all__ = ["Sent", "open_loop", "run"]

_POLL_INTERVAL_S = 0.002
_CLIENTS = 2
_SPEED_SAMPLES = 25
_START_LINE = re.compile(rb"serve\.start url=http://([0-9.]+):(\d+)")


@dataclass
class Sent:
    """One scheduled request: when it was due, ran, and what came back."""

    index: int
    due: float
    start: float
    end: float
    outcome: Any

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def lag(self) -> float:
        """How late the generator started it."""
        return self.start - self.due


def open_loop(
    rate_per_s: float,
    count: int,
    clients: int,
    send: Callable[[int, int], Any],
    *,
    after: Callable[[Sent], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sent]:
    """Send ``count`` requests at a constant rate over ``clients`` threads.

    Request ``i`` is due at ``t0 + i / rate``; the next free client takes
    it, sleeps until it is due (or starts at once when already late) and
    calls ``send(client, i)``.  An exception from ``send`` becomes the
    request's outcome rather than ending the client.  ``after`` runs on
    the client thread once the request's clock has stopped (verification).
    """
    t0 = clock() + 0.05
    records: list[Sent | None] = [None] * count
    lock = threading.Lock()
    cursor = iter(range(count))

    def client(which: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = t0 + index / rate_per_s
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            try:
                outcome = send(which, index)
            except Exception as exc:  # boundary: counted as a failed unit
                outcome = exc
            records[index] = Sent(index, due, start, clock(), outcome)
            if after is not None:
                after(records[index])

    threads = [
        threading.Thread(target=client, args=(c,), name=f"perf-client-{c}")
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for r in records if r is not None]


class _Server:
    """One ``python -m repro.cli serve`` subprocess."""

    def __init__(self, seed: int, sizing: Sizing, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self.log_path = workdir / "serve.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--scale", str(sizing.scale),
                "--edge-factor", str(EDGE_FACTOR),
                "--seed", str(seed),
                "--num-workers", "2", "--job-threads", "2",
                "--cache-size", str(sizing.cache_size),
                "--port", "0",
            ],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        self.address: tuple[str, int] | None = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the start line is logged and ``/health`` answers."""
        deadline = time.monotonic() + timeout
        while self.address is None:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.proc.returncode}; "
                    f"see {self.log_path}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("serve did not start in time")
            match = _START_LINE.search(self.log_path.read_bytes())
            if match:
                self.address = (match[1].decode(), int(match[2]))
            else:
                time.sleep(0.01)
        conn = self.connect()
        try:
            status, _ = _http(conn, "GET", "/health")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/health answered {status}")

    def connect(self) -> http.client.HTTPConnection:
        assert self.address is not None
        return http.client.HTTPConnection(*self.address, timeout=30)

    def stop(self) -> None:
        """SIGTERM (the server drains), escalate to SIGKILL, reap."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _http(conn, method: str, path: str, body: str | None = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _bfs_request(conn, source: int) -> dict:
    """One unit against the server; timestamps in ``perf_counter_ns``."""
    now = time.perf_counter_ns
    stamps = {"submit": now()}
    status, raw = _http(
        conn, "POST", "/jobs",
        json.dumps({"algorithm": "bfs", "params": {"source": source}}),
    )
    stamps["submitted"] = now()
    if status != 202:
        raise RuntimeError(f"POST /jobs answered {status}: {raw[:200]!r}")
    job_id = json.loads(raw)["job_id"]
    polls = []
    while True:
        t0 = now()
        status, raw = _http(conn, "GET", f"/jobs/{job_id}")
        polls.append((t0, now()))
        job = json.loads(raw)
        if status != 200 or job["status"] in ("done", "failed"):
            break
        if now() - stamps["submit"] > 30e9:
            raise RuntimeError(f"job {job_id} still {job['status']} after 30 s")
        time.sleep(_POLL_INTERVAL_S)
    stamps["fetch"] = now()
    status, raw = _http(conn, "GET", f"/jobs/{job_id}/result")
    stamps["fetched"] = now()
    if status != 200:
        raise RuntimeError(f"result of {job_id} answered {status}")
    document = json.loads(raw)
    stamps["parsed"] = now()
    return {
        "stamps": stamps,
        "polls": polls,
        "job": job,
        "result_bytes": len(raw),
        "cached": bool(document["cached"]),
        "result": document["result"],
    }


def _set_up(seed: int, sizing: Sizing, hot: list[int], workdir: Path):
    """Boot the server, open the connections, warm the hot sources."""
    server = _Server(seed, sizing, workdir)
    try:
        server.wait_ready()
        conns = [server.connect() for _ in range(_CLIENTS)]
        for source in hot:
            _bfs_request(conns[0], source)
    except BaseException:
        server.stop()
        raise
    return server, conns


def _record_spans(log: SpanLog, sent: Sent) -> None:
    """One request's spans; ``Sent`` times are seconds on ``perf_counter``."""
    def ns(t: float) -> int:
        return int(t * 1e9)

    root = log.add("unit", ns(sent.due), ns(sent.end), -1, sent.index)
    if isinstance(sent.outcome, Exception):
        return
    o, unit = sent.outcome, sent.index
    s = o["stamps"]
    log.add("serve.gen_lag", ns(sent.due), ns(sent.start), root.span_id, unit)
    log.add("service.handlers.submit", s["submit"], s["submitted"],
            root.span_id, unit)
    for t0, t1 in o["polls"]:
        log.add("service.handlers.poll", t0, t1, root.span_id, unit)
    log.add("service.handlers.fetch", s["fetch"], s["fetched"],
            root.span_id, unit)
    log.add("serve.client_parse", s["fetched"], s["parsed"],
            root.span_id, unit)


def _server_side(conn, values: dict[str, float]) -> None:
    """Read ``/telemetry`` and ``/metrics.json`` once, after the last request."""
    _, raw = _http(conn, "GET", "/telemetry")
    service = json.loads(raw)["service"]
    lookups = service["cache"]["hits"] + service["cache"]["misses"]
    values["service.cache.hit_ratio"] = service["cache"]["hits"] / lookups
    values["service.cache.evictions"] = service["cache"]["evictions"]
    values["service.jobs.failed"] = service["jobs"]["failed"]
    _, raw = _http(conn, "GET", "/metrics.json")
    merged: dict[float, int] = {}
    total = 0
    for family in json.loads(raw)["families"]:
        if family["name"] != "repro_http_request_latency_seconds":
            continue
        for sample in family["samples"]:
            total += sample["count"]
            for bucket in sample["buckets"]:
                merged[bucket["le"]] = (
                    merged.get(bucket["le"], 0) + bucket["count"]
                )
    values["service.handlers.http_latency_p50_s"] = histogram_quantile(
        sorted(merged.items()), total, 0.5
    )


def run(
    seed: int, seconds: float, sizing: Sizing, oracle: Oracle, workdir: Path,
    *, trace: bool, inject_wrong: bool,
) -> dict:
    """Run ``serve_mixed``; ``trace`` adds the per-layer readings."""
    hot, sources = oracle.meta["hot"], oracle.meta["sources"]
    setups = []
    server = None
    for _ in range(1 if trace else sizing.setup_repeats):
        if server is not None:
            for conn in conns:
                conn.close()
            server.stop()
        t0 = time.perf_counter()
        server, conns = _set_up(seed, sizing, hot, workdir)
        setups.append(time.perf_counter() - t0)

    values: dict[str, float] = {}
    try:
        _, raw = _http(conns[0], "GET", "/graph")
        if json.loads(raw)["fingerprint"] != oracle.meta["fingerprint"]:
            raise RuntimeError("served graph differs from the oracle's")
        if trace:
            health = []
            for _ in range(30):
                t0 = time.perf_counter()
                _http(conns[0], "GET", "/health")
                health.append(time.perf_counter() - t0)
            values["service.handlers.health_p50_s"] = median(health)

        def verify(record: Sent) -> None:
            o = record.outcome
            if isinstance(o, Exception):
                return
            served = o.pop("result")["values"]
            if inject_wrong and record.index == 0:
                served[0] += 1
            o["correct"] = oracle.check_served(sources[record.index], served)

        # Host speed is sampled on either side of the loop, not inside
        # it: the kernel would hold the GIL against the client threads.
        speed = Calibrator()
        for _ in range(_SPEED_SAMPLES):
            speed.sample()
        cpu0 = time.process_time() + descendant_cpu_seconds()
        sent = open_loop(
            sizing.rate_per_s, len(sources), _CLIENTS,
            lambda client, i: _bfs_request(conns[client], sources[i]),
            after=verify,
        )
        cpu1 = time.process_time() + descendant_cpu_seconds()
        for _ in range(_SPEED_SAMPLES):
            speed.sample()
        if trace:
            _server_side(conns[0], values)
            payload = _bfs_request(conns[0], hot[0])["result"]
    finally:
        for conn in conns:
            conn.close()
        server.stop()

    good, failed = [], 0
    for record in sent:
        o = record.outcome
        if isinstance(o, Exception):
            print(f"request {record.index}: {o!r}", file=sys.stderr)
            failed += 1
        elif not o["correct"] or record.latency > LATENCY_LIMIT_S:
            failed += 1
        else:
            good.append(record)
    if not good:
        raise RuntimeError("no request completed")

    latencies = [r.latency for r in sent]
    wall = max(r.end for r in sent) - min(r.due for r in sent)
    result = {
        "attempted": len(sources),
        "failed": failed + len(sources) - len(sent),
        "samples": len(latencies),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": median(setups),
            "latency_p50_s": median(latencies),
            "latency_p90_s": percentile(
                latencies, 90, min_beyond=sizing.min_beyond
            ),
            "throughput_units_s": len(good) / wall,
            "cpu_s_per_unit": (cpu1 - cpu0) * speed.factor / len(sent),
            "peak_rss_mb": peak_rss_mb(),
        }
        result["notes"] = {
            "host_speed_factor": speed.factor,
            "raw_cpu_s_per_unit": (cpu1 - cpu0) / len(sent),
        }
        return result

    log, client_side = _client_side(sent, good)
    values.update(client_side)
    values.update(_local_probes(seed, sizing, oracle, payload))
    result["metrics"] = values
    result["spans"] = log.to_json()
    result["notes"] = {
        "setup_s": setups[0],
        "hits": sum(r.outcome["cached"] for r in good),
        "misses": sum(not r.outcome["cached"] for r in good),
    }
    return result


def _client_side(
    sent: list[Sent], good: list[Sent]
) -> tuple[SpanLog, dict[str, float]]:
    """The span table of the requests and the layer readings from it."""
    log = SpanLog()
    for record in sent:
        _record_spans(log, record)
    outcomes = [r.outcome for r in good]
    lags = sorted(r.lag for r in sent)

    def p50(name: str) -> float:
        return median(log.durations(name))

    return log, {
        "service.handlers.submit_p50_s": p50("service.handlers.submit"),
        "service.handlers.poll_p50_s": p50("service.handlers.poll"),
        "service.handlers.fetch_p50_s": p50("service.handlers.fetch"),
        "service.handlers.polls_per_request":
            sum(len(o["polls"]) for o in outcomes) / len(outcomes),
        "service.handlers.result_bytes":
            median([o["result_bytes"] for o in outcomes]),
        "service.jobs.queue_wait_p50_s":
            median([o["job"]["queue_wait_seconds"] for o in outcomes]),
        "service.jobs.run_p50_s":
            median([o["job"]["run_seconds"] for o in outcomes]),
        "serve.hit_latency_p50_s":
            median([r.latency for r in good if r.outcome["cached"]]),
        "serve.miss_latency_p50_s":
            median([r.latency for r in good if not r.outcome["cached"]]),
        "serve.gen_lag_p99_s": lags[min(len(lags) - 1, int(0.99 * len(lags)))],
        "serve.client_parse_p50_s": p50("serve.client_parse"),
    }


def _local_probes(seed: int, sizing: Sizing, oracle: Oracle,
                  payload: dict) -> dict[str, float]:
    """Layer probes that need the graph in this process."""
    from repro.graph.generators import rmat

    t0 = time.perf_counter()
    graph = rmat(scale=sizing.scale, edge_factor=EDGE_FACTOR, seed=seed)
    t1 = time.perf_counter()
    fingerprint = graph.fingerprint()
    values = {
        "graph.generate_s": t1 - t0,
        "graph.fingerprint_s": time.perf_counter() - t1,
        "graph.arcs": graph.num_arcs,
    }
    values.update(probes.cache(payload, fingerprint, sizing.cache_size))
    values.update(probes.runner(graph, oracle.meta["hot"]))
    return values
