"""End-to-end smoke test for ``repro serve`` as a real subprocess.

Starts the server on a scale-8 RMAT graph, submits ``cc`` and ``bfs``
jobs over HTTP, asserts the served results are bit-identical to direct
library calls on the same graph, times status polls on a keep-alive
connection (a response split over two TCP segments stalls each one for
~40 ms), exercises one result-cache hit, scrapes ``/metrics`` and
validates the Prometheus exposition (format and the core metric
families), then sends SIGTERM and verifies the graceful drain (exit code
0, drain log line, no orphaned processes).  Last, it SIGKILLs a second
server after one job — no drain runs — and verifies that its shard
workers exit and its shared-memory blocks are unlinked within 10 s.
This covers the process/signal path that the in-process suite
(``tests/test_service.py``) cannot.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--scale 8]
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

SERVE_ARGS = [
    "--port", "0",          # ephemeral; parsed from the startup banner
    "--edge-factor", "16",
    "--seed", "1",
    "--num-workers", "2",
    "--job-threads", "2",
]


def _request(base: str, path: str, payload: dict | None = None) -> dict:
    if payload is None:
        req = urllib.request.Request(base + path)
    else:
        req = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(), method="POST"
        )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def _request_text(base: str, path: str) -> tuple[str, str]:
    """GET returning (Content-Type header, body text)."""
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.headers.get("Content-Type", ""), resp.read().decode()


#: Families the exposition must carry after one engine-backed job, one
#: cache hit, and a handful of HTTP requests.
METRIC_FAMILIES = (
    "repro_http_requests_total",
    "repro_http_request_latency_seconds",
    "repro_jobs_submitted_total",
    "repro_jobs_completed_total",
    "repro_job_queue_depth",
    "repro_job_queue_wait_seconds",
    "repro_job_duration_seconds",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_evictions_total",
    "repro_engine_runs_total",
    "repro_engine_supersteps_total",
    "repro_service_up",
    "repro_worker_phase",
    "repro_worker_progress_ratio",
    "repro_superstep_skew_seconds",
)


def check_debug_workers(base: str, expected_workers: int) -> None:
    """Probe the flight-recorder debug endpoint (the recorder is always on)."""
    body = _request(base, "/debug/workers")
    assert body["flight_recorder"] is True, body
    assert body["stall_detected"] is False, body
    rows = body["workers"]
    assert len(rows) == expected_workers, rows
    for row in rows:
        assert row["alive"], row
        assert row["phase"] in ("idle", "run", "scatter", "gather"), row
    listing = _request(base, "/debug/postmortem")
    assert isinstance(listing["postmortems"], list), listing
    print(f"debug ok: {len(rows)} worker rows, postmortem listing serves")

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(?:\{[^{}]*\})?"
    r" (?:NaN|[+-]Inf|-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)$"
)


def check_metrics(base: str) -> None:
    """Scrape ``/metrics`` and validate format + core families."""
    content_type, text = _request_text(base, "/metrics")
    assert content_type.startswith("text/plain"), content_type
    assert "version=0.0.4" in content_type, content_type
    assert text.endswith("\n"), "exposition must end with a newline"
    typed = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line.split(" ")[2:4]
            assert kind in ("counter", "gauge", "histogram"), line
            typed.add(name)
        elif not line.startswith("#"):
            assert _SAMPLE_LINE.match(line), f"malformed sample: {line!r}"
    missing = [f for f in METRIC_FAMILIES if f not in typed]
    assert not missing, f"families absent from /metrics: {missing}"
    assert "repro_service_up 1" in text.splitlines(), "service not up"
    snapshot = _request(base, "/metrics.json")
    assert snapshot["format_version"] == 1, snapshot.get("format_version")
    print(f"metrics ok: {len(typed)} families, exposition valid")


#: A poll's handler takes well under 1 ms; Nagle plus delayed ACK on a
#: response sent as two segments costs >= 40 ms.  4x margin below that.
POLL_MEDIAN_LIMIT_S = 0.010


def check_poll_latency(base: str, job_id: str, polls: int = 20) -> None:
    """Median ``GET /jobs/<id>`` round trip on one keep-alive connection."""
    conn = http.client.HTTPConnection(urlsplit(base).netloc, timeout=30)
    try:
        took = []
        for _ in range(polls):
            t0 = time.perf_counter()
            conn.request("GET", f"/jobs/{job_id}")
            response = conn.getresponse()
            response.read()
            took.append(time.perf_counter() - t0)
            assert response.status == 200, response.status
    finally:
        conn.close()
    median = statistics.median(took)
    assert median <= POLL_MEDIAN_LIMIT_S, (
        f"keep-alive poll median {median * 1e3:.1f} ms exceeds "
        f"{POLL_MEDIAN_LIMIT_S * 1e3:.0f} ms: is the response one write?"
    )
    print(f"poll ok: median {median * 1e3:.2f} ms, {polls} keep-alive polls")


def _wait_job(base: str, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = _request(base, f"/jobs/{job_id}")
        if status["status"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} did not finish within {timeout}s")


def _submit_and_fetch(base: str, algorithm: str, params: dict) -> dict:
    sub = _request(base, "/jobs", {"algorithm": algorithm, "params": params})
    status = _wait_job(base, sub["job_id"])
    assert status["status"] == "done", f"{algorithm} failed: {status}"
    return _request(base, f"/jobs/{sub['job_id']}/result")


def _serve(scale: int) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve``; returns the process and its base URL."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--scale", str(scale), *SERVE_ARGS],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # Startup is a structured `serve.start` log line carrying the bound
    # address as a url= field.
    banner = proc.stdout.readline()
    print(banner, end="")
    assert "serve.start" in banner, f"unexpected first line: {banner!r}"
    match = re.search(r"url=(http://[\d.]+:\d+)", banner)
    assert match, f"no server address in startup line: {banner!r}"
    return proc, match.group(1)


#: Seconds a SIGKILLed server's workers and blocks may outlive it.
ORPHAN_LIMIT_S = 10.0


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def check_killed_server_leaves_nothing(scale: int) -> None:
    """SIGKILL a server after one job: no drain runs, yet its workers
    must exit and its shared memory must be unlinked."""
    proc, base = _serve(scale)
    try:
        _submit_and_fetch(base, "cc", {})  # the run blocks now exist
        pids = [row["pid"] for row in _request(base, "/debug/workers")["workers"]]
        # Every block a worker maps: the graph, the run blocks, the ring.
        blocks = {
            line.split()[-1]
            for pid in pids
            for line in Path(f"/proc/{pid}/maps").read_text().splitlines()
            if "/dev/shm/" in line
        }
        assert blocks, "the workers map no shared memory"
    finally:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + ORPHAN_LIMIT_S
    while True:
        alive = [pid for pid in pids if _running(pid)]
        left = sorted(path for path in blocks if Path(path).exists())
        if not (alive or left) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    proc.stdout.close()
    assert not alive, f"workers {alive} outlived the killed server"
    assert not left, f"blocks {left} outlived the killed server"
    print(f"kill ok: {len(pids)} workers and {len(blocks)} blocks gone "
          "after SIGKILL")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=8)
    args = parser.parse_args(argv)

    proc, base = _serve(args.scale)
    try:
        # The same graph the server built, computed directly in-process.
        from repro.bsp_algorithms import (
            bsp_breadth_first_search,
            bsp_connected_components,
        )
        from repro.graph import rmat

        graph = rmat(scale=args.scale, edge_factor=16, seed=1)
        health = _request(base, "/health")
        assert health["status"] == "ok", health
        assert health["graph"]["num_vertices"] == graph.num_vertices

        cc_res = _submit_and_fetch(base, "cc", {})
        cc_lib = bsp_connected_components(graph)
        assert cc_res["result"]["values"] == cc_lib.labels.tolist(), \
            "served cc labels diverge from the library call"
        assert cc_res["result"]["num_components"] == cc_lib.num_components
        print(f"cc ok: {cc_lib.num_components} components, "
              f"{cc_lib.num_supersteps} supersteps")
        check_poll_latency(base, cc_res["job_id"])

        bfs_res = _submit_and_fetch(base, "bfs", {"source": 0})
        bfs_lib = bsp_breadth_first_search(graph, 0)
        assert bfs_res["result"]["values"] == bfs_lib.distances.tolist(), \
            "served bfs distances diverge from the library call"
        print(f"bfs ok: {len(bfs_res['result']['frontier_sizes'])} levels")

        # An identical resubmit must be served from the cache.
        cc_again = _submit_and_fetch(base, "cc", {})
        assert cc_again["cached"] is True, "identical cc resubmit not cached"
        assert cc_again["result"] == cc_res["result"]
        cache = _request(base, "/telemetry")["service"]["cache"]
        assert cache["hits"] >= 1, f"no cache hit recorded: {cache}"
        print(f"cache ok: {cache['hits']} hit(s), {cache['misses']} miss(es)")

        check_debug_workers(base, expected_workers=2)
        check_metrics(base)

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        print(out, end="")
        assert proc.returncode == 0, f"serve exited with {proc.returncode}"
        assert "drained" in out, "no drain banner after SIGTERM"
        print("shutdown ok: drained cleanly on SIGTERM")
    finally:
        if proc.poll() is None:
            # A check failed.  SIGTERM first, so the server still drains
            # and its shard workers and shared memory are released.
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
    check_killed_server_leaves_nothing(args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
