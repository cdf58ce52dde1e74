"""Service-layer suite: jobs, cache, HTTP surface, graceful shutdown.

The HTTP tests run a real ``ThreadingHTTPServer`` on an ephemeral port
with a module-scoped warm service (scale-7 RMAT, 2 shard workers), so
they exercise the exact stack ``repro serve`` runs — handler threads,
job queue, warm-engine reuse, LRU cache, telemetry counters.
"""

import contextlib
import http.client
import json
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.bsp import make_engine
from repro.bsp_algorithms import (
    bsp_breadth_first_search,
    bsp_connected_components,
    bsp_count_triangles,
    bsp_k_core,
    bsp_pagerank,
    bsp_sssp,
)
from repro.graph import from_edge_list, rmat
from repro.service import (
    ALGORITHMS,
    GraphAnalyticsService,
    JobManager,
    ResultCache,
    build_server,
    canonicalize_params,
)
from repro.service.handlers import (
    PROMETHEUS_CONTENT_TYPE,
    ServiceRequestHandler,
)
from repro.telemetry.metrics import NULL_METRICS
from tests.test_metrics import assert_valid_exposition

# ---------------------------------------------------------------------------
# HTTP helpers
# ---------------------------------------------------------------------------


class Client:
    """Minimal JSON-over-HTTP client returning (status_code, body)."""

    def __init__(self, base: str):
        self.base = base

    def get(self, path: str):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def post(self, path: str, payload=None, headers=None):
        data = json.dumps(payload or {}).encode()
        req = urllib.request.Request(
            self.base + path, data=data, method="POST",
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def get_raw(self, path: str, headers=None):
        """GET returning (status, response headers, body text)."""
        req = urllib.request.Request(
            self.base + path, headers=headers or {}
        )
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, dict(r.headers), r.read().decode("utf-8")

    def post_raw(self, path: str, payload=None, headers=None):
        """POST returning (status, response headers, parsed JSON body)."""
        data = json.dumps(payload or {}).encode()
        req = urllib.request.Request(
            self.base + path, data=data, method="POST",
            headers=headers or {},
        )
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, dict(r.headers), json.loads(r.read())

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.base.removeprefix("http://").split(":")
        return host, int(port)

    def raw(self, request: bytes) -> bytes:
        """Send ``request`` over a bare socket; everything until EOF."""
        with socket.create_connection(self.address, timeout=10) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def run_job(self, algorithm: str, params: dict) -> str:
        """Submit, wait until done; the job id."""
        code, sub = self.post(
            "/jobs", {"algorithm": algorithm, "params": params}
        )
        assert code == 202, sub
        assert self.wait(sub["job_id"])["status"] == "done"
        return sub["job_id"]

    def wait(self, job_id: str, timeout: float = 60.0):
        """Poll the status endpoint until the job is terminal."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            code, body = self.get(f"/jobs/{job_id}")
            assert code == 200, body
            if body["status"] in ("done", "failed"):
                return body
            time.sleep(0.01)
        raise TimeoutError(f"job {job_id} did not finish")


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=7, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def service(graph):
    svc = GraphAnalyticsService(
        graph, num_workers=2, job_threads=2, cache_capacity=16
    )
    yield svc
    svc.close()


@contextlib.contextmanager
def serving(service):
    """A :class:`Client` on a live server over ``service``."""
    server = build_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield Client(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def client(service):
    with serving(service) as c:
        yield c


# ---------------------------------------------------------------------------
# Unit tier: cache, params, jobs
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=2)
        cache.put("a", b'{"v":1}')
        cache.put("b", b'{"v":2}')
        assert cache.get("a") == b'{"v":1}'  # refreshes 'a'
        cache.put("c", b'{"v":3}')           # evicts 'b' (LRU tail)
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        stats = cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 1
        assert stats["evictions"] == 1 and stats["size"] == 2

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", b'{"v":1}')
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_key_is_canonical_in_param_order(self):
        k1 = ResultCache.make_key("fp", "pagerank", {"a": 1, "b": 2})
        k2 = ResultCache.make_key("fp", "pagerank", {"b": 2, "a": 1})
        assert k1 == k2
        assert ResultCache.make_key("other", "pagerank", {"a": 1, "b": 2}) != k1


class TestCanonicalizeParams:
    def test_defaults_fill_to_one_cache_key(self, graph):
        implicit = canonicalize_params("pagerank", {}, graph)
        explicit = canonicalize_params(
            "pagerank", {"num_supersteps": 30, "damping": 0.85}, graph
        )
        assert implicit == explicit

    def test_unknown_algorithm(self, graph):
        with pytest.raises(ValueError, match="unknown algorithm"):
            canonicalize_params("nope", {}, graph)

    def test_unknown_parameter(self, graph):
        with pytest.raises(ValueError, match="unknown parameter"):
            canonicalize_params("cc", {"source": 0}, graph)

    def test_missing_required(self, graph):
        with pytest.raises(ValueError, match="source"):
            canonicalize_params("bfs", {}, graph)

    def test_source_out_of_range(self, graph):
        with pytest.raises(ValueError, match="out of range"):
            canonicalize_params(
                "bfs", {"source": graph.num_vertices}, graph
            )

    def test_bad_types_rejected(self, graph):
        with pytest.raises(ValueError, match="integer"):
            canonicalize_params("kcore", {"k": "two"}, graph)
        with pytest.raises(ValueError, match="damping"):
            canonicalize_params("pagerank", {"damping": 1.5}, graph)

    def test_triangles_on_a_directed_graph_is_rejected(self):
        directed = from_edge_list([(0, 1), (1, 2), (2, 0)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            canonicalize_params("triangles", {}, directed)


class TestJobManager:
    def test_failure_marks_failed_with_error(self):
        def explode(job):
            raise RuntimeError("kaboom")

        mgr = JobManager(explode, num_threads=1)
        try:
            job = mgr.submit("cc", {})
            done = mgr.wait(job.job_id)
            assert done.status == "failed"
            assert "kaboom" in done.error
        finally:
            mgr.shutdown()

    def test_drain_finishes_in_flight_job(self):
        release = threading.Event()
        started = threading.Event()

        def slow(job):
            started.set()
            assert release.wait(timeout=30)
            return b'{"ok":true}', False

        mgr = JobManager(slow, num_threads=1)
        job = mgr.submit("cc", {})
        queued = mgr.submit("cc", {})  # still in the queue at shutdown
        assert started.wait(timeout=30)
        shutter = threading.Thread(target=mgr.shutdown)
        shutter.start()
        with pytest.raises(RuntimeError, match="shut down"):
            # Drain is underway: no new work accepted...
            time.sleep(0.05)
            mgr.submit("cc", {})
        release.set()
        shutter.join(timeout=30)
        # ...but both the in-flight and the queued job completed.
        assert mgr.get(job.job_id).status == "done"
        assert mgr.get(queued.job_id).status == "done"

    def test_submit_order_preserved(self):
        mgr = JobManager(lambda job: (b"{}", False), num_threads=1)
        try:
            ids = [mgr.submit("cc", {}).job_id for _ in range(5)]
            assert [j.job_id for j in mgr.list_jobs()] == ids
        finally:
            mgr.shutdown()


# ---------------------------------------------------------------------------
# HTTP tier against the warm service
# ---------------------------------------------------------------------------


class TestServiceHTTP:
    def test_health_and_graph(self, client, graph):
        code, body = client.get("/health")
        assert code == 200 and body["status"] == "ok"
        assert body["graph"]["num_vertices"] == graph.num_vertices
        assert body["algorithms"] == list(ALGORITHMS)
        code, info = client.get("/graph")
        assert code == 200
        assert info["fingerprint"] == graph.fingerprint()

    def test_submit_poll_fetch_matches_library(self, client, graph):
        code, sub = client.post(
            "/jobs", {"algorithm": "cc", "params": {}}
        )
        assert code == 202 and sub["status"] == "submitted"
        done = client.wait(sub["job_id"])
        assert done["started_at"] is not None
        assert done["finished_at"] is not None
        code, res = client.get(f"/jobs/{sub['job_id']}/result")
        assert code == 200
        lib = bsp_connected_components(graph)
        assert res["result"]["values"] == lib.labels.tolist()
        assert res["result"]["num_components"] == lib.num_components
        assert res["result"]["num_supersteps"] == lib.num_supersteps

    def test_every_algorithm_serves_bit_identical_values(self, client, graph):
        lib = {
            "sssp": bsp_sssp(graph, 5).distances.tolist(),
            "kcore": np.asarray(
                bsp_k_core(graph, 2).in_core, dtype=bool
            ).tolist(),
            "triangles": bsp_count_triangles(graph).per_vertex.tolist(),
        }
        params = {"sssp": {"source": 5}, "kcore": {"k": 2}, "triangles": {}}
        jobs = {}
        for algo in lib:
            code, sub = client.post(
                "/jobs", {"algorithm": algo, "params": params[algo]}
            )
            assert code == 202
            jobs[algo] = sub["job_id"]
        for algo, jid in jobs.items():
            assert client.wait(jid)["status"] == "done"
            _, res = client.get(f"/jobs/{jid}/result")
            served = res["result"]["values"]
            # sssp serializes +inf (unreachable) as null.
            expect = [
                None if isinstance(v, float) and not np.isfinite(v) else v
                for v in lib[algo]
            ]
            assert served == expect, f"{algo} diverged from the library call"

    def test_concurrent_submits_from_eight_threads(self, client, graph):
        sources = list(range(8))
        outcomes: dict[int, dict] = {}
        errors: list[Exception] = []

        def one_client(source: int) -> None:
            try:
                code, sub = client.post(
                    "/jobs",
                    {"algorithm": "bfs", "params": {"source": source}},
                )
                assert code == 202, sub
                done = client.wait(sub["job_id"])
                assert done["status"] == "done", done
                _, res = client.get(f"/jobs/{sub['job_id']}/result")
                outcomes[source] = res["result"]
            except Exception as exc:  # surfaced below, with context
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(s,)) for s in sources
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert sorted(outcomes) == sources
        for source, result in outcomes.items():
            lib = bsp_breadth_first_search(graph, source)
            assert result["values"] == lib.distances.tolist(), (
                f"bfs from {source} diverged under concurrency"
            )

    def test_cache_hit_skips_recompute(self, client, service):
        tel = service.telemetry

        def counter_total(name):
            return sum(
                int(c.value) for c in tel.counters if c.name == name
            )

        def job_spans():
            return len(tel.spans_named("job"))

        params = {"algorithm": "kcore", "params": {"k": 3}}
        _, first = client.post("/jobs", params)
        assert client.wait(first["job_id"])["status"] == "done"
        misses0 = counter_total("service_cache_miss")
        hits0 = counter_total("service_cache_hit")
        spans0 = job_spans()

        _, second = client.post("/jobs", params)
        done = client.wait(second["job_id"])
        assert done["cached"] is True
        _, res = client.get(f"/jobs/{second['job_id']}/result")
        assert res["cached"] is True
        # Telemetry proves no recompute: one hit counter, no new job span.
        assert counter_total("service_cache_hit") == hits0 + 1
        assert counter_total("service_cache_miss") == misses0
        assert job_spans() == spans0

        _, first_res = client.get(f"/jobs/{first['job_id']}/result")
        assert res["result"] == first_res["result"]

    def test_cache_key_covers_default_params(self, client, service):
        hits_before = service.cache.stats()["hits"]
        explicit = {
            "algorithm": "pagerank",
            "params": {"num_supersteps": 30, "damping": 0.85},
        }
        implicit = {"algorithm": "pagerank", "params": {}}
        _, a = client.post("/jobs", explicit)
        assert client.wait(a["job_id"])["status"] == "done"
        _, b = client.post("/jobs", implicit)
        assert client.wait(b["job_id"])["cached"] is True
        assert service.cache.stats()["hits"] == hits_before + 1

    def test_submit_validation_errors_are_400(self, client):
        for payload in (
            {"algorithm": "nope"},
            {"algorithm": "bfs", "params": {}},
            {"algorithm": "bfs", "params": {"source": -1}},
            {"algorithm": "cc", "params": {"k": 1}},
            {"params": {}},
        ):
            code, body = client.post("/jobs", payload)
            assert code == 400, payload
            assert "error" in body

    def test_malformed_json_is_400(self, client):
        req = urllib.request.Request(
            client.base + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_unknown_routes_and_jobs_are_404(self, client):
        assert client.get("/nope")[0] == 404
        assert client.get("/jobs/job-999999")[0] == 404
        assert client.get("/jobs/job-999999/result")[0] == 404

    def test_result_before_done_is_409(self, service, client):
        release = threading.Event()
        # Hold the engine lock so the next engine-backed job stays queued
        # behind it, then poll its result while it cannot have finished.
        with service.engine._lifecycle_lock:
            code, sub = client.post(
                "/jobs", {"algorithm": "bfs", "params": {"source": 9}}
            )
            assert code == 202
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                code, body = client.get(f"/jobs/{sub['job_id']}/result")
                if code == 409:
                    assert body["status"] in ("submitted", "running")
                    break
                time.sleep(0.005)
            else:  # pragma: no cover - diagnostic
                pytest.fail("job finished before the 409 window was seen")
        release.set()
        assert client.wait(sub["job_id"])["status"] == "done"

    def test_telemetry_and_trace_endpoints(self, client):
        code, report = client.get("/telemetry")
        assert code == 200
        assert report["service"]["cache"]["hits"] >= 1
        assert report["service"]["jobs"]["done"] >= 1
        assert any(
            c["name"] == "service_cache_hit" for c in report["counters"]
        )
        code, trace = client.get("/trace")
        assert code == 200
        assert trace["traceEvents"]

    def test_jobs_listing(self, client):
        code, body = client.get("/jobs")
        assert code == 200
        assert len(body["jobs"]) >= 1
        assert all("job_id" in j for j in body["jobs"])


# ---------------------------------------------------------------------------
# The response path: one write per response, results encoded once
# ---------------------------------------------------------------------------

#: ``service.handlers.result_bytes`` of the scale-15 BFS payload at the
#: commit before results were encoded once (perf/README.md baseline).
_PARENT_RESULT_BYTES = 107_094


class _RecordingWfile:
    """Stands in for a handler's ``wfile``; notes every write."""

    def __init__(self, inner, writes: list[bytes]):
        self._inner = inner
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(monkeypatch):
    """What each new connection's handler does to its socket.

    ``wire["writes"]`` collects every ``wfile.write`` and
    ``wire["nodelay"]`` the ``TCP_NODELAY`` option of every accepted
    connection, for as long as the test runs.
    """
    seen = {"writes": [], "nodelay": []}
    setup = ServiceRequestHandler.setup

    def recording_setup(self):
        setup(self)
        seen["nodelay"].append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        self.wfile = _RecordingWfile(self.wfile, seen["writes"])

    monkeypatch.setattr(ServiceRequestHandler, "setup", recording_setup)
    return seen


def _result_member(body: bytes) -> bytes:
    """The bytes of the ``result`` member of a ``/result`` document."""
    marker = b', "result": '
    assert body.endswith(b"}") and body.count(marker) == 1
    return body[body.index(marker) + len(marker):-1]


class TestResponsePath:
    @pytest.fixture(scope="class")
    def cold_client(self, graph):
        """A service of its own: nothing is cached before the test asks."""
        with GraphAnalyticsService(
            graph, num_workers=2, job_threads=1, cache_capacity=8
        ) as svc, serving(svc) as c:
            yield c

    def test_every_route_is_one_write(self, client, wire):
        job_id = client.run_job("bfs", {"source": 40})
        requests = [
            ("GET", path, None)
            for path in (
                "/health", "/graph", "/jobs", f"/jobs/{job_id}",
                f"/jobs/{job_id}/result", f"/jobs/{job_id}/trace",
                "/metrics", "/metrics.json", "/telemetry", "/trace",
                "/debug/workers", "/debug/postmortem",
                "/debug/postmortem/pm-no-such-bundle",     # 404
                "/jobs/job-999999/result", "/nope",        # 404
            )
        ] + [
            ("PUT", "/jobs", None),                        # 405
            ("DELETE", f"/jobs/{job_id}", None),           # 405
            ("POST", "/jobs",
             b'{"algorithm": "bfs", "params": {"source": 41}}'),
            ("POST", "/jobs", b'{"algorithm": "bfs", "params": {}}'),
            ("POST", "/jobs", b"{not json"),
            ("POST", "/nope", b"{}"),
        ]
        for method, path, payload in requests:
            del wire["writes"][:]
            conn = http.client.HTTPConnection(*client.address, timeout=30)
            try:
                conn.request(method, path, body=payload)
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            assert len(wire["writes"]) == 1, (method, path, payload)
            head, _, sent = wire["writes"][0].partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 %d " % response.status)
            assert sent == body, (method, path, payload)
            assert int(response.headers["Content-Length"]) == len(body)

    def test_shutdown_route_is_one_write(self, graph, wire):
        with GraphAnalyticsService(
            graph, num_workers=1, job_threads=1, cache_capacity=4
        ) as svc, serving(svc) as c:
            assert c.post("/shutdown")[0] == 202
            assert len(wire["writes"]) == 1

    def test_accepted_connection_has_nodelay(self, client, wire):
        assert client.get("/health")[0] == 200
        assert wire["nodelay"] and all(wire["nodelay"])

    def test_keep_alive_round_trip_has_no_stall(self, client):
        """A second small segment held for the client's delayed ACK costs
        >= 40 ms per response; the bound leaves a 4x margin below it."""
        conn = http.client.HTTPConnection(*client.address, timeout=30)
        try:
            took = []
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                took.append(time.perf_counter() - t0)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(took) < 0.010, sorted(took)

    @pytest.mark.parametrize(
        "algorithm, params",
        [
            ("cc", {}),
            ("bfs", {"source": 5}),
            ("sssp", {"source": 5}),
            ("pagerank", {"num_supersteps": 7}),
            ("kcore", {"k": 2}),
        ],
    )
    def test_result_document_and_cached_bytes(
        self, cold_client, graph, algorithm, params
    ):
        client = cold_client
        if algorithm == "cc":
            lib = bsp_connected_components(graph)
            values, extra = lib.labels, {"num_components": lib.num_components}
        elif algorithm == "bfs":
            lib = bsp_breadth_first_search(graph, 5)
            values = lib.distances
            extra = {"source": 5, "frontier_sizes": list(lib.frontier_sizes)}
        elif algorithm == "sssp":
            lib = bsp_sssp(graph, 5)
            values, extra = lib.distances, {"source": 5}
        elif algorithm == "pagerank":
            with make_engine(graph, num_workers=2) as engine:
                lib = bsp_pagerank(graph, num_supersteps=7, engine=engine)
            values, extra = lib.ranks, {}
        else:
            lib = bsp_k_core(graph, 2)
            values = np.asarray(lib.in_core, dtype=bool)
            extra = {"k": 2, "core_size": int(values.sum())}
        expect = {
            "values": [
                None if isinstance(v, float) and not np.isfinite(v) else v
                for v in values.tolist()
            ],
            **extra,
            "algorithm": algorithm,
            "num_supersteps": lib.num_supersteps,
            "messages_per_superstep": list(lib.messages_per_superstep),
        }
        if algorithm == "sssp":  # the graph has vertices 5 cannot reach
            assert None in expect["values"]

        first = client.run_job(algorithm, params)
        again = client.run_job(algorithm, params)
        _, _, fresh = client.get_raw(f"/jobs/{first}/result")
        _, _, cached = client.get_raw(f"/jobs/{again}/result")
        document = json.loads(fresh)
        assert document["result"] == expect
        assert document["job_id"] == first and document["status"] == "done"
        assert document["cached"] is False
        assert json.loads(cached)["cached"] is True
        assert _result_member(cached.encode()) == _result_member(
            fresh.encode()
        )

    def test_scale15_bfs_payload_not_larger_than_before(self):
        big = rmat(scale=15, edge_factor=16, seed=1)
        source = int(np.argmax(big.degrees()))
        with GraphAnalyticsService(
            big, num_workers=2, job_threads=1, cache_capacity=4
        ) as svc, serving(svc) as c:
            job_id = c.run_job("bfs", {"source": source})
            _, _, body = c.get_raw(f"/jobs/{job_id}/result")
        assert len(body.encode()) <= _PARENT_RESULT_BYTES
        lib = bsp_breadth_first_search(big, source)
        assert json.loads(body)["result"]["values"] == lib.distances.tolist()


class TestRequestBodyFraming:
    """``Content-Length`` is outside input: bad values are 400s, and a
    body the server will not read must not be parsed as a request."""

    @staticmethod
    def _post(headers: bytes, body: bytes = b"") -> bytes:
        return (
            b"POST /jobs HTTP/1.1\r\nHost: test\r\n" + headers
            + b"\r\n\r\n" + body
        )

    @staticmethod
    def _statuses(stream: bytes) -> list[bytes]:
        return re.findall(rb"HTTP/1\.1 (\d{3}) ", stream)

    def test_non_integer_content_length_is_400(self, client, wire):
        stream = client.raw(self._post(b"Content-Length: lots", b"{}"))
        assert self._statuses(stream) == [b"400"]
        assert len(wire["writes"]) == 1

    def test_negative_content_length_is_400(self, client, wire):
        # Before the check, rfile.read(-1) held the handler thread until
        # the client hung up: this request would time out, not answer.
        stream = client.raw(self._post(b"Content-Length: -1", b"{}"))
        assert self._statuses(stream) == [b"400"]
        assert len(wire["writes"]) == 1

    def test_413_closes_the_connection(self, client, wire):
        smuggled = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
        stream = client.raw(
            self._post(b"Content-Length: 2000000", smuggled)
        )
        # One response, then EOF: the unread body was not served.
        assert self._statuses(stream) == [b"413"]
        assert b"Connection: close" in stream
        assert len(wire["writes"]) == 1


# ---------------------------------------------------------------------------
# Observability: /metrics, trace correlation, health, timing
# ---------------------------------------------------------------------------

#: Metric families the service must expose once at least one job and one
#: request have been observed (engine families appear after the first
#: engine-backed run).
_CORE_FAMILIES = {
    "repro_http_requests_total",
    "repro_http_request_latency_seconds",
    "repro_jobs_submitted_total",
    "repro_jobs_completed_total",
    "repro_jobs_by_state",
    "repro_job_queue_depth",
    "repro_job_queue_wait_seconds",
    "repro_job_duration_seconds",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_evictions_total",
    "repro_cache_entries",
    "repro_cache_capacity",
    "repro_service_up",
    "repro_service_uptime_seconds",
    "repro_engine_workers_alive",
    "repro_engine_runs_total",
    "repro_engine_supersteps_total",
}


class TestObservability:
    """The PR's acceptance surface: exposition, tracing, health, timing.

    Runs against the same module-scoped warm service as
    :class:`TestServiceHTTP`, after it — so jobs and requests have
    already flowed and every metric family has data.
    """

    def _run_job(self, client, source: int) -> dict:
        code, sub = client.post(
            "/jobs", {"algorithm": "bfs", "params": {"source": source}}
        )
        assert code == 202, sub
        done = client.wait(sub["job_id"])
        assert done["status"] == "done", done
        return done

    def test_metrics_exposition_is_valid_and_complete(self, client):
        self._run_job(client, 20)  # ensure an engine-backed run happened
        status, headers, text = client.get_raw("/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        samples = assert_valid_exposition(text)
        missing = _CORE_FAMILIES - samples.keys()
        assert not missing, f"families absent from /metrics: {sorted(missing)}"
        # Spot-check semantics, not just presence.
        up = samples["repro_service_up"]
        assert up == [({}, 1.0)]
        request_total = sum(v for _, v in samples["repro_http_requests_total"])
        assert request_total >= 1
        assert any(
            labels.get("route") == "/jobs" and labels.get("method") == "POST"
            for labels, _ in samples["repro_http_requests_total"]
        )
        workers = samples["repro_engine_workers_alive"][0][1]
        assert workers == 2.0

    def test_metrics_json_snapshot(self, client):
        code, snap = client.get("/metrics.json")
        assert code == 200
        assert snap["format_version"] == 1
        names = {f["name"] for f in snap["families"]}
        assert _CORE_FAMILIES <= names
        by_name = {f["name"]: f for f in snap["families"]}
        assert by_name["repro_http_requests_total"]["kind"] == "counter"
        assert by_name["repro_job_queue_depth"]["kind"] == "gauge"
        latency = by_name["repro_http_request_latency_seconds"]
        assert latency["kind"] == "histogram"
        assert latency["samples"][0]["count"] >= 1

    def test_trace_id_round_trip(self, client, service):
        """One client-chosen id correlates the submit response, the
        response header, the job record, and the job's trace export."""
        chosen = "cafe0123deadbeef"
        status, headers, sub = client.post_raw(
            "/jobs",
            {"algorithm": "bfs", "params": {"source": 21}},
            headers={"X-Trace-Id": chosen},
        )
        assert status == 202
        assert sub["trace_id"] == chosen
        assert headers["X-Trace-Id"] == chosen
        done = client.wait(sub["job_id"])
        assert done["trace_id"] == chosen
        code, trace = client.get(f"/jobs/{sub['job_id']}/trace")
        assert code == 200
        assert trace["otherData"]["trace_id"] == chosen
        assert trace["otherData"]["job_id"] == sub["job_id"]
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans, "non-cached job exported no spans"
        # The engine holds the session telemetry: its superstep spans
        # reach the job's trace without any per-call telemetry argument.
        assert {"job", "superstep"} <= {e["name"] for e in spans}

    def test_trace_id_generated_when_absent(self, client):
        status, headers, sub = client.post_raw(
            "/jobs", {"algorithm": "cc", "params": {}}
        )
        assert status == 202
        assert re.fullmatch(r"[0-9a-f]{16}", sub["trace_id"])
        assert headers["X-Trace-Id"] == sub["trace_id"]

    def test_cached_job_trace_is_empty_but_valid(self, client):
        params = {"algorithm": "bfs", "params": {"source": 22}}
        _, first = client.post("/jobs", params)
        assert client.wait(first["job_id"])["status"] == "done"
        _, second = client.post("/jobs", params)
        done = client.wait(second["job_id"])
        assert done["cached"] is True
        code, trace = client.get(f"/jobs/{second['job_id']}/trace")
        assert code == 200
        # Only Chrome metadata events ("M") — nothing executed.
        assert [e for e in trace["traceEvents"] if e.get("ph") != "M"] == []
        assert trace["otherData"]["job_id"] == second["job_id"]

    def test_health_reports_liveness_fields(self, client):
        code, body = client.get("/health")
        assert code == 200
        assert body["workers_alive"] == 2
        assert isinstance(body["queue_depth"], int)
        assert body["queue_depth"] >= 0
        assert body["uptime_seconds"] > 0

    def test_job_timing_fields(self, client):
        done = self._run_job(client, 23)
        assert done["queue_wait_seconds"] >= 0
        assert done["run_seconds"] >= 0
        assert done["finished_at"] >= done["started_at"]

    def test_trace_id_in_every_response(self, client):
        for path in ("/health", "/graph", "/jobs", "/metrics.json"):
            _, headers, _ = client.get_raw(path)
            assert re.fullmatch(r"[0-9a-f]{16}", headers["X-Trace-Id"]), path

    def test_concurrent_scrapes_while_jobs_run(self, client):
        """Hammer the read endpoints from threads during job traffic:
        no errors, every scrape parses, request counters stay monotone."""
        stop = threading.Event()
        errors: list[Exception] = []
        totals_per_scraper: dict[int, list[float]] = {}

        def scraper(idx: int) -> None:
            totals = totals_per_scraper.setdefault(idx, [])
            try:
                while not stop.is_set():
                    _, _, text = client.get_raw("/metrics")
                    samples = assert_valid_exposition(text)
                    totals.append(
                        sum(
                            v
                            for _, v in samples.get(
                                "repro_http_requests_total", []
                            )
                        )
                    )
                    code, _ = client.get("/telemetry")
                    assert code == 200
            except Exception as exc:  # surfaced below
                errors.append(exc)

        def submitter(offset: int) -> None:
            try:
                for source in range(offset, offset + 3):
                    self._run_job(client, 30 + source)
            except Exception as exc:
                errors.append(exc)

        scrapers = [
            threading.Thread(target=scraper, args=(i,)) for i in range(3)
        ]
        submitters = [
            threading.Thread(target=submitter, args=(off,))
            for off in (0, 3)
        ]
        for t in scrapers + submitters:
            t.start()
        for t in submitters:
            t.join(timeout=120)
        stop.set()
        for t in scrapers:
            t.join(timeout=30)
        assert not errors, errors
        for idx, totals in totals_per_scraper.items():
            assert totals, f"scraper {idx} never completed a scrape"
            assert totals == sorted(totals), (
                f"request counter went backwards in scraper {idx}"
            )

    def test_no_metrics_service_exposes_empty_registry(self):
        """``--no-metrics`` wiring: the null registry renders empty and
        instrumented paths still work."""
        graph = rmat(scale=5, edge_factor=8, seed=7)
        with GraphAnalyticsService(
            graph, num_workers=1, job_threads=1, cache_capacity=4,
            metrics=NULL_METRICS,
        ) as svc:
            job = svc.submit("cc", {})
            assert svc.jobs.wait(job.job_id).status == "done"
            assert svc.metrics_text() == ""
            assert svc.metrics_json()["families"] == []


class TestFailedJobPropagation:
    def test_triangles_on_a_directed_graph_is_400_over_http(self):
        """Served ``.gr`` files are directed: a triangles request must be
        refused at submit, not accepted and then failed in the runner."""
        directed = from_edge_list([(0, 1), (1, 2), (2, 0)], directed=True)
        with GraphAnalyticsService(
            directed, num_workers=1, job_threads=1, cache_capacity=4
        ) as svc, serving(svc) as client:
            code, body = client.post(
                "/jobs", {"algorithm": "triangles", "params": {}}
            )
            assert code == 400
            assert "undirected" in body["error"]
            assert svc.jobs.list_jobs() == []

    def test_runtime_failure_surfaces_error(self):
        """cc on a directed graph passes submit validation but fails in
        the runner; the error must reach the client, not vanish."""
        directed = from_edge_list(
            [(0, 1), (1, 2), (2, 0)], directed=True
        )
        with GraphAnalyticsService(
            directed, num_workers=1, job_threads=1, cache_capacity=4
        ) as svc:
            job = svc.submit("cc", {})
            done = svc.jobs.wait(job.job_id)
            assert done.status == "failed"
            assert "undirected" in done.error

    def test_failed_result_is_500_over_http(self):
        directed = from_edge_list([(0, 1), (1, 2)], directed=True)
        with GraphAnalyticsService(
            directed, num_workers=1, job_threads=1, cache_capacity=4
        ) as svc, serving(svc) as client:
            code, sub = client.post(
                "/jobs", {"algorithm": "kcore", "params": {"k": 1}}
            )
            assert code == 202
            assert client.wait(sub["job_id"])["status"] == "failed"
            code, body = client.get(f"/jobs/{sub['job_id']}/result")
            assert code == 500
            assert "undirected" in body["error"]


class TestGracefulShutdown:
    def test_close_drains_in_flight_job_and_engine(self):
        graph = rmat(scale=6, edge_factor=8, seed=5)
        svc = GraphAnalyticsService(
            graph, num_workers=2, job_threads=1, cache_capacity=4
        )
        jobs = [
            svc.submit("pagerank", {"num_supersteps": 20}),
            svc.submit("bfs", {"source": 2}),
        ]
        svc.close()  # drain: both jobs must have completed
        for job in jobs:
            assert svc.jobs.get(job.job_id).status == "done"
        assert svc.engine.closed
        # No orphaned worker processes.
        assert svc.engine.workers_alive == 0
        with pytest.raises(RuntimeError):
            svc.submit("cc", {})

    def test_http_shutdown_endpoint_stops_serve_loop(self):
        graph = rmat(scale=6, edge_factor=8, seed=5)
        svc = GraphAnalyticsService(
            graph, num_workers=1, job_threads=1, cache_capacity=4
        )
        server = build_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = Client(f"http://{host}:{port}")
        code, sub = client.post(
            "/jobs", {"algorithm": "cc", "params": {}}
        )
        assert code == 202
        code, body = client.post("/shutdown")
        assert code == 202 and body["status"] == "shutting-down"
        thread.join(timeout=30)
        assert not thread.is_alive(), "serve loop did not stop"
        server.server_close()
        svc.close()  # the CLI epilogue: drain after the socket closes
        assert svc.jobs.get(sub["job_id"]).status == "done"
        assert svc.engine.closed

    def test_close_is_idempotent(self):
        graph = rmat(scale=5, edge_factor=8, seed=5)
        svc = GraphAnalyticsService(graph, num_workers=1, job_threads=1)
        svc.close()
        svc.close()
        assert svc.engine.closed


class TestFlightRecorderEndpoints:
    """PR 10 surface: ``/debug/workers``, ``/debug/postmortem``, the
    per-worker metric families, and failed-job forensics fields."""

    def test_debug_workers_endpoint(self, client):
        code, body = client.get("/debug/workers")
        assert code == 200, body
        assert body["flight_recorder"] is True  # default-on
        assert body["stall_detected"] is False
        assert body["partition_policy"]
        rows = body["workers"]
        assert [row["worker"] for row in rows] == [0, 1]
        for row in rows:
            assert row["alive"] is True
            assert row["pid"]
            assert row["phase"] in ("idle", "run", "scatter", "gather")
            assert 0.0 <= row["progress_ratio"] <= 1.0

    def test_debug_postmortem_listing_and_404(self, client):
        code, body = client.get("/debug/postmortem")
        assert code == 200
        assert isinstance(body["postmortems"], list)
        code, body = client.get("/debug/postmortem/pm-no-such-bundle")
        assert code == 404
        # Malformed ids (traversal attempts) are refused, not resolved.
        code, body = client.get("/debug/postmortem/pm-..-escape")
        assert code == 404

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_worker_metric_families_in_exposition(self, client):
        # A source no other test asks for: a cache hit runs no engine.
        code, sub = client.post(
            "/jobs", {"algorithm": "sssp", "params": {"source": 101}}
        )
        assert code == 202
        assert client.wait(sub["job_id"])["status"] == "done"
        _, _, text = client.get_raw("/metrics")
        samples = assert_valid_exposition(text)
        for family in (
            "repro_worker_phase",
            "repro_worker_progress_ratio",
            "repro_superstep_skew_seconds",
        ):
            assert family in samples, f"{family} absent from /metrics"
        # Phase gauges are one-hot per worker.
        by_worker = {}
        for labels, value in samples["repro_worker_phase"]:
            by_worker.setdefault(labels["worker"], 0.0)
            by_worker[labels["worker"]] += value
        assert by_worker == {"0": 1.0, "1": 1.0}
        ratios = dict(
            (labels["worker"], value)
            for labels, value in samples["repro_worker_progress_ratio"]
        )
        assert set(ratios) == {"0", "1"}
        skew_count = [
            value
            for labels, value in samples["repro_superstep_skew_seconds"]
            if labels.get("le") == "+Inf"
        ]
        assert skew_count and skew_count[0] >= 1.0

    def test_failed_job_carries_traceback_and_reason(self):
        directed = from_edge_list([(0, 1), (1, 2)], directed=True)
        with GraphAnalyticsService(
            directed, num_workers=1, job_threads=1, cache_capacity=4
        ) as svc:
            job = svc.submit("cc", {})
            done = svc.jobs.wait(job.job_id)
            assert done.status == "failed"
            # Verbatim job-thread traceback, bounded reason label, and
            # (no engine crash here) no postmortem pointer.
            assert done.traceback and "Traceback" in done.traceback
            assert "undirected" in done.traceback
            assert done.failure_reason == "invalid_params"
            assert done.postmortem_id is None
            view = done.to_dict()
            assert view["failure_reason"] == "invalid_params"
            assert "undirected" in view["traceback"]
            text = svc.metrics_text()
            assert (
                'repro_jobs_failed_total{reason="invalid_params"} 1'
                in text
            )
