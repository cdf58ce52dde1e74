"""Tests for the runtime telemetry subsystem.

Covers the core span/counter recorder (with a deterministic fake
clock), the Chrome-trace and report exports, the disabled-mode no-op
guarantees, per-worker attribution on the sharded engine, and the
equivalence guard: telemetry must never perturb results, histories, or
modeled work traces.
"""

import json

import numpy as np
import pytest

from repro.bsp import (
    BSPEngine,
    DenseBSPEngine,
    ShardedBSPEngine,
    make_engine,
)
from repro.bsp_algorithms import (
    BSPConnectedComponents,
    DenseConnectedComponents,
)
from repro.bsp_algorithms.connected_components import (
    bsp_connected_components,
)
from repro.graph import rmat
from repro.graphct.framework import GraphCT
from repro.telemetry.core import (
    MAIN_TRACK,
    NULL_TELEMETRY,
    Span,
    Telemetry,
    peak_rss_bytes,
    worker_track,
)
from repro.telemetry.export import (
    chrome_trace,
    memory_summary,
    telemetry_report,
)


class FakeClock:
    """Deterministic nanosecond clock: advances 1000 ns per reading."""

    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 1000
        return self.t


@pytest.fixture
def graph():
    return rmat(scale=8, edge_factor=8, seed=3)


# ---------------------------------------------------------------------
# Core recorder
# ---------------------------------------------------------------------
class TestCore:
    def test_span_nesting_and_ordering(self):
        tel = Telemetry("t", clock=FakeClock())
        with tel.span("outer", category="phase"):
            with tel.span("inner", superstep=2):
                pass
        # Completion order: inner closes first.
        assert [s.name for s in tel.spans] == ["inner", "outer"]
        inner, outer = tel.spans
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert inner.superstep == 2 and outer.superstep == -1
        assert outer.category == "phase"

    def test_add_span_and_queries(self):
        tel = Telemetry("t", clock=FakeClock())
        tel.add_span("superstep", 100, 400, superstep=0, active=7)
        tel.add_span("superstep", 500, 600, superstep=1)
        tel.add_span("scan", 100, 200, track=worker_track(0))
        assert len(tel.spans_named("superstep")) == 2
        assert tel.spans_named("scan", track=worker_track(0))[0].args == {}
        assert tel.total_seconds("superstep") == pytest.approx(400 / 1e9)
        assert tel.tracks() == [MAIN_TRACK, worker_track(0)]
        summary = tel.span_summary()
        assert summary["superstep"]["count"] == 2
        assert summary["superstep"]["max_seconds"] == pytest.approx(
            300 / 1e9
        )

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError, match="end"):
            Span("bad", 100, 50)

    def test_counters_record_track_and_superstep(self):
        tel = Telemetry("t", clock=FakeClock())
        tel.counter("messages_sent", 42, superstep=3)
        tel.counter("worker_busy_ns", 7, track=worker_track(1), t_ns=123)
        (c1, c2) = tel.counters
        assert (c1.name, c1.value, c1.superstep) == ("messages_sent", 42, 3)
        assert (c2.track, c2.t_ns) == (worker_track(1), 123)


# ---------------------------------------------------------------------
# Disabled mode
# ---------------------------------------------------------------------
class TestDisabled:
    def test_null_telemetry_is_inert(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.now() == 0
        # The disabled span path allocates nothing: one shared no-op.
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
        with NULL_TELEMETRY.span("x", superstep=1):
            pass
        NULL_TELEMETRY.add_span("y", 0, 1)
        NULL_TELEMETRY.counter("z", 1.0)
        assert NULL_TELEMETRY.spans == ()
        assert NULL_TELEMETRY.counters == ()
        assert NULL_TELEMETRY.span_summary() == {}

    def test_engines_default_to_null(self, graph):
        assert BSPEngine(graph).telemetry is NULL_TELEMETRY
        assert DenseBSPEngine(graph).telemetry is NULL_TELEMETRY
        assert GraphCT(graph).telemetry is NULL_TELEMETRY


# ---------------------------------------------------------------------
# Chrome trace / report export
# ---------------------------------------------------------------------
class TestExport:
    def _loaded(self, tel):
        # Round-trip through the JSON codec, as Perfetto would read it.
        return json.loads(json.dumps(chrome_trace(tel)))

    def test_chrome_trace_round_trip(self):
        tel = Telemetry("unit", clock=FakeClock())
        with tel.span("superstep", category="superstep", superstep=0):
            pass
        tel.add_span("scatter", 5000, 6000, track=worker_track(0))
        tel.counter("active_vertices", 9, superstep=0)
        tel.counter("worker_busy_ns", 3, track=worker_track(0))
        doc = self._loaded(tel)
        events = doc["traceEvents"]

        meta = [e for e in events if e["ph"] == "M"]
        names = {
            e["tid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        assert names[MAIN_TRACK] == "engine"
        assert names[worker_track(0)] == "worker 0"

        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"superstep", "scatter"}
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0

        cs = {e["name"] for e in events if e["ph"] == "C"}
        assert cs == {"active_vertices", "worker_busy_ns[w0]"}

    def test_report_is_schema_versioned(self):
        tel = Telemetry("unit", clock=FakeClock())
        with tel.span("superstep", superstep=0, active=4):
            pass
        report = json.loads(json.dumps(telemetry_report(tel)))
        assert report["format_version"] == 1
        assert report["label"] == "unit"
        (span,) = report["spans"]
        assert span["args"] == {"active": 4}
        assert span["duration_ns"] > 0


# ---------------------------------------------------------------------
# Engine instrumentation
# ---------------------------------------------------------------------
def _cc_run(graph, engine_cls, telemetry=None, **kwargs):
    engine = engine_cls(graph, telemetry=telemetry, **kwargs)
    try:
        program = (
            BSPConnectedComponents()
            if engine_cls is BSPEngine
            else DenseConnectedComponents()
        )
        return engine.run(program)
    finally:
        if hasattr(engine, "close"):
            engine.close()


def _trace_rows(trace):
    return [
        (
            r.name,
            r.kind,
            r.iteration,
            r.parallel_items,
            r.reads,
            r.writes,
            r.atomics,
            r.atomic_max_site,
        )
        for r in trace
    ]


class TestEngineInstrumentation:
    @pytest.mark.parametrize("engine_cls", [BSPEngine, DenseBSPEngine])
    def test_superstep_spans_match_result(self, graph, engine_cls):
        tel = Telemetry("cc")
        result = _cc_run(graph, engine_cls, telemetry=tel)
        steps = tel.spans_named("superstep", track=MAIN_TRACK)
        assert [s.superstep for s in steps] == list(
            range(result.num_supersteps)
        )
        assert [s.args["active"] for s in steps] == (
            result.active_per_superstep
        )
        assert [s.args["sent"] for s in steps] == (
            result.messages_per_superstep
        )
        # Phase spans nest within their superstep span.
        for phase in ("compute",):
            for ph in tel.spans_named(phase, track=MAIN_TRACK):
                step = steps[ph.superstep]
                assert step.contains(ph)

    def test_dense_records_phases_and_counters(self, graph):
        tel = Telemetry("cc")
        result = _cc_run(graph, DenseBSPEngine, telemetry=tel)
        for phase in ("gather", "compute", "scatter"):
            assert len(tel.spans_named(phase)) >= result.num_supersteps - 1
        active = [
            c.value for c in tel.counters if c.name == "active_vertices"
        ]
        assert active == result.active_per_superstep

    @pytest.mark.usefixtures("fan_out_every_superstep")
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_per_worker_attribution(self, graph, workers):
        tel = Telemetry("cc-sharded")
        result = _cc_run(
            graph, ShardedBSPEngine, telemetry=tel, num_workers=workers
        )
        assert result.num_supersteps > 1
        expected = {MAIN_TRACK} | {worker_track(w) for w in range(workers)}
        assert set(tel.tracks()) == expected
        for w in range(workers):
            for phase in ("scatter", "gather"):
                spans = tel.spans_named(phase, track=worker_track(w))
                assert spans, f"no {phase} spans for worker {w}"
                assert all(s.args["worker"] == w for s in spans)
        # Barrier spans and busy/wait samples on the main track.
        assert tel.spans_named("barrier", track=MAIN_TRACK)
        busy = [c for c in tel.counters if c.name == "worker_busy_ns"]
        assert {c.track for c in busy} == {
            worker_track(w) for w in range(workers)
        }
        assert [c.name for c in tel.counters].count("worker_wait_ns") == len(
            busy
        )

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_sharded_barrier_and_combine_inside_their_superstep(self, graph):
        tel = Telemetry("cc-sharded")
        _cc_run(graph, ShardedBSPEngine, telemetry=tel, num_workers=2)
        steps = tel.spans_named("superstep", track=MAIN_TRACK)
        for name in ("barrier", "combine"):
            spans = tel.spans_named(name, track=MAIN_TRACK)
            assert spans, f"no {name} spans"
            for sp in spans:
                assert steps[sp.superstep].contains(sp)

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_sharded_chrome_trace_has_worker_rows(self, graph):
        tel = Telemetry("cc-sharded")
        _cc_run(graph, ShardedBSPEngine, telemetry=tel, num_workers=2)
        events = json.loads(json.dumps(chrome_trace(tel)))["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"engine", "worker 0", "worker 1"}

    def test_equivalence_guard_dense(self, graph):
        plain = _cc_run(graph, DenseBSPEngine)
        tel = Telemetry("cc")
        instrumented = _cc_run(graph, DenseBSPEngine, telemetry=tel)
        assert np.array_equal(plain.values, instrumented.values)
        assert plain.num_supersteps == instrumented.num_supersteps
        assert (
            plain.active_per_superstep == instrumented.active_per_superstep
        )
        assert (
            plain.messages_per_superstep
            == instrumented.messages_per_superstep
        )
        assert _trace_rows(plain.trace) == _trace_rows(instrumented.trace)

    def test_equivalence_guard_sharded(self, graph):
        plain = _cc_run(graph, ShardedBSPEngine, num_workers=2)
        instrumented = _cc_run(
            graph, ShardedBSPEngine, telemetry=Telemetry(), num_workers=2
        )
        assert np.array_equal(plain.values, instrumented.values)
        assert _trace_rows(plain.trace) == _trace_rows(instrumented.trace)

    def test_wrapper_passes_telemetry(self, graph):
        tel = Telemetry("cc")
        res = bsp_connected_components(
            graph, engine=make_engine(graph, telemetry=tel)
        )
        assert len(tel.spans_named("superstep")) == res.num_supersteps

    def test_graphct_kernel_span_on_cache_miss_only(self, graph):
        tel = Telemetry("wf")
        wf = GraphCT(graph, telemetry=tel)
        wf.connected_components()
        spans = tel.spans_named("graphct/connected_components")
        assert len(spans) == 1
        wf.connected_components()  # cache hit: no work, no span
        assert len(tel.spans_named("graphct/connected_components")) == 1


# ---------------------------------------------------------------------
# Sharded engine context manager / close
# ---------------------------------------------------------------------
class TestShardedLifecycle:
    def test_context_manager_closes(self, graph):
        with ShardedBSPEngine(graph, num_workers=2) as engine:
            result = engine.run(DenseConnectedComponents())
            assert result.num_supersteps > 1
        assert engine.closed

    def test_close_is_idempotent(self, graph):
        engine = ShardedBSPEngine(graph, num_workers=2)
        engine.close()
        engine.close()  # second close must be a no-op, not an error
        assert engine.closed


# ---------------------------------------------------------------------
# Memory footprint sampling
# ---------------------------------------------------------------------
class TestMemorySampling:
    def test_peak_rss_reads_positive(self):
        rss = peak_rss_bytes()
        assert rss is not None and rss > 0

    def test_sample_memory_records_counters(self):
        tel = Telemetry("mem")
        tel.sample_memory(superstep=3)
        (c,) = tel.counters
        assert c.name == "peak_rss_bytes"
        assert c.value > 0 and c.superstep == 3 and c.track == MAIN_TRACK

    def test_null_telemetry_sample_memory_is_inert(self):
        NULL_TELEMETRY.sample_memory(superstep=1)
        assert NULL_TELEMETRY.counters == ()

    @pytest.mark.parametrize(
        "engine_cls", [BSPEngine, DenseBSPEngine]
    )
    def test_engines_sample_memory_per_superstep(self, graph, engine_cls):
        tel = Telemetry("cc")
        result = _cc_run(graph, engine_cls, telemetry=tel)
        samples = [
            c for c in tel.counters if c.name == "peak_rss_bytes"
        ]
        assert [c.superstep for c in samples] == list(
            range(result.num_supersteps)
        )
        assert all(c.track == MAIN_TRACK for c in samples)

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_sharded_engine_samples_worker_rss(self, graph):
        tel = Telemetry("cc-sharded")
        result = _cc_run(
            graph, ShardedBSPEngine, telemetry=tel, num_workers=2
        )
        main = [c for c in tel.counters if c.name == "peak_rss_bytes"]
        assert len(main) == result.num_supersteps
        workers = [
            c for c in tel.counters if c.name == "worker_peak_rss_bytes"
        ]
        assert {c.track for c in workers} == {
            worker_track(0), worker_track(1),
        }
        assert all(c.value > 0 for c in workers)

    def test_graphct_samples_on_kernel_miss_only(self, graph):
        tel = Telemetry("wf")
        wf = GraphCT(graph, telemetry=tel)
        wf.connected_components()
        n = len([c for c in tel.counters if c.name == "peak_rss_bytes"])
        assert n == 1
        wf.connected_components()  # cache hit: no kernel, no sample
        assert (
            len([c for c in tel.counters if c.name == "peak_rss_bytes"])
            == n
        )

    @pytest.mark.usefixtures("fan_out_every_superstep")
    def test_memory_summary_shapes(self, graph):
        assert memory_summary(Telemetry("empty")) == {}
        tel = Telemetry("cc-sharded")
        _cc_run(graph, ShardedBSPEngine, telemetry=tel, num_workers=2)
        summary = memory_summary(tel)
        assert summary["peak_rss_bytes"] > 0
        assert set(summary["worker_peak_rss_bytes"]) == {"0", "1"}
        report = telemetry_report(tel)
        assert report["memory"] == summary
