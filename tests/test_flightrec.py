"""Flight recorder: record codec, ring semantics, watchdog, and the
engine integration (stall detection, postmortem bundles, bounded close,
and what a failed exchange leaves behind).

The concurrency tests exercise the documented reader guarantee — a
sample that races the single writer may *under-report* records but can
never return a torn one — with a real writer process hammering a ring
while the parent decodes it.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import Process, active_children
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bsp import DenseBSPEngine, ShardedBSPEngine, parallel
from repro.bsp.parallel import ShardedWorkerError, WorkerStallError
from repro.bsp_algorithms import DenseConnectedComponents
from repro.graph import rmat
from repro.telemetry.flightrec import (
    EV_ENTER,
    EV_EXIT,
    EV_PROGRESS,
    EV_RSS,
    HEADER_SIZE,
    PH_GATHER,
    PH_IDLE,
    PH_RUN,
    PH_SCATTER,
    RECORD_SIZE,
    FlightRecorder,
    RingWriter,
    StallWatchdog,
    _pack_record,
    _unpack_record,
    attach_status,
    decode_ring,
    list_postmortems,
    load_postmortem,
    read_beacons,
    straggler_skew_ns,
)
from tests.test_dense_engine import assert_results_equal

KINDS = [EV_ENTER, EV_EXIT, EV_PROGRESS, EV_RSS]
PHASES = [PH_IDLE, PH_RUN, PH_SCATTER, PH_GATHER]

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


# -- record codec -----------------------------------------------------------


class TestRecordCodec:
    @settings(deadline=None, max_examples=50)
    @given(
        seq=st.integers(min_value=0, max_value=2**64 - 1),
        t_ns=I64,
        step=I64,
        a=I64,
        b=I64,
        kind=st.sampled_from(KINDS),
        phase=st.sampled_from(PHASES),
    )
    def test_roundtrip(self, seq, t_ns, step, a, b, kind, phase):
        blob = _pack_record(seq, t_ns, step, a, b, kind, phase)
        assert len(blob) == RECORD_SIZE
        rec = _unpack_record(blob)
        assert rec is not None
        assert (rec.seq, rec.t_ns, rec.step, rec.a, rec.b) == (
            seq, t_ns, step, a, b,
        )
        assert (rec.kind, rec.phase) == (kind, phase)

    @settings(deadline=None, max_examples=50)
    @given(
        offset=st.integers(min_value=0, max_value=RECORD_SIZE - 1),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_any_corrupt_byte_is_rejected(self, offset, flip):
        blob = bytearray(_pack_record(7, 123, 2, 10, 20, EV_PROGRESS, PH_RUN))
        blob[offset] ^= flip
        assert _unpack_record(bytes(blob)) is None

    def test_zeroed_slot_is_rejected(self):
        # An unwritten slot is all zeroes; CRC32(b"\0"*44) != 0.
        assert _unpack_record(b"\x00" * RECORD_SIZE) is None

    def test_unknown_kind_and_phase_are_rejected(self):
        assert _unpack_record(_pack_record(0, 0, 0, 0, 0, 99, PH_RUN)) is None
        assert _unpack_record(_pack_record(0, 0, 0, 0, 0, EV_RSS, 99)) is None


# -- ring semantics ---------------------------------------------------------


@pytest.fixture
def recorder(tmp_path):
    rec = FlightRecorder(
        capacity=8,
        postmortem_dir=tmp_path / "postmortem",
        beacon_dir=tmp_path / "flightrec",
    )
    yield rec
    rec.close()


class TestRing:
    def test_wraparound_keeps_newest_capacity_records(self, recorder):
        recorder.open(1)
        writer = RingWriter(recorder.worker_spec()["shm"], 8, 0)
        for i in range(30):
            writer.record(EV_PROGRESS, PH_RUN, step=0, a=i, b=30)
        events = recorder.events(0)
        assert [rec.seq for rec in events] == list(range(22, 30))
        assert [rec.a for rec in events] == list(range(22, 30))
        assert recorder.write_seq(0) == 30
        writer.close()

    def test_writer_resumes_published_sequence(self, recorder):
        recorder.open(1)
        spec = recorder.worker_spec()
        first = RingWriter(spec["shm"], 8, 0)
        first.record(EV_ENTER, PH_RUN)
        first.close()
        second = RingWriter(spec["shm"], 8, 0)
        second.record(EV_EXIT, PH_RUN)
        second.close()
        assert [rec.seq for rec in recorder.events(0)] == [0, 1]

    def test_rings_are_per_worker(self, recorder):
        recorder.open(2)
        spec = recorder.worker_spec()
        for w in (0, 1):
            writer = RingWriter(spec["shm"], 8, w)
            writer.record(EV_RSS, PH_IDLE, a=1000 + w)
            writer.close()
        assert [rec.a for rec in recorder.events(0)] == [1000]
        assert [rec.a for rec in recorder.events(1)] == [1001]

    def test_decode_ring_rejects_mismatched_geometry(self, recorder):
        recorder.open(1)
        region = bytes(HEADER_SIZE + 8 * RECORD_SIZE)
        assert decode_ring(region, capacity=8) == []  # header says cap 0
        assert decode_ring(recorder._region(0), capacity=4) == []

    def test_status_tracks_enter_progress_exit(self, recorder):
        recorder.open(1)
        writer = RingWriter(recorder.worker_spec()["shm"], 8, 0)
        writer.record(EV_ENTER, PH_GATHER, step=3)
        writer.record(EV_PROGRESS, PH_GATHER, step=3, a=50, b=200)
        status = recorder.status(0)
        assert (status.phase, status.step) == ("gather", 3)
        assert (status.progress_arcs, status.progress_total) == (50, 200)
        assert status.progress_ratio == pytest.approx(0.25)
        writer.record(EV_RSS, PH_GATHER, a=1 << 20)
        writer.record(EV_EXIT, PH_GATHER, step=3, a=7, b=1000)
        status = recorder.status(0)
        assert status.phase == "idle"
        assert status.rss_bytes == 1 << 20
        # A fresh ENTER resets the arc range; the idle worker after the
        # matching EXIT reads as fully caught up.
        writer.record(EV_ENTER, PH_RUN, step=4)
        writer.record(EV_EXIT, PH_RUN, step=4)
        assert recorder.status(0).progress_ratio == 1.0
        writer.close()


# -- torn-read safety against a real writer process -------------------------


def _hammer_ring(shm_name, capacity, total):
    """Writer-process body: ``total`` records whose fields are linked by
    an invariant (b == 3a + 1) that any torn read would break."""
    writer = RingWriter(shm_name, capacity, 0)
    for i in range(total):
        writer.record(EV_PROGRESS, PH_RUN, step=i % 17, a=i, b=3 * i + 1)
    writer.close()


class TestTornReads:
    @settings(deadline=None, max_examples=5)
    @given(capacity=st.sampled_from([8, 32, 256]))
    def test_concurrent_sampling_never_yields_torn_records(
        self, tmp_path_factory, capacity
    ):
        """Sample continuously while a writer process laps the ring many
        times over; every decoded record must satisfy the invariant."""
        tmp = tmp_path_factory.mktemp("flightrec")
        recorder = FlightRecorder(
            capacity=capacity,
            postmortem_dir=tmp / "postmortem",
            beacon_dir=None,
        )
        recorder.open(1)
        total = capacity * 40
        proc = Process(
            target=_hammer_ring,
            args=(recorder.worker_spec()["shm"], capacity, total),
        )
        proc.start()
        try:
            decoded = 0
            while proc.is_alive() or decoded == 0:
                events = recorder.events(0)
                decoded += len(events)
                prev_seq = -1
                for rec in events:
                    assert rec.b == 3 * rec.a + 1, rec
                    assert rec.seq == rec.a, rec
                    assert rec.seq > prev_seq
                    prev_seq = rec.seq
                if not proc.is_alive() and decoded:
                    break
        finally:
            proc.join(timeout=30)
            recorder.close()
        assert proc.exitcode == 0


# -- watchdog ---------------------------------------------------------------


class TestWatchdog:
    def test_idle_workers_never_stall(self, recorder):
        recorder.open(1)
        writer = RingWriter(recorder.worker_spec()["shm"], 8, 0)
        writer.record(EV_EXIT, PH_RUN)  # phase closes -> idle
        writer.close()
        time.sleep(0.05)
        assert recorder.stalled_workers(0.01) == []

    def test_open_phase_past_deadline_stalls(self, recorder):
        recorder.open(1)
        writer = RingWriter(recorder.worker_spec()["shm"], 8, 0)
        writer.record(EV_ENTER, PH_GATHER, step=1)
        writer.close()
        time.sleep(0.05)
        assert recorder.stalled_workers(0.01) == [0]
        assert recorder.stalled_workers(60.0) == []

    def test_watchdog_fires_on_stall_once(self, recorder):
        recorder.open(1)
        writer = RingWriter(recorder.worker_spec()["shm"], 8, 0)
        writer.record(EV_ENTER, PH_SCATTER, step=0)
        writer.close()
        hits = []
        dog = StallWatchdog(
            recorder,
            stall_timeout=0.05,
            poll_interval=0.02,
            on_stall=lambda w, age: hits.append((w, age)),
        )
        dog.start()
        try:
            deadline = time.monotonic() + 5
            while not hits and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            dog.stop()
        assert [w for w, _ in hits] == [0]
        assert dog.stall_events == 1
        assert 0 in dog.stalled
        rows = dog.snapshot()
        assert rows and rows[0]["phase"] == "scatter"


class TestStragglerSkew:
    def test_degenerate_inputs(self):
        assert straggler_skew_ns([]) == (0, 0)
        assert straggler_skew_ns([5]) == (0, 0)

    def test_balanced_barrier_has_no_stragglers(self):
        skew, count = straggler_skew_ns([100, 101, 102, 103])
        assert skew == 1
        assert count == 0

    def test_slow_worker_classifies(self):
        ms = 1_000_000
        skew, count = straggler_skew_ns([10 * ms, 10 * ms, 10 * ms, 50 * ms])
        assert skew == 40 * ms
        assert count == 1

    def test_submillisecond_gaps_never_classify(self):
        # 3x the median but only 200us over it.
        assert straggler_skew_ns([100_000, 100_000, 300_000])[1] == 0


# -- beacons and postmortem retrieval ---------------------------------------


class TestBeacons:
    def test_beacon_lifecycle_and_attach(self, tmp_path):
        recorder = FlightRecorder(
            capacity=8,
            postmortem_dir=tmp_path / "postmortem",
            beacon_dir=tmp_path / "flightrec",
        )
        recorder.open(2)
        try:
            beacons = read_beacons(tmp_path / "flightrec")
            assert len(beacons) == 1
            assert beacons[0]["pid"] == os.getpid()
            assert beacons[0]["num_workers"] == 2
            rows = attach_status(beacons[0])
            assert [row["worker"] for row in rows] == [0, 1]
            assert all(row["phase"] == "idle" for row in rows)
        finally:
            recorder.close()
        assert read_beacons(tmp_path / "flightrec") == []

    def test_stale_beacon_is_cleaned_up(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"pid": 2**22 + 12345, "shm": "x"}))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert read_beacons(tmp_path) == []
        assert not bogus.exists()

    def test_attach_vanished_block_is_empty(self):
        assert attach_status({"shm": "no-such-block", "capacity": 8,
                              "num_workers": 1}) == []


class TestPostmortemFiles:
    def test_dump_list_load_roundtrip(self, recorder):
        recorder.open(1)
        path = recorder.dump_postmortem(
            reason="stall",
            error="boom",
            engine={"rss": np.int64(4096)},  # numpy must coerce
            last_barrier={"phase": "gather"},
        )
        pm_id = path.stem
        assert list_postmortems(recorder.postmortem_dir) == [pm_id]
        bundle = load_postmortem(recorder.postmortem_dir, pm_id)
        assert bundle["reason"] == "stall"
        assert bundle["error"] == "boom"
        assert bundle["engine"]["rss"] == 4096
        assert len(bundle["workers"]) == 1

    def test_malformed_ids_are_refused(self, tmp_path):
        (tmp_path / "pm-x.json").write_text("{}")
        assert load_postmortem(tmp_path, "../pm-x") is None
        assert load_postmortem(tmp_path, "pm x") is None
        assert load_postmortem(tmp_path, "") is None
        assert load_postmortem(tmp_path, "pm-missing") is None
        assert load_postmortem(tmp_path, "pm-x") == {}

    def test_list_missing_directory(self, tmp_path):
        assert list_postmortems(tmp_path / "nope") == []


# -- engine integration -----------------------------------------------------


class SleepyGather(DenseConnectedComponents):
    """CC whose payload hook sleeps on trap vertices — by default far
    longer than any test waits (picklable at module level for the
    fork/spawn worker bootstrap)."""

    def __init__(self, trap_vertices, seconds=60.0):
        self.trap = np.asarray(trap_vertices, dtype=np.int64)
        self.seconds = seconds

    def arc_payload(self, graph, values, selection):
        if np.isin(graph.arc_sources()[selection], self.trap).any():
            time.sleep(self.seconds)
        return super().arc_payload(graph, values, selection)


class CrashyProgram(DenseConnectedComponents):
    def arc_payload(self, graph, values, selection):
        raise ValueError("injected crash for postmortem test")


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=7, edge_factor=8, seed=7)


def _make_recorder(tmp_path):
    return FlightRecorder(
        postmortem_dir=tmp_path / "postmortem",
        beacon_dir=tmp_path / "flightrec",
    )


@pytest.mark.usefixtures("fan_out_every_superstep")
class TestEngineIntegration:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_dense_with_recorder_on(self, graph, workers, tmp_path):
        dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
        with ShardedBSPEngine(
            graph,
            num_workers=workers,
            flight_recorder=_make_recorder(tmp_path),
        ) as engine:
            sharded = engine.run(DenseConnectedComponents())
            assert_results_equal(dense, sharded)
            kinds = {
                rec.kind_name
                for w in range(workers)
                for rec in engine.flight_recorder.events(w)
            }
            assert {"enter", "exit", "rss", "progress"} <= kinds
            rows = engine.worker_status()
            assert [row["worker"] for row in rows] == list(range(workers))
            assert all(row["alive"] for row in rows)

    def test_a_recorder_in_use_is_refused_and_left_open(
        self, graph, tmp_path
    ):
        recorder = _make_recorder(tmp_path)
        with ShardedBSPEngine(
            graph, num_workers=2, flight_recorder=recorder
        ) as engine:
            with pytest.raises(RuntimeError, match="already open"):
                ShardedBSPEngine(graph, num_workers=2, flight_recorder=recorder)
            assert recorder.is_open
            engine.run(DenseConnectedComponents())
            assert all(row["events_recorded"] for row in engine.worker_status())

    def test_skew_samples_accumulate(self, graph, tmp_path):
        with ShardedBSPEngine(
            graph,
            num_workers=2,
            flight_recorder=_make_recorder(tmp_path),
        ) as engine:
            engine.run(DenseConnectedComponents())
            samples = engine.drain_skew_samples()
            assert samples and all(s >= 0.0 for s in samples)
            assert engine.drain_skew_samples() == []  # drained
            assert engine.superstep_skew_seconds >= 0.0

    def test_stall_raises_and_dumps_postmortem(self, graph, tmp_path):
        engine = ShardedBSPEngine(
            graph,
            num_workers=2,
            stall_timeout=0.5,
            flight_recorder=_make_recorder(tmp_path),
        )
        try:
            trap = np.flatnonzero(engine.assignment == 1)
            t0 = time.monotonic()
            with pytest.raises(WorkerStallError) as excinfo:
                engine.run(SleepyGather(trap))
            detected = time.monotonic() - t0
            assert detected < 10.0  # nowhere near the 60s sleep
            error = excinfo.value
            assert error.worker == 1
            assert engine.stall_detected
            assert engine.stall_events >= 1
            bundle = load_postmortem(
                tmp_path / "postmortem", error.postmortem_id
            )
            assert bundle["format_version"] == 1
            assert bundle["reason"] == "stall"
            assert bundle["last_barrier"]["phase"] == "gather"
            assert bundle["partition"]["policy"] == "hash"
            assert bundle["workers"][1]["status"]["phase"] == "gather"
        finally:
            t1 = time.monotonic()
            engine.close()
            assert time.monotonic() - t1 < 10.0  # bounded despite sleeper
            assert engine.workers_alive == 0

    def test_crash_dumps_postmortem_with_traceback(self, graph, tmp_path):
        with ShardedBSPEngine(
            graph,
            num_workers=2,
            flight_recorder=_make_recorder(tmp_path),
        ) as engine:
            with pytest.raises(ShardedWorkerError) as excinfo:
                engine.run(CrashyProgram())
            error = excinfo.value
            assert error.worker_tracebacks
            assert any(
                "injected crash" in tb
                for tb in error.worker_tracebacks.values()
            )
            bundle = load_postmortem(
                tmp_path / "postmortem", error.postmortem_id
            )
            assert bundle["reason"] in {"worker_crash", "worker_error"}
            assert "injected crash" in bundle["error"]
            # The workers *answered*: the pipes are in step, and the
            # same engine's next run is the dense engine's, bit for bit.
            dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
            assert_results_equal(
                dense, engine.run(DenseConnectedComponents())
            )

    def test_sigstop_cannot_wedge_close(self, graph, tmp_path):
        """Satellite regression: a SIGSTOPed worker must not hang
        ``close()`` — join escalates terminate -> kill (SIGSTOP queues
        SIGTERM without delivering it; SIGKILL always lands)."""
        engine = ShardedBSPEngine(
            graph,
            num_workers=2,
            stall_timeout=0.5,
            flight_recorder=_make_recorder(tmp_path),
        )
        try:
            engine.run(DenseConnectedComponents())  # warm, all healthy
            victim = engine.worker_status()[1]["pid"]
            os.kill(victim, signal.SIGSTOP)
            t0 = time.monotonic()
            engine.close()
            elapsed = time.monotonic() - t0
            assert elapsed < 6.0, f"close took {elapsed:.1f}s"
            assert engine.workers_alive == 0
        finally:
            try:
                os.kill(victim, signal.SIGCONT)
            except (OSError, UnboundLocalError):
                pass
            engine.close()

    def test_stall_timeout_validation(self, graph):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                ShardedBSPEngine(graph, num_workers=2, stall_timeout=bad)


# -- the failure rule -------------------------------------------------------


@pytest.fixture
def hard_timeout():
    """Fail, don't hang: SIGALRM interrupts whatever the test blocks on."""

    def expired(signum, frame):
        raise TimeoutError("failure-rule test exceeded its hard timeout")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def census():
    """No shared-memory block and no child process outlives the test."""
    before = set(os.listdir("/dev/shm"))
    yield
    assert set(os.listdir("/dev/shm")) <= before
    assert not [p.name for p in active_children() if p.is_alive()]


@pytest.mark.usefixtures("hard_timeout", "census", "fan_out_every_superstep")
class TestFailureRule:
    """An exchange that leaves a reply unread, or loses a worker, ends
    the engine: later runs fail typed — they never take a late reply
    for an answer (``repro.bsp._pool``)."""

    def assert_desynchronised(self, engine, first):
        for _ in range(2):
            with pytest.raises(ShardedWorkerError) as excinfo:
                engine.run(DenseConnectedComponents())
            assert "desynchronised" in str(excinfo.value)
            assert str(first).splitlines()[-1] in str(excinfo.value)
            assert excinfo.value.postmortem_id == first.postmortem_id

    def assert_close_is_bounded(self, engine):
        t0 = time.monotonic()
        engine.close()
        assert time.monotonic() - t0 < 5.0
        assert engine.workers_alive == 0

    def test_late_reply_is_never_taken_for_an_answer(self, graph, tmp_path):
        engine = ShardedBSPEngine(
            graph,
            num_workers=2,
            stall_timeout=0.5,
            flight_recorder=_make_recorder(tmp_path),
        )
        try:
            trap = np.flatnonzero(engine.assignment == 1)
            with pytest.raises(WorkerStallError) as excinfo:
                engine.run(SleepyGather(trap, seconds=1.5))
            # Wait the hook out: worker 1's reply to the abandoned
            # gather is now sitting unread in its pipe.
            while engine.worker_status()[1]["phase"] != "idle":
                time.sleep(0.05)
            self.assert_desynchronised(engine, excinfo.value)
            assert len(list_postmortems(tmp_path / "postmortem")) == 1
        finally:
            self.assert_close_is_bounded(engine)
        dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
        with ShardedBSPEngine(graph, num_workers=2) as fresh:
            assert_results_equal(dense, fresh.run(DenseConnectedComponents()))

    def test_killed_worker_is_a_typed_error_with_a_postmortem(
        self, graph, tmp_path
    ):
        engine = ShardedBSPEngine(
            graph, num_workers=2, flight_recorder=_make_recorder(tmp_path)
        )
        try:
            engine.run(DenseConnectedComponents())
            os.kill(engine.worker_status()[0]["pid"], signal.SIGKILL)
            while engine.workers_alive == 2:
                time.sleep(0.01)
            with pytest.raises(ShardedWorkerError) as excinfo:
                engine.run(DenseConnectedComponents())  # not BrokenPipeError
            first = excinfo.value
            assert "worker process died" in first.worker_tracebacks[0]
            bundle = load_postmortem(
                tmp_path / "postmortem", first.postmortem_id
            )
            assert bundle["reason"] == "worker_crash"
            assert bundle["workers"][0]["alive"] is False
            self.assert_desynchronised(engine, first)
        finally:
            self.assert_close_is_bounded(engine)

    def test_killed_worker_surfaces_at_the_next_run_that_fans_out(
        self, graph, tmp_path, monkeypatch
    ):
        """A run installs itself with its first exchange, so a worker
        SIGKILLed between runs goes unseen by a run the parent keeps,
        and is a typed error at the first run that reaches the workers;
        the engine is then desynchronised."""
        dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
        engine = ShardedBSPEngine(
            graph, num_workers=2, flight_recorder=_make_recorder(tmp_path)
        )
        try:
            engine.run(DenseConnectedComponents())
            os.kill(engine.worker_status()[1]["pid"], signal.SIGKILL)
            while engine.workers_alive == 2:
                time.sleep(0.01)
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", 1 << 40)
            sent = engine.pipe_bytes
            assert_results_equal(dense, engine.run(DenseConnectedComponents()))
            assert engine.pipe_bytes == sent
            monkeypatch.setattr(parallel, "_LOCAL_SUPERSTEP_ARCS", 0)
            with pytest.raises(ShardedWorkerError) as excinfo:
                engine.run(DenseConnectedComponents())
            first = excinfo.value
            assert "worker process died" in first.worker_tracebacks[1]
            bundle = load_postmortem(
                tmp_path / "postmortem", first.postmortem_id
            )
            assert bundle["reason"] == "worker_crash"
            self.assert_desynchronised(engine, first)
        finally:
            self.assert_close_is_bounded(engine)

    def test_default_engine_never_hangs_on_a_stopped_worker(
        self, graph, tmp_path, monkeypatch
    ):
        """No ``stall_timeout`` passed: the default deadline still bounds
        every barrier, so a stopped worker is a typed error, not a hang."""
        monkeypatch.chdir(tmp_path)  # the default recorder's bundles
        monkeypatch.setattr(parallel, "STALL_TIMEOUT", 0.5)
        engine = ShardedBSPEngine(graph, num_workers=2)
        try:
            assert engine.stall_timeout == 0.5
            engine.run(DenseConnectedComponents())
            os.kill(engine.worker_status()[1]["pid"], signal.SIGSTOP)
            with pytest.raises(WorkerStallError) as excinfo:
                engine.run(DenseConnectedComponents())
            assert excinfo.value.worker == 1
        finally:
            self.assert_close_is_bounded(engine)

    def test_idling_past_the_deadline_is_not_a_stall(self, graph, tmp_path):
        """Silence runs from the task's send, not from the last run's
        final ring event: a worker that idled longer than the deadline
        and then wakes slowly (here: stopped for 0.3 s) is not stalled."""
        dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
        engine = ShardedBSPEngine(
            graph,
            num_workers=2,
            stall_timeout=1.0,
            flight_recorder=_make_recorder(tmp_path),
        )
        try:
            engine.run(DenseConnectedComponents())
            time.sleep(1.2)
            victim = engine.worker_status()[1]["pid"]
            os.kill(victim, signal.SIGSTOP)
            wake = threading.Timer(0.3, os.kill, (victim, signal.SIGCONT))
            wake.start()
            try:
                assert_results_equal(
                    dense, engine.run(DenseConnectedComponents())
                )
            finally:
                wake.join()
            assert not engine.stall_detected
        finally:
            self.assert_close_is_bounded(engine)

    def test_a_worker_without_its_ring_fails_the_start(
        self, graph, tmp_path, monkeypatch
    ):
        recorder = _make_recorder(tmp_path)
        monkeypatch.setattr(
            recorder,
            "worker_spec",
            lambda: {"shm": "repro-no-such-ring", "capacity": 8},
        )
        with pytest.raises(ShardedWorkerError, match="failed to start") as excinfo:
            ShardedBSPEngine(graph, num_workers=2, flight_recorder=recorder)
        assert "FileNotFoundError" in excinfo.value.worker_tracebacks[0]
        assert not recorder.is_open

    def test_program_error_leaves_the_pipes_in_step(self, graph, tmp_path):
        """The rule must not over-trigger: see
        ``test_crash_dumps_postmortem_with_traceback`` for the run that
        follows; here, that shutdown after it is clean."""
        engine = ShardedBSPEngine(
            graph, num_workers=2, flight_recorder=_make_recorder(tmp_path)
        )
        try:
            with pytest.raises(ShardedWorkerError, match="injected crash"):
                engine.run(CrashyProgram())
            engine.run(DenseConnectedComponents())
        finally:
            self.assert_close_is_bounded(engine)


# -- a dead parent ------------------------------------------------------------

_ORPHANING_PARENT = """
import json, sys, time
from repro.bsp import ShardedBSPEngine, _pool
from repro.bsp_algorithms import DenseConnectedComponents
from repro.graph import rmat
from repro.telemetry.flightrec import FlightRecorder

_pool.get_all_start_methods = lambda: [sys.argv[1]]
engine = ShardedBSPEngine(
    rmat(scale=7, edge_factor=8, seed=7),
    num_workers=2,
    flight_recorder=FlightRecorder(postmortem_dir=sys.argv[2], beacon_dir=None),
)
engine.run(DenseConnectedComponents())
blocks = [
    *engine._pool._blocks,
    *engine._run_blocks.values(),
    engine.flight_recorder._shm,
]
print(json.dumps({
    "pids": [row["pid"] for row in engine.worker_status()],
    "blocks": [shm.name.lstrip("/") for shm in blocks],
}), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.usefixtures("hard_timeout", "census")
class TestParentDeath:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_killed_parent_leaves_no_worker_and_no_block(
        self, method, tmp_path
    ):
        """SIGKILL skips every cleanup the parent would run: the workers
        must see their pipes close and exit, and the resource tracker then
        unlinks every block — the flight recorder's ring included."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHANING_PARENT, method, str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            left = json.loads(parent.stdout.readline())
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert len(left["pids"]) == 2 and len(left["blocks"]) >= 7
        deadline = time.monotonic() + 20.0
        while True:
            alive = [pid for pid in left["pids"] if _running(pid)]
            blocks = [
                name for name in left["blocks"]
                if os.path.exists(f"/dev/shm/{name}")
            ]
            if not (alive or blocks) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert (alive, blocks) == ([], [])
