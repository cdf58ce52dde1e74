"""Worker flight recorder: shared-memory event rings + stall watchdog.

The sharded engine's workers are black boxes between barriers: the
parent learns one ``busy_ns`` per worker per superstep, *after* the
barrier — a crashed or wedged shard leaves no evidence behind.  This
module is the in-flight instrument: every worker continuously appends
fixed-size binary event records (phase enter/exit, arc-range progress
ticks, message counts, RSS samples) into a per-worker ring buffer that
lives in :mod:`multiprocessing.shared_memory`, struct-packed like the
pipe frames in :mod:`repro.bsp._wire`.  The parent — or any other
process on the host (``repro top``) — samples the rings without ever
talking to the workers.

Design constraints, in order:

* **Lock-free, single-writer** — each worker owns exactly one ring.
  The writer fills a slot, then publishes the new sequence number in
  the ring header; readers validate every decoded record against an
  embedded CRC32 and its expected sequence number, so a read that races
  the writer (torn slot, header lag) yields *fewer* records, never a
  corrupt one.
* **Bounded** — a ring holds :attr:`FlightRecorder.capacity` records
  and overwrites the oldest; recording can never grow memory or block.
* **Cheap enough to be always on** — one record is two ``struct.pack``
  calls and a CRC over 44 bytes (~1-2 µs); a superstep writes a handful
  of records per worker (docs/OBSERVABILITY.md).

On top of the rings sit:

* :class:`StallWatchdog` — a parent-side daemon thread that samples the
  rings between barriers and flags workers whose open phase has seen no
  event (no progress tick) within ``stall_timeout`` seconds.  The
  engine's pipe-receive loop bounds every reply by the same deadline,
  so a wedged worker turns into a
  :class:`~repro.bsp.parallel.WorkerStallError`, never a hang.
* **Postmortem bundles** — :meth:`FlightRecorder.dump_postmortem`
  freezes the full ring contents, per-worker status, the last barrier
  state, and the partition map into one JSON bundle under
  ``results/postmortem/`` whenever a run dies (crash, stall, worker
  error), served back by ``GET /debug/postmortem/<id>``.
* **Beacons** — a tiny JSON file per live recorder under
  ``results/flightrec/`` naming the shared-memory block, so ``repro
  top`` can attach to a running engine from another process.

Timestamps are :func:`time.monotonic_ns` — CLOCK_MONOTONIC on POSIX,
comparable across processes on the same host, which is exactly the
cross-process comparison the watchdog makes.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "EV_ENTER",
    "EV_EXIT",
    "EV_PROGRESS",
    "EV_RSS",
    "EVENT_NAMES",
    "PH_GATHER",
    "PH_IDLE",
    "PH_RUN",
    "PH_SCATTER",
    "PHASE_NAMES",
    "POSTMORTEM_FORMAT_VERSION",
    "FlightRecord",
    "FlightRecorder",
    "RingWriter",
    "StallWatchdog",
    "decode_ring",
    "list_postmortems",
    "load_postmortem",
    "read_beacons",
]

# -- record schema ----------------------------------------------------------
#
# One record is 48 little-endian bytes:
#
#   offset  0  uint64  seq        monotonically increasing per worker
#   offset  8  int64   t_ns       time.monotonic_ns at the writer
#   offset 16  int64   step       superstep / generation tag (-1 = n/a)
#   offset 24  int64   a          payload (progress done, rss bytes, ...)
#   offset 32  int64   b          payload (progress total, busy ns, ...)
#   offset 40  uint8   kind       event kind (EV_*)
#   offset 41  uint8   phase      phase code (PH_*)
#   offset 42  uint16  reserved   0
#   offset 44  uint32  crc        CRC32 of bytes [0, 44)
#
# The CRC makes every record self-validating: a reader that catches the
# writer mid-slot (or decodes a slot the writer lapped) sees a checksum
# mismatch and drops the record instead of returning torn data.

_RECORD = struct.Struct("<QqqqqBBH")
_CRC = struct.Struct("<I")
RECORD_SIZE = _RECORD.size + _CRC.size  # 48
assert RECORD_SIZE == 48

# Ring header: write_seq (published *after* the slot is filled), then
# capacity and record size so readers need no side channel.  Padded to
# 64 bytes so headers of adjacent rings never share a cache line.
_HEADER = struct.Struct("<QQQ")
HEADER_SIZE = 64

#: Event kinds.
EV_ENTER = 1  #: worker picked up a task (phase begins)
EV_EXIT = 2  #: worker replied (phase ends); a=messages, b=busy_ns
EV_PROGRESS = 3  #: arc-range progress tick; a=arcs done, b=arcs total
EV_RSS = 4  #: memory sample; a=peak RSS bytes

EVENT_NAMES = {
    EV_ENTER: "enter",
    EV_EXIT: "exit",
    EV_PROGRESS: "progress",
    EV_RSS: "rss",
}

#: Phase codes (what the worker is doing between barriers).
PH_IDLE = 0
PH_RUN = 1
PH_SCATTER = 2
PH_GATHER = 3

PHASE_NAMES = {
    PH_IDLE: "idle",
    PH_RUN: "run",
    PH_SCATTER: "scatter",
    PH_GATHER: "gather",
}

#: Schema version stamped into every postmortem bundle.
POSTMORTEM_FORMAT_VERSION = 1

#: Default ring capacity, in records, per worker (48 B each -> 12 KiB).
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class FlightRecord:
    """One decoded flight-recorder event."""

    seq: int
    t_ns: int
    step: int
    a: int
    b: int
    kind: int
    phase: int

    @property
    def kind_name(self) -> str:
        return EVENT_NAMES.get(self.kind, f"kind-{self.kind}")

    @property
    def phase_name(self) -> str:
        return PHASE_NAMES.get(self.phase, f"phase-{self.phase}")

    def to_dict(self) -> dict:
        """JSON-safe rendering (postmortem bundles, debug endpoints)."""
        return {
            "seq": int(self.seq),
            "t_ns": int(self.t_ns),
            "step": int(self.step),
            "a": int(self.a),
            "b": int(self.b),
            "kind": self.kind_name,
            "phase": self.phase_name,
        }


def _pack_record(
    seq: int, t_ns: int, step: int, a: int, b: int, kind: int, phase: int
) -> bytes:
    body = _RECORD.pack(seq, t_ns, step, a, b, kind, phase, 0)
    return body + _CRC.pack(zlib.crc32(body))


def _unpack_record(buf: bytes) -> FlightRecord | None:
    """Decode one 48-byte slot; None when torn/unwritten/invalid."""
    body = buf[: _RECORD.size]
    (crc,) = _CRC.unpack_from(buf, _RECORD.size)
    if zlib.crc32(body) != crc:
        return None
    seq, t_ns, step, a, b, kind, phase, reserved = _RECORD.unpack(body)
    if reserved != 0 or kind not in EVENT_NAMES or phase not in PHASE_NAMES:
        return None
    return FlightRecord(
        seq=seq, t_ns=t_ns, step=step, a=a, b=b, kind=kind, phase=phase
    )


def decode_ring(region: bytes, *, capacity: int) -> list[FlightRecord]:
    """Decode one worker's ring region (header + slots) into records.

    Returns the surviving records in sequence order.  Records whose CRC
    fails (the writer was mid-slot, or lapped the slot after the header
    was sampled) or whose sequence number does not match the slot they
    occupy are silently dropped — a concurrent read can under-report,
    never corrupt.
    """
    write_seq, cap, rec_size = _HEADER.unpack_from(region, 0)
    if cap != capacity or rec_size != RECORD_SIZE:
        return []
    lo = max(0, write_seq - capacity)
    out = []
    for seq in range(lo, write_seq):
        off = HEADER_SIZE + (seq % capacity) * RECORD_SIZE
        rec = _unpack_record(region[off : off + RECORD_SIZE])
        if rec is not None and rec.seq == seq:
            out.append(rec)
    return out


def _ring_bytes(capacity: int) -> int:
    return HEADER_SIZE + capacity * RECORD_SIZE


class RingWriter:
    """Worker-side, lock-free single-writer handle on one ring.

    Created inside the worker process from the spec dict the parent
    ships in the ``run`` command; never shared between processes or
    threads.  :meth:`record` is the only hot call: two struct packs,
    one CRC, one header publish.
    """

    def __init__(
        self, shm_name: str, capacity: int, worker_index: int
    ) -> None:
        self._shm = shared_memory.SharedMemory(name=shm_name)
        self._buf = self._shm.buf
        self._capacity = int(capacity)
        self._base = int(worker_index) * _ring_bytes(self._capacity)
        # Resume from the published sequence so a second "run" command
        # (warm engine reuse) keeps appending instead of rewinding.
        (self._seq, _, _) = _HEADER.unpack_from(self._buf, self._base)

    def record(
        self,
        kind: int,
        phase: int = PH_IDLE,
        step: int = -1,
        a: int = 0,
        b: int = 0,
    ) -> None:
        """Append one event; overwrites the oldest once the ring is full.

        Hot path: packs straight into the shared buffer (no per-record
        allocation) — two ``pack_into`` calls and one CRC over 44 bytes.
        """
        seq = self._seq
        off = self._base + HEADER_SIZE + (seq % self._capacity) * RECORD_SIZE
        buf = self._buf
        _RECORD.pack_into(
            buf, off,
            seq, time.monotonic_ns(), int(step), int(a), int(b),
            kind, phase, 0,
        )
        _CRC.pack_into(
            buf, off + _RECORD.size,
            zlib.crc32(buf[off : off + _RECORD.size]),
        )
        self._seq = seq + 1
        # Publish *after* the slot is complete: readers only trust slots
        # below write_seq, and the CRC guards the lapped-slot race.
        _HEADER.pack_into(buf, self._base, self._seq, self._capacity,
                          RECORD_SIZE)

    def close(self) -> None:
        self._buf = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except Exception:
            pass


@dataclass(frozen=True)
class WorkerFlightStatus:
    """Point-in-time view of one worker derived from its ring."""

    worker: int
    phase: str
    step: int
    progress_arcs: int
    progress_total: int
    rss_bytes: int
    last_event_ns: int | None
    events_recorded: int

    @property
    def progress_ratio(self) -> float:
        if self.progress_total <= 0:
            return 1.0 if self.phase == "idle" else 0.0
        return min(1.0, self.progress_arcs / self.progress_total)

    def to_dict(self, *, now_ns: int | None = None) -> dict:
        out = {
            "worker": self.worker,
            "phase": self.phase,
            "step": int(self.step),
            "progress_arcs": int(self.progress_arcs),
            "progress_total": int(self.progress_total),
            "progress_ratio": round(self.progress_ratio, 6),
            "rss_bytes": int(self.rss_bytes),
            "events_recorded": int(self.events_recorded),
        }
        if now_ns is not None and self.last_event_ns is not None:
            out["last_event_age_seconds"] = round(
                max(0, now_ns - self.last_event_ns) / 1e9, 6
            )
        return out


def _status_from_events(
    worker: int, events: list[FlightRecord], events_recorded: int
) -> WorkerFlightStatus:
    phase = PH_IDLE
    step = -1
    enter_seq = -1
    progress = (0, 0)
    rss = 0
    last_ns = None
    for rec in events:
        last_ns = rec.t_ns if last_ns is None else max(last_ns, rec.t_ns)
        if rec.kind == EV_ENTER:
            phase, step, enter_seq = rec.phase, rec.step, rec.seq
            progress = (0, 0)
        elif rec.kind == EV_EXIT:
            if rec.seq > enter_seq:
                phase = PH_IDLE
        elif rec.kind == EV_PROGRESS and rec.seq > enter_seq:
            progress = (rec.a, rec.b)
        elif rec.kind == EV_RSS:
            rss = max(rss, rec.a)
    return WorkerFlightStatus(
        worker=worker,
        phase=PHASE_NAMES.get(phase, "idle"),
        step=step,
        progress_arcs=progress[0],
        progress_total=progress[1],
        rss_bytes=rss,
        last_event_ns=last_ns,
        events_recorded=events_recorded,
    )


class FlightRecorder:
    """Parent-side owner of the per-worker event rings.

    Construct unbound (pure configuration), then :meth:`open` with the
    worker count allocates the shared block, and :meth:`close` releases
    it.  The :class:`~repro.bsp.parallel.ShardedBSPEngine` drives both
    ends of that lifecycle; ``repro top`` attaches to somebody else's
    block via the beacon file instead.

    Parameters
    ----------
    capacity:
        Ring slots per worker (each slot is 48 bytes).
    postmortem_dir:
        Where :meth:`dump_postmortem` writes bundles.
    beacon_dir:
        Where the live-attach beacon is written (None disables).
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        postmortem_dir: str | os.PathLike = "results/postmortem",
        beacon_dir: str | os.PathLike | None = "results/flightrec",
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self.capacity = int(capacity)
        self.postmortem_dir = Path(postmortem_dir)
        self.beacon_dir = Path(beacon_dir) if beacon_dir is not None else None
        self.num_workers = 0
        self._shm: shared_memory.SharedMemory | None = None
        self._beacon_path: Path | None = None
        self._pm_counter = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._shm is not None

    def open(self, num_workers: int) -> None:
        """Allocate rings for ``num_workers`` workers and drop a beacon."""
        if self._shm is not None:
            raise RuntimeError("flight recorder is already open")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        nbytes = self.num_workers * _ring_bytes(self.capacity)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        for w in range(self.num_workers):
            base = w * _ring_bytes(self.capacity)
            _HEADER.pack_into(
                self._shm.buf, base, 0, self.capacity, RECORD_SIZE
            )
        self._write_beacon()

    def close(self) -> None:
        """Remove the beacon and release/unlink the shared block."""
        if self._beacon_path is not None:
            try:
                self._beacon_path.unlink()
            except OSError:
                pass
            self._beacon_path = None
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - defensive
                pass

    def worker_spec(self) -> dict:
        """The picklable dict a worker needs to build its :class:`RingWriter`."""
        if self._shm is None:
            raise RuntimeError("flight recorder is not open")
        return {"shm": self._shm.name, "capacity": self.capacity}

    # -- sampling ------------------------------------------------------
    def _region(self, worker: int) -> bytes:
        assert self._shm is not None
        size = _ring_bytes(self.capacity)
        base = worker * size
        # One copy out of shared memory, then decode from the snapshot:
        # the CRC path never reads a byte the writer is still touching.
        return bytes(self._shm.buf[base : base + size])

    def events(self, worker: int) -> list[FlightRecord]:
        """Decoded ring contents of one worker, oldest first."""
        if self._shm is None or not 0 <= worker < self.num_workers:
            return []
        return decode_ring(self._region(worker), capacity=self.capacity)

    def write_seq(self, worker: int) -> int:
        """Total events ever recorded by ``worker`` (ring may hold fewer)."""
        if self._shm is None:
            return 0
        base = worker * _ring_bytes(self.capacity)
        (seq,) = struct.unpack_from("<Q", self._shm.buf, base)
        return int(seq)

    def status(self, worker: int) -> WorkerFlightStatus:
        """Current phase/progress/rss view of one worker."""
        return _status_from_events(
            worker, self.events(worker), self.write_seq(worker)
        )

    def statuses(self) -> list[WorkerFlightStatus]:
        """One :class:`WorkerFlightStatus` per worker."""
        return [self.status(w) for w in range(self.num_workers)]

    def stalled_workers(
        self, stall_timeout: float, *, now_ns: int | None = None
    ) -> list[int]:
        """Workers with an *open* phase and no event within the deadline.

        A worker parked between tasks (phase ``idle``) is never stalled
        no matter how old its last event is — idleness is the healthy
        steady state of a warm pool.
        """
        now = time.monotonic_ns() if now_ns is None else now_ns
        limit_ns = int(stall_timeout * 1e9)
        out = []
        for status in self.statuses():
            if status.phase == "idle" or status.last_event_ns is None:
                continue
            if now - status.last_event_ns > limit_ns:
                out.append(status.worker)
        return out

    # -- beacons -------------------------------------------------------
    def _write_beacon(self) -> None:
        if self.beacon_dir is None or self._shm is None:
            return
        try:
            self.beacon_dir.mkdir(parents=True, exist_ok=True)
            path = self.beacon_dir / f"{self._shm.name.lstrip('/')}.json"
            payload = {
                "pid": os.getpid(),
                "shm": self._shm.name,
                "num_workers": self.num_workers,
                "capacity": self.capacity,
                "record_size": RECORD_SIZE,
                "created_at": time.time(),
            }
            path.write_text(json.dumps(payload), encoding="ascii")
            self._beacon_path = path
        except OSError:  # pragma: no cover - read-only cwd etc.
            self._beacon_path = None

    # -- postmortem ----------------------------------------------------
    def new_postmortem_id(self) -> str:
        self._pm_counter += 1
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        return f"pm-{stamp}-{os.getpid()}-{self._pm_counter:03d}"

    def dump_postmortem(
        self,
        *,
        reason: str,
        error: str | None = None,
        engine: dict | None = None,
        last_barrier: dict | None = None,
        partition: dict | None = None,
        workers: list[dict] | None = None,
    ) -> Path:
        """Write one self-contained JSON bundle; returns its path.

        The bundle carries everything a postmortem needs with the
        process gone: the decoded ring of every worker, its derived
        status, worker liveness/exit codes (as supplied by the engine),
        the last barrier the parent initiated, and the partition map.
        """
        pm_id = self.new_postmortem_id()
        now_ns = time.monotonic_ns()
        worker_rows = []
        extra = {row.get("worker"): row for row in (workers or [])}
        for w in range(self.num_workers):
            status = self.status(w)
            row = {
                "worker": w,
                "status": status.to_dict(now_ns=now_ns),
                "events": [rec.to_dict() for rec in self.events(w)],
            }
            row.update(
                {k: v for k, v in extra.get(w, {}).items() if k != "worker"}
            )
            worker_rows.append(row)
        bundle = {
            "format_version": POSTMORTEM_FORMAT_VERSION,
            "postmortem_id": pm_id,
            "created_at": time.time(),
            "reason": reason,
            "error": error,
            "engine": engine or {},
            "last_barrier": last_barrier or {},
            "partition": partition or {},
            "workers": worker_rows,
        }
        self.postmortem_dir.mkdir(parents=True, exist_ok=True)
        path = self.postmortem_dir / f"{pm_id}.json"
        path.write_text(
            json.dumps(bundle, indent=2, default=_json_default),
            encoding="utf-8",
        )
        return path


def _json_default(value: Any) -> Any:
    """Coerce NumPy scalars/arrays hiding in engine state to JSON."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return str(value)


# -- postmortem retrieval (service endpoints, repro top) --------------------

_PM_ID_OK = "abcdefghijklmnopqrstuvwxyz0123456789-_"


def _safe_postmortem_id(pm_id: str) -> bool:
    return bool(pm_id) and all(c in _PM_ID_OK for c in pm_id.lower())


def list_postmortems(directory: str | os.PathLike) -> list[str]:
    """Bundle ids under ``directory``, newest last (lexicographic)."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("pm-*.json"))


def load_postmortem(
    directory: str | os.PathLike, pm_id: str
) -> dict | None:
    """Load one bundle by id; None when missing or the id is malformed."""
    if not _safe_postmortem_id(pm_id):
        return None
    path = Path(directory) / f"{pm_id}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


# -- live attach (repro top) ------------------------------------------------


def read_beacons(directory: str | os.PathLike) -> list[dict]:
    """Parse every beacon under ``directory``, skipping stale/garbled ones.

    A beacon is stale when its recording process is gone; stale files
    are removed best-effort so the directory self-cleans after crashes
    that skipped :meth:`FlightRecorder.close`.
    """
    root = Path(directory)
    if not root.is_dir():
        return []
    out = []
    for path in sorted(root.glob("*.json")):
        try:
            beacon = json.loads(path.read_text(encoding="ascii"))
            pid = int(beacon["pid"])
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            try:
                path.unlink()
            except OSError:
                pass
            continue
        except PermissionError:  # pragma: no cover - other-user process
            pass
        out.append(beacon)
    return out


def attach_status(beacon: dict) -> list[dict]:
    """Sample a live recorder named by ``beacon`` from another process.

    Attaches to the shared block read-only, decodes every worker's
    ring, and returns status dicts; an empty list when the block has
    already vanished.
    """
    try:
        shm = shared_memory.SharedMemory(name=beacon["shm"])
    except (FileNotFoundError, OSError):
        return []
    try:
        capacity = int(beacon["capacity"])
        num_workers = int(beacon["num_workers"])
        size = _ring_bytes(capacity)
        now_ns = time.monotonic_ns()
        rows = []
        for w in range(num_workers):
            region = bytes(shm.buf[w * size : (w + 1) * size])
            events = decode_ring(region, capacity=capacity)
            (seq, _, _) = _HEADER.unpack_from(region, 0)
            status = _status_from_events(w, events, seq)
            row = status.to_dict(now_ns=now_ns)
            row["pid"] = beacon.get("pid")
            rows.append(row)
        return rows
    finally:
        shm.close()


# -- watchdog ---------------------------------------------------------------


class StallWatchdog:
    """Daemon thread sampling the rings between barriers.

    Keeps a fresh per-worker snapshot for live introspection
    (``/debug/workers`` and ``repro top`` read it without touching the
    rings under load) and flags stalls: a worker whose current phase is
    open but whose ring has gone silent for ``stall_timeout`` seconds.
    Detection is *edge-triggered* — ``on_stall`` fires once per worker
    per stall episode; the engine's receive loop independently enforces
    the same predicate so raising never depends on thread scheduling.
    """

    def __init__(
        self,
        recorder: FlightRecorder,
        *,
        stall_timeout: float,
        poll_interval: float | None = None,
        on_stall: Callable[[int, float], None] | None = None,
    ) -> None:
        self.recorder = recorder
        self.stall_timeout = stall_timeout
        if poll_interval is None:
            poll_interval = min(max(stall_timeout / 4.0, 0.02), 1.0)
        self.poll_interval = poll_interval
        self._on_stall = on_stall
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._snapshot: list[dict] = []
        self._stalled: set[int] = set()
        self.stall_events = 0
        self._thread = threading.Thread(
            target=self._run, name="bsp-flightrec-watchdog", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)

    # -- views ---------------------------------------------------------
    @property
    def stalled(self) -> set[int]:
        with self._lock:
            return set(self._stalled)

    def snapshot(self) -> list[dict]:
        """Latest per-worker status rows (empty before the first sample)."""
        with self._lock:
            return [dict(row) for row in self._snapshot]

    # -- loop ----------------------------------------------------------
    def _sample(self) -> None:
        now_ns = time.monotonic_ns()
        rows = [
            status.to_dict(now_ns=now_ns)
            for status in self.recorder.statuses()
        ]
        newly: list[tuple[int, float]] = []
        stalled = set(
            self.recorder.stalled_workers(self.stall_timeout, now_ns=now_ns)
        )
        with self._lock:
            self._snapshot = rows
            for w in stalled - self._stalled:
                self.stall_events += 1
                age = next(
                    (
                        row.get("last_event_age_seconds", 0.0)
                        for row in rows
                        if row["worker"] == w
                    ),
                    0.0,
                )
                newly.append((w, age))
            self._stalled = stalled
        if self._on_stall is not None:
            for w, age in newly:
                try:
                    self._on_stall(w, age)
                except Exception:  # pragma: no cover - callback safety
                    pass

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            if not self.recorder.is_open:
                return
            try:
                self._sample()
            except Exception:  # pragma: no cover - shm vanished mid-read
                return


def straggler_skew_ns(busy_ns: Iterable[int]) -> tuple[int, int]:
    """Classify one barrier's per-worker busy times.

    Returns ``(skew_ns, straggler_count)`` where ``skew_ns`` is the gap
    between the slowest worker and the *median* worker — the quantity
    the BSP cost model assumes is zero (a superstep is priced by its
    slowest worker, so skew is pure loss) — and ``straggler_count`` is
    how many workers ran more than twice the median (and at least 1 ms
    over it, so sub-millisecond barriers never classify).
    """
    values = sorted(int(v) for v in busy_ns)
    if len(values) < 2:
        return 0, 0
    median = values[len(values) // 2]
    skew = max(0, values[-1] - median)
    stragglers = sum(
        1 for v in values if v > 2 * median and v - median > 1_000_000
    )
    return skew, stragglers
