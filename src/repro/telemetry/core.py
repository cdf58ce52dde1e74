"""Wall-clock spans and counter samples for the runtime.

Everything else in this library accounts *modeled* work — operation
counts priced by the XMT cost model.  This module records what actually
happened on the host: a :class:`Telemetry` object collects wall-clock
:class:`Span` s (superstep, scatter, gather, combine, barrier, kernel)
and :class:`CounterSample` s (active vertices, messages, bytes moved,
per-worker busy/wait), each tagged with the superstep and the *track* it
belongs to (track 0 is the main engine loop; track ``w + 1`` is shard
worker ``w``).

Instrumentation must cost nothing when nobody asked for it: every engine
defaults to the :data:`NULL_TELEMETRY` singleton, whose ``span`` returns
a shared no-op context manager and whose recording methods are empty —
no clock reads, no allocation, no list growth.  Recording never feeds
back into the computation, so results, message histories, and modeled
work traces are bit-identical with telemetry on or off (asserted by the
equivalence guard in ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "MAIN_TRACK",
    "NULL_TELEMETRY",
    "CounterSample",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "peak_rss_bytes",
    "worker_track",
]

#: Track id of the main engine loop (shard worker ``w`` is ``w + 1``).
MAIN_TRACK = 0


def worker_track(worker_index: int) -> int:
    """Track id for shard worker ``worker_index``."""
    return int(worker_index) + 1


def peak_rss_bytes() -> int | None:
    """Lifetime peak resident-set size of this process, in bytes.

    Read from ``getrusage`` — one cheap syscall, no allocation.  The
    value is monotone (the OS never lowers the high-water mark), so a
    per-superstep sample series shows *when* the peak was first reached.
    Returns ``None`` on platforms without ``resource`` (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(rss) * (1 if sys.platform == "darwin" else 1024)


@dataclass(frozen=True)
class Span:
    """One timed interval: a phase of the runtime, on one track.

    Timestamps come from the telemetry clock
    (:func:`time.perf_counter_ns` by default) and are only meaningful
    relative to other spans of the same :class:`Telemetry` object.
    """

    name: str
    start_ns: int
    end_ns: int
    #: Grouping label for export ("superstep", "phase", "worker", ...).
    category: str = "engine"
    #: 0 = main engine loop, ``w + 1`` = shard worker ``w``.
    track: int = MAIN_TRACK
    #: Superstep / iteration the span belongs to, -1 when not applicable.
    superstep: int = -1
    #: Free-form annotations (active counts, message counts, ...).
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError("span must end at or after its start")

    @property
    def duration_ns(self) -> int:
        """Span length in nanoseconds."""
        return self.end_ns - self.start_ns

    @property
    def duration_seconds(self) -> float:
        """Span length in seconds."""
        return self.duration_ns / 1e9

    def contains(self, other: "Span") -> bool:
        """True when ``other`` lies entirely within this span."""
        return self.start_ns <= other.start_ns and other.end_ns <= self.end_ns


@dataclass(frozen=True)
class CounterSample:
    """One observation of a named metric at a point in time."""

    name: str
    value: float
    t_ns: int
    track: int = MAIN_TRACK
    superstep: int = -1


class Telemetry:
    """Collects spans and counters for one (or more) runs.

    Parameters
    ----------
    label:
        Free-form name carried into exports.
    clock:
        Nanosecond clock; override with a fake for deterministic tests.
    """

    #: Discriminator the engines branch on; the no-op twin sets False.
    enabled = True

    def __init__(
        self,
        label: str = "telemetry",
        *,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.label = label
        self._clock = clock
        #: Completed spans in completion order.
        self.spans: list[Span] = []
        #: Counter samples in recording order.
        self.counters: list[CounterSample] = []
        #: Clock reading at construction — the export time origin.
        self.origin_ns: int = clock()

    # -- recording -----------------------------------------------------
    def now(self) -> int:
        """Current clock reading (nanoseconds)."""
        return self._clock()

    @contextmanager
    def span(
        self,
        name: str,
        *,
        category: str = "engine",
        track: int = MAIN_TRACK,
        superstep: int = -1,
        **args: Any,
    ) -> Iterator[None]:
        """Time a block; the span joins :attr:`spans` on exit."""
        start = self._clock()
        try:
            yield
        finally:
            self.spans.append(
                Span(
                    name,
                    start,
                    self._clock(),
                    category=category,
                    track=track,
                    superstep=superstep,
                    args=args,
                )
            )

    def add_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        category: str = "engine",
        track: int = MAIN_TRACK,
        superstep: int = -1,
        **args: Any,
    ) -> None:
        """Record a span from explicit timestamps.

        Used where the interval is not a ``with`` block: superstep spans
        whose start predates the decision to record them, and worker
        busy intervals reported over the pipe as durations.
        """
        self.spans.append(
            Span(
                name,
                int(start_ns),
                int(end_ns),
                category=category,
                track=track,
                superstep=superstep,
                args=args,
            )
        )

    def counter(
        self,
        name: str,
        value: float,
        *,
        track: int = MAIN_TRACK,
        superstep: int = -1,
        t_ns: int | None = None,
    ) -> None:
        """Record one sample of a named metric (timestamped now)."""
        self.counters.append(
            CounterSample(
                name,
                value,
                self._clock() if t_ns is None else int(t_ns),
                track=track,
                superstep=superstep,
            )
        )

    def sample_memory(
        self, *, track: int = MAIN_TRACK, superstep: int = -1
    ) -> None:
        """Record the process's ``peak_rss_bytes`` as a counter sample
        (one syscall).  Engines call this once per superstep / kernel
        inside their ``telemetry.enabled`` branch, so the disabled path
        never pays for it.
        """
        rss = peak_rss_bytes()
        if rss is not None:
            self.counter(
                "peak_rss_bytes", rss, track=track, superstep=superstep
            )

    # -- queries -------------------------------------------------------
    def spans_named(self, name: str, *, track: int | None = None) -> list[Span]:
        """Spans with a given name (optionally restricted to one track)."""
        return [
            s
            for s in self.spans
            if s.name == name and (track is None or s.track == track)
        ]

    def tracks(self) -> list[int]:
        """Sorted distinct track ids with at least one span or counter."""
        return sorted(
            {s.track for s in self.spans} | {c.track for c in self.counters}
        )

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span with ``name``."""
        return sum(s.duration_seconds for s in self.spans_named(name))

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Per-name span statistics: count, total/mean/max seconds."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(
                s.name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            row["count"] += 1
            row["total_seconds"] += s.duration_seconds
            row["max_seconds"] = max(row["max_seconds"], s.duration_seconds)
        for row in out.values():
            row["mean_seconds"] = row["total_seconds"] / row["count"]
        return out

    # -- export (implemented in repro.telemetry.export) ----------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event representation (see :mod:`.export`)."""
        from repro.telemetry.export import chrome_trace

        return chrome_trace(self)

    def to_report(self) -> dict:
        """Structured JSON report (see :mod:`.export`)."""
        from repro.telemetry.export import telemetry_report

        return telemetry_report(self)

    def save_chrome_trace(self, path) -> None:
        """Write the Chrome trace JSON (open in Perfetto / chrome://tracing)."""
        from repro.telemetry.export import save_chrome_trace

        save_chrome_trace(self, path)

    def save_report(self, path) -> None:
        """Write the structured JSON report."""
        from repro.telemetry.export import save_report

        save_report(self, path)


class _NullSpan:
    """Reusable no-op context manager returned by the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled twin of :class:`Telemetry`: records nothing.

    Every engine holds one of these by default, so instrumentation sites
    cost a method call returning a shared singleton — no clock read, no
    allocation.  All query methods return empty results.
    """

    enabled = False
    label = ""
    #: Immutable empties so accidental reads behave like an empty Telemetry.
    spans: tuple = ()
    counters: tuple = ()
    origin_ns = 0

    def now(self) -> int:
        """Constant 0 — the disabled path never reads the clock."""
        return 0

    def span(self, name: str, **kwargs: Any) -> _NullSpan:
        """Return the shared no-op context manager."""
        return _NULL_SPAN

    def add_span(self, *args: Any, **kwargs: Any) -> None:
        """Drop the span."""

    def counter(self, *args: Any, **kwargs: Any) -> None:
        """Drop the sample."""

    def sample_memory(self, *args: Any, **kwargs: Any) -> None:
        """No memory reads on the disabled path."""

    def spans_named(self, name: str, **kwargs: Any) -> list:
        """Always empty."""
        return []

    def tracks(self) -> list:
        """Always empty."""
        return []

    def total_seconds(self, name: str) -> float:
        """Always 0."""
        return 0.0

    def span_summary(self) -> dict:
        """Always empty."""
        return {}


#: Shared disabled instance — the default ``telemetry`` of every engine.
NULL_TELEMETRY = NullTelemetry()
