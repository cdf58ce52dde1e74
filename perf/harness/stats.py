"""Percentiles and the harness's own span table.

Nothing here imports ``repro``: the statistics and the span bookkeeping
are the benchmark's, so a change under ``src/`` cannot alter how its own
numbers are summarised.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "Span",
    "SpanLog",
    "histogram_quantile",
    "median",
    "percentile",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(
    samples: Sequence[float], pct: float, *, min_beyond: int = MIN_BEYOND
) -> float:
    """The ``pct``-th percentile of ``samples`` (linear interpolation).

    Refuses (``ValueError``) when fewer than ``min_beyond`` samples lie
    beyond the percentile: a p90 over 50 samples is set by its five
    largest values and says nothing steady about the tail.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError("pct must lie strictly between 0 and 100")
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    beyond = n * (100.0 - pct) / 100.0  # exact for p90 of 100
    if beyond < min_beyond:
        raise ValueError(
            f"p{pct:g} of {n} samples has only {beyond:.1f} samples beyond "
            f"it; at least {min_beyond} are required"
        )
    return float(np.percentile(samples, pct))


def median(samples: Sequence[float]) -> float:
    """Median of ``samples``; 0.0 for an empty sequence (layer not run)."""
    return float(statistics.median(samples)) if samples else 0.0


def histogram_quantile(
    buckets: Iterable[tuple[float, int]], total: int, q: float
) -> float:
    """Quantile ``q`` of a cumulative fixed-bucket histogram.

    ``buckets`` are ``(upper_bound, cumulative_count)`` pairs in rising
    order (the ``/metrics.json`` layout); the value is interpolated
    inside the bucket the rank falls in, as Prometheus does.
    """
    if total <= 0:
        return 0.0
    rank = q * total
    prev_bound, prev_count = 0.0, 0
    for bound, count in buckets:
        if count >= rank:
            width = count - prev_count
            share = (rank - prev_count) / width if width else 1.0
            return prev_bound + (bound - prev_bound) * share
        prev_bound, prev_count = bound, count
    return prev_bound


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    #: ``span_id`` of the span that caused this one, -1 for a root.
    parent: int
    #: Every span of one unit (round or request) shares this.
    unit: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanLog:
    """In-memory span table, written out when the run ends.

    Spans opened with :meth:`span` nest by the call stack of the thread
    that opens them; :meth:`adopt` adds intervals recorded elsewhere (the
    engine's own telemetry session) and finds each one's parent by
    containment.  A layer's *self time* is its spans' duration minus the
    part their children cover.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, unit: int) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(len(self.spans), name, self.clock(), 0, parent, unit)
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_ns = self.clock()

    def add(self, name: str, start_ns: int, end_ns: int, parent: int,
            unit: int) -> Span:
        """Record a finished interval with a known parent."""
        record = Span(len(self.spans), name, start_ns, end_ns, parent, unit)
        self.spans.append(record)
        return record

    def adopt(self, intervals: Iterable[tuple[str, int, int]],
              roots: Sequence[Span]) -> None:
        """Add ``(name, start_ns, end_ns)`` intervals beneath ``roots``.

        Each interval's parent is the innermost already-known span that
        contains it: one of ``roots`` (non-overlapping, in start order)
        or an earlier adopted interval.  Intervals outside every root
        are dropped — they belong to no unit.
        """
        ordered = sorted(intervals, key=lambda iv: (iv[1], -iv[2]))
        roots = sorted(roots, key=lambda s: s.start_ns)
        r = 0
        stack: list[Span] = []
        for name, start, end in ordered:
            while r < len(roots) and roots[r].end_ns < start:
                r += 1
                stack = []
            if r == len(roots):
                break
            root = roots[r]
            if start < root.start_ns or end > root.end_ns:
                continue
            while stack and stack[-1].end_ns < end:
                stack.pop()
            parent = stack[-1] if stack else root
            stack.append(
                self.add(name, start, end, parent.span_id, root.unit)
            )

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end_ns - s.start_ns
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s.end_ns - s.start_ns) - covered[s.span_id]
            out[s.name] = out.get(s.name, 0.0) + own / 1e9
        return out

    def durations(self, name: str) -> list[float]:
        """Duration in seconds of every span called ``name``."""
        return [s.seconds for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.span_id,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "unit": s.unit,
            }
            for s in self.spans
        ]
