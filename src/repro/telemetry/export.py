"""Telemetry export: Chrome trace events and a structured JSON report.

Two machine-readable renditions of one :class:`~repro.telemetry.core.Telemetry`:

* :func:`chrome_trace` — the Chrome trace-event format (the ``traceEvents``
  JSON array), loadable in `Perfetto <https://ui.perfetto.dev>`_ or
  ``chrome://tracing``.  Spans become complete (``"ph": "X"``) events;
  each telemetry track renders as its own named row (``tid`` 0 is the
  engine's main loop, higher tids are shard workers), and counter samples
  become ``"ph": "C"`` counter tracks.
* :func:`telemetry_report` — a schema-versioned dictionary with the raw
  spans, counters, and per-name summary statistics, for programmatic
  consumption (``repro serve``'s telemetry endpoint returns it).

Timestamps are exported in microseconds relative to the telemetry
object's construction, so traces start near zero regardless of the
host's clock origin.
"""

from __future__ import annotations

import json

from repro.telemetry.core import MAIN_TRACK, Telemetry

__all__ = [
    "CHROME_TRACE_PID",
    "REPORT_FORMAT_VERSION",
    "chrome_trace",
    "memory_summary",
    "save_chrome_trace",
    "save_report",
    "telemetry_report",
]

#: Single synthetic process id used for all exported events.
CHROME_TRACE_PID = 1

#: Schema version of :func:`telemetry_report` output.
REPORT_FORMAT_VERSION = 1


def _track_name(track: int) -> str:
    return "engine" if track == MAIN_TRACK else f"worker {track - 1}"


def chrome_trace(telemetry: Telemetry) -> dict:
    """Render ``telemetry`` as a Chrome trace-event JSON object.

    Returns a dictionary with the standard ``traceEvents`` list plus
    ``displayTimeUnit`` and an ``otherData`` block carrying the label.
    Write it with :func:`save_chrome_trace` and open the file directly
    in Perfetto.
    """
    origin = telemetry.origin_ns
    stamps = [s.start_ns for s in telemetry.spans] + [
        c.t_ns for c in telemetry.counters
    ]
    if stamps:
        origin = min(origin, *stamps)

    def us(t_ns: int) -> float:
        return (t_ns - origin) / 1e3

    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": CHROME_TRACE_PID,
            "tid": MAIN_TRACK,
            "args": {"name": f"repro {telemetry.label}".strip()},
        }
    ]
    tracks = set(telemetry.tracks()) | {MAIN_TRACK}
    for track in sorted(tracks):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": CHROME_TRACE_PID,
                "tid": track,
                "args": {"name": _track_name(track)},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": CHROME_TRACE_PID,
                "tid": track,
                "args": {"sort_index": track},
            }
        )
    for span in telemetry.spans:
        args = {k: v for k, v in span.args.items()}
        if span.superstep >= 0:
            args.setdefault("superstep", span.superstep)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "pid": CHROME_TRACE_PID,
                "tid": span.track,
                "ts": us(span.start_ns),
                "dur": span.duration_ns / 1e3,
                "args": args,
            }
        )
    for sample in telemetry.counters:
        name = (
            sample.name
            if sample.track == MAIN_TRACK
            else f"{sample.name}[w{sample.track - 1}]"
        )
        events.append(
            {
                "ph": "C",
                "name": name,
                "pid": CHROME_TRACE_PID,
                "tid": MAIN_TRACK,
                "ts": us(sample.t_ns),
                "args": {"value": sample.value},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"label": telemetry.label, "format": "chrome-trace"},
    }


def memory_summary(telemetry: Telemetry) -> dict:
    """Peak memory footprint derived from the memory counter samples.

    Returns the ``peak_rss_bytes`` maximum over the main track and a
    ``worker_peak_rss_bytes`` map for shard workers.  Empty dict when no
    memory samples were recorded (telemetry off, or an engine predating
    the memory hooks).
    """
    out: dict = {}
    workers: dict[str, int] = {}
    for c in telemetry.counters:
        if c.name == "peak_rss_bytes":
            if c.track == MAIN_TRACK:
                out[c.name] = max(out.get(c.name, 0), int(c.value))
        elif c.name == "worker_peak_rss_bytes":
            key = str(c.track - 1)
            workers[key] = max(workers.get(key, 0), int(c.value))
    if workers:
        out["worker_peak_rss_bytes"] = workers
    return out


def telemetry_report(telemetry: Telemetry) -> dict:
    """Schema-versioned structured dump of spans, counters, and summary."""
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "label": telemetry.label,
        "spans": [
            {
                "name": s.name,
                "category": s.category,
                "track": s.track,
                "superstep": s.superstep,
                "start_ns": s.start_ns - telemetry.origin_ns,
                "duration_ns": s.duration_ns,
                "args": dict(s.args),
            }
            for s in telemetry.spans
        ],
        "counters": [
            {
                "name": c.name,
                "value": c.value,
                "track": c.track,
                "superstep": c.superstep,
                "t_ns": c.t_ns - telemetry.origin_ns,
            }
            for c in telemetry.counters
        ],
        "span_summary": telemetry.span_summary(),
        "memory": memory_summary(telemetry),
    }


def save_chrome_trace(telemetry: Telemetry, path) -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(chrome_trace(telemetry), fh, indent=1)


def save_report(telemetry: Telemetry, path) -> None:
    """Write :func:`telemetry_report` output as JSON to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(telemetry_report(telemetry), fh, indent=1)
