"""Runtime telemetry: measured wall-clock observability for the engines.

The rest of the library models what a Cray XMT *would* do; this package
measures what the host actually *did*.  A :class:`Telemetry` object
threads through the BSP engines (reference, dense, sharded) and the
GraphCT workflow, recording wall-clock spans (superstep, scatter,
gather, combine, barrier, kernel) and counter samples (active vertices,
messages, bytes moved, per-worker busy/wait), and exports them as a
Chrome trace (Perfetto-loadable) or a structured JSON report.

Engines default to :data:`NULL_TELEMETRY`, the no-op twin — the
disabled path records nothing, reads no clock, and leaves results and
modeled traces bit-identical.

``repro measured-vs-modeled`` runs CC and BFS on every engine with a
:class:`Telemetry` and prints each superstep's wall clock beside the
model's price of it; see ``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.core import (
    MAIN_TRACK,
    NULL_TELEMETRY,
    CounterSample,
    NullTelemetry,
    Span,
    Telemetry,
    peak_rss_bytes,
    worker_track,
)
from repro.telemetry.export import (
    CHROME_TRACE_PID,
    REPORT_FORMAT_VERSION,
    chrome_trace,
    memory_summary,
    save_chrome_trace,
    save_report,
    telemetry_report,
)
from repro.telemetry.flightrec import (
    POSTMORTEM_FORMAT_VERSION,
    FlightRecord,
    FlightRecorder,
    RingWriter,
    StallWatchdog,
    decode_ring,
    list_postmortems,
    load_postmortem,
    read_beacons,
)
from repro.telemetry.logs import NULL_LOGGER, NullLogger, StructuredLogger
from repro.telemetry.metrics import (
    METRICS_FORMAT_VERSION,
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    metrics_snapshot,
    render_prometheus,
)

__all__ = [
    "CHROME_TRACE_PID",
    "MAIN_TRACK",
    "METRICS_FORMAT_VERSION",
    "NULL_LOGGER",
    "NULL_METRICS",
    "NULL_TELEMETRY",
    "POSTMORTEM_FORMAT_VERSION",
    "REPORT_FORMAT_VERSION",
    "CounterSample",
    "FlightRecord",
    "FlightRecorder",
    "MetricsRegistry",
    "NullLogger",
    "NullMetricsRegistry",
    "NullTelemetry",
    "RingWriter",
    "Span",
    "StallWatchdog",
    "StructuredLogger",
    "Telemetry",
    "chrome_trace",
    "decode_ring",
    "list_postmortems",
    "load_postmortem",
    "memory_summary",
    "metrics_snapshot",
    "peak_rss_bytes",
    "read_beacons",
    "render_prometheus",
    "save_chrome_trace",
    "save_report",
    "telemetry_report",
    "worker_track",
]
