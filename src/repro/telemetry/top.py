"""The ``repro top`` subcommand: live per-worker view of a sharded engine.

Two attachment modes, both read-only and non-intrusive:

* **Beacon mode** (default) — scan a flight-recorder beacon directory
  (``results/flightrec/`` unless ``--beacon-dir`` says otherwise) for
  live recorders, attach to their shared-memory rings directly, and
  decode per-worker status out of the event records.  Works against any
  process on the host that built a
  :class:`~repro.bsp.parallel.ShardedBSPEngine` with the (always-on)
  flight recorder — no cooperation from the engine needed, the rings
  are sampled exactly like the engine's own watchdog samples them.
* **URL mode** (``--url http://host:port``) — poll a ``repro serve``
  instance's ``GET /debug/workers`` endpoint; same rows, but routed
  through the service so it works across hosts.

Renders one table per engine: worker id, pid, liveness, current phase,
superstep, progress through the phase's arc range, peak RSS, and the
age of the newest ring event (the number the stall watchdog compares
against ``stall_timeout``).  ``--once`` prints a single snapshot (the
scriptable form); the default loop redraws every ``--interval`` seconds
until interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

from repro.telemetry.flightrec import attach_status, read_beacons

__all__ = ["format_worker_table", "main", "snapshot"]


def _fmt_bytes(n: int | float | None) -> str:
    if not n:
        return "-"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def _fmt_age(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 1:
        return f"{seconds * 1e3:.0f}ms"
    if seconds < 120:
        return f"{seconds:.1f}s"
    return f"{seconds / 60:.1f}m"


def format_worker_table(rows: list[dict], *, title: str = "") -> str:
    """Render worker-status rows (engine or service form) as a table."""
    header = (
        f"{'worker':>6}  {'pid':>8}  {'alive':>5}  {'phase':<8}"
        f"{'step':>6}  {'progress':>18}  {'rss':>9}  {'last event':>10}"
    )
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        done = int(row.get("progress_arcs") or 0)
        total = int(row.get("progress_total") or 0)
        ratio = float(row.get("progress_ratio") or 0.0)
        progress = (
            f"{done:,}/{total:,} ({ratio:4.0%})" if total else "-"
        )
        alive = row.get("alive")
        lines.append(
            f"{row.get('worker', '?'):>6}  "
            f"{row.get('pid') or '-':>8}  "
            f"{('yes' if alive else 'no') if alive is not None else '?':>5}  "
            f"{row.get('phase', '?'):<8}"
            f"{row.get('step', -1):>6}  "
            f"{progress:>18}  "
            f"{_fmt_bytes(row.get('rss_bytes')):>9}  "
            f"{_fmt_age(row.get('last_event_age_seconds')):>10}"
        )
    return "\n".join(lines)


def snapshot(
    *, url: str | None = None, beacon_dir: str = "results/flightrec"
) -> list[tuple[str, list[dict]]]:
    """Collect ``(title, worker-rows)`` per attached engine.

    URL mode returns one entry (the service's engine); beacon mode one
    per live recorder found under ``beacon_dir``.
    """
    if url is not None:
        target = url.rstrip("/") + "/debug/workers"
        with urllib.request.urlopen(target, timeout=5) as resp:
            body = json.loads(resp.read().decode("utf-8"))
        title = (
            f"{url}  flight_recorder="
            f"{'on' if body.get('flight_recorder') else 'off'}  "
            f"stall_timeout={body.get('stall_timeout')}  "
            f"stalled={'YES' if body.get('stall_detected') else 'no'}  "
            f"skew={body.get('superstep_skew_seconds', 0):.6f}s"
        )
        return [(title, body.get("workers", []))]
    out = []
    for beacon in read_beacons(beacon_dir):
        rows = attach_status(beacon)
        if not rows:
            continue
        title = (
            f"engine pid {beacon.get('pid')}  shm {beacon.get('shm')}  "
            f"{beacon.get('num_workers')} worker(s)"
        )
        out.append((title, rows))
    return out


def _render(engines: list[tuple[str, list[dict]]]) -> str:
    if not engines:
        return (
            "no live engines found (no beacons, or recorder disabled); "
            "try --url against a repro serve instance"
        )
    return "\n\n".join(
        format_worker_table(rows, title=title) for title, rows in engines
    )


def main(argv: list[str] | None = None) -> int:
    """Run ``repro top``."""
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live per-worker view of a running sharded BSP engine.",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="poll a repro serve instance's /debug/workers instead of "
             "attaching to local flight-recorder beacons",
    )
    parser.add_argument(
        "--beacon-dir", default="results/flightrec", metavar="DIR",
        help="flight-recorder beacon directory (default %(default)s)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default %(default)s)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (scriptable)",
    )
    args = parser.parse_args(argv)

    while True:
        try:
            engines = snapshot(url=args.url, beacon_dir=args.beacon_dir)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            print(f"repro top: cannot attach: {exc}", file=sys.stderr)
            return 1
        text = _render(engines)
        if args.once:
            print(text)
            return 0
        # Clear-and-home keeps the loop flicker-free on real terminals
        # while degrading to plain appends when piped.
        if sys.stdout.isatty():  # pragma: no cover - interactive only
            print("\x1b[2J\x1b[H", end="")
        print(time.strftime("%H:%M:%S"))
        print(text, flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
