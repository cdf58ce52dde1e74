"""Process-tree accounting from ``/proc`` and ``getrusage`` (Linux only).

``RUSAGE_CHILDREN`` only counts children that have been waited for, so
the CPU of live shard workers and of a running ``repro serve`` tree is
read from ``/proc/<pid>/stat`` instead.
"""

from __future__ import annotations

import os
import resource

__all__ = [
    "descendant_cpu_seconds",
    "peak_rss_mb",
    "session_survivors",
    "shm_segments",
]

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: str) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:  # the process ended between listdir and open
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.  Index 0 here is field 3 (state) of proc(5).
    return raw[raw.rfind(")") + 2:].split()


def _all_stats() -> dict[int, list[str]]:
    out = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None:
                out[int(entry)] = fields
    return out


def descendant_cpu_seconds(root: int | None = None) -> float:
    """User + system CPU seconds of every live descendant of ``root``."""
    root = os.getpid() if root is None else root
    stats = _all_stats()
    children: dict[int, list[int]] = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    ticks = 0
    frontier = list(children.get(root, ()))
    while frontier:
        pid = frontier.pop()
        fields = stats[pid]
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
        frontier.extend(children.get(pid, ()))
    return ticks / _TICK


def session_survivors(session_id: int) -> list[int]:
    """Pids still alive in session ``session_id`` (zombies excluded)."""
    return sorted(
        pid
        for pid, fields in _all_stats().items()
        if int(fields[3]) == session_id and fields[0] != "Z"
    )


def shm_segments() -> set[str]:
    """Names currently present under ``/dev/shm``."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest ended descendant.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the maximum over waited-for
    descendants, not their sum, so call this after the engine or server
    has been closed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
