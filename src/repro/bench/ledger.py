"""Run provenance for benchmark payloads.

``perf/run.py`` stamps every ``results/bench/BENCH_e2e_<workload>.json``
with :func:`collect_provenance` — git SHA and branch, UTC timestamp,
host fingerprint (hostname / CPU count / platform / Python) and the
package version — and writes it through :func:`sanitize`, so every
number can be traced to an exact source tree and machine.
``repro version`` prints :func:`package_version`.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import socket
import subprocess
from datetime import datetime, timezone

__all__ = [
    "collect_provenance",
    "fingerprint_of",
    "package_version",
    "sanitize",
]


def package_version() -> str:
    """The installed ``repro`` version (falls back to the source tree)."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _git(args: list[str], cwd: str | None) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint_of(
    hostname: str, cpu_count: int, machine: str, python: str
) -> str:
    """Stable short hash identifying a measurement environment."""
    key = f"{hostname}|{cpu_count}|{machine}|{python}"
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def collect_provenance(repo_dir: str | None = None) -> dict:
    """Describe where and when a benchmark run happened.

    Returns the git SHA and branch of ``repo_dir`` (``None`` outside a
    checkout) and whether its tree is dirty, a UTC timestamp, the host identity, and the derived ``fingerprint``
    used to group statistically comparable runs.
    """
    hostname = socket.gethostname()
    cpu_count = os.cpu_count() or 1
    machine = platform.machine()
    python = platform.python_version()
    dirty = _git(["status", "--porcelain"], repo_dir)
    return {
        "git_sha": _git(["rev-parse", "HEAD"], repo_dir),
        "git_branch": _git(["rev-parse", "--abbrev-ref", "HEAD"], repo_dir),
        "git_dirty": bool(dirty),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "hostname": hostname,
        "cpu_count": cpu_count,
        "machine": machine,
        "python": python,
        "repro_version": package_version(),
        "fingerprint": fingerprint_of(hostname, cpu_count, machine, python),
    }


def sanitize(obj):
    """Strict-JSON copy of ``obj``: non-finite floats become ``None``.

    ``json.dump`` happily writes ``NaN``/``Infinity`` tokens that no
    strict parser accepts; a benchmark payload must never contain them.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj
