"""Benchmark provenance shared by ``perf/`` and ``repro version``.

The repository's one benchmark harness is ``perf/run.py`` (workloads
declared in ``BENCHMARK.json``, see ``perf/README.md``); it stamps each
``BENCH_e2e_<workload>.json`` payload through
:mod:`~repro.bench.ledger`.
"""

from repro.bench.ledger import (
    collect_provenance,
    fingerprint_of,
    package_version,
    sanitize,
)

__all__ = [
    "collect_provenance",
    "fingerprint_of",
    "package_version",
    "sanitize",
]
