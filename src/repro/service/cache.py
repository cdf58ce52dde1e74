"""LRU result cache for the graph-analytics service.

Served graphs are read-only (the paper's contract), so a finished
algorithm result is valid for as long as the graph is loaded — the only
correct cache key is the *content* of the computation: the graph's CSR
fingerprint, the algorithm name, and the canonicalized parameters.
Canonicalization (defaults filled, keys sorted) happens at submit time
in :mod:`repro.service.runner`, so ``{"damping": 0.85}`` and ``{}``
share one entry.

Values are the *encoded* result documents (``bytes``, serialised once on
the job thread): a hit goes to the socket as it is, and an entry costs
its wire size, not the several times larger list-of-objects form.

Hit/miss/eviction counts are kept here and additionally surfaced as
telemetry counters by the service app, so a Chrome trace of a serving
session shows which jobs were recomputes.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry

__all__ = ["ResultCache"]


class ResultCache:
    """Thread-safe LRU map from cache key to encoded result document.

    ``capacity`` bounds the entry count; 0 disables caching entirely
    (every lookup misses, nothing is stored).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.hits: int = 0
        self.misses: int = 0
        self.evictions: int = 0

    @staticmethod
    def make_key(
        fingerprint: str, algorithm: str, params: dict[str, Any]
    ) -> str:
        """Deterministic key for (graph, algorithm, canonical params)."""
        blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
        return f"{fingerprint}/{algorithm}/{blob}"

    def get(self, key: str) -> bytes | None:
        """The cached document (refreshing recency), or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, value: bytes) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the telemetry report."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def publish_metrics(
        self, registry: MetricsRegistry | NullMetricsRegistry
    ) -> None:
        """Mirror the cache tallies into ``registry`` (collection-time).

        The cache keeps its own authoritative counts (they predate the
        metrics layer and feed :meth:`stats`), so the registry series
        are bridged rather than incremented per event:
        ``Counter.set_total`` raises each counter to the current tally —
        monotone even if two scrapes race — and the entry-count gauge is
        set outright.  Called by the service app before rendering
        ``GET /metrics``.
        """
        stats = self.stats()
        registry.counter(
            "repro_cache_hits_total", "Result-cache lookups served."
        ).set_total(stats["hits"])
        registry.counter(
            "repro_cache_misses_total", "Result-cache lookups that missed."
        ).set_total(stats["misses"])
        registry.counter(
            "repro_cache_evictions_total", "LRU entries evicted."
        ).set_total(stats["evictions"])
        registry.gauge(
            "repro_cache_entries", "Entries currently cached."
        ).set(stats["size"])
        registry.gauge(
            "repro_cache_capacity", "Configured cache capacity."
        ).set(stats["capacity"])
