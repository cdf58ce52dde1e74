"""What the benchmark runs: sizes, workloads and metric names.

The metric lists live in ``BENCHMARK.json`` at the repository root and
are read from there, so the harness cannot print a name the contract
does not know or forget one it does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BENCHMARK",
    "EDGE_FACTOR",
    "END_TO_END",
    "ENGINE_WORKLOADS",
    "FULL",
    "PER_LAYER",
    "PERF_DIR",
    "ROOT",
    "SMOKE",
    "SRC",
    "Sizing",
    "UNITS",
    "WORKLOADS",
    "metrics_payload",
]

PERF_DIR = Path(__file__).resolve().parent.parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
UNITS = {
    m["name"]: m["unit"]
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}


@dataclass(frozen=True)
class Sizing:
    """Input and load sizes of one benchmark configuration."""

    scale: int
    #: BFS/SSSP sources the engine workloads cycle over.
    pool: int
    warmup_units: int
    #: Fewest timed units a pass may end with (p90 needs 100).
    min_units: int
    #: Fixed unit count; ``None`` measures for ``--seconds`` instead.
    fixed_units: int | None
    #: Times set-up is repeated; ``setup_s`` is the median.
    setup_repeats: int
    #: Fewest samples beyond a reported percentile.
    min_beyond: int
    # serve_mixed
    rate_per_s: float
    hot_sources: int
    fixed_requests: int | None
    cache_size: int


#: The measured configuration.  Scale 15, not the issue's 16: the driver
#: allots ~37 s to a whole run (set-up, oracle and leak check included),
#: and 100 dense rounds at scale 16 alone take 33-39 s on this host.
FULL = Sizing(
    scale=15, pool=32, warmup_units=3, min_units=100,
    fixed_units=None, setup_repeats=3, min_beyond=10,
    rate_per_s=8.0, hot_sources=16, fixed_requests=None, cache_size=48,
)

#: ``--smoke``: seconds, not minutes; percentiles are not meaningful.
SMOKE = Sizing(
    scale=10, pool=8, warmup_units=1, min_units=1,
    fixed_units=5, setup_repeats=1, min_beyond=0,
    rate_per_s=10.0, hot_sources=4, fixed_requests=20, cache_size=6,
)

#: Engine workloads: engine mode, worker count, wrapper calls per unit.
ENGINE_WORKLOADS = {
    "dense_kernels": ("dense", None,
                      ("cc", "bfs", "sssp", "pagerank", "kcore")),
    "sharded_frontier": ("sharded", 2, ("bfs", "sssp")),
    "sharded_allactive": ("sharded", 2, ("cc", "pagerank")),
}

EDGE_FACTOR = 16
PAGERANK_SUPERSTEPS = 5
KCORE_K = 8
#: A ``serve_mixed`` request slower than this counts as failed.
LATENCY_LIMIT_S = 0.5


def metrics_payload(
    names: list[str], values: dict[str, float], *, strict: bool
) -> dict:
    """The contract's ``metrics`` object for ``names``.

    Unless ``strict``, a metric the workload did not produce reads 0: the
    layer did no work in it.
    """
    return {
        name: {
            "value": float(values[name] if strict else values.get(name, 0.0)),
            "unit": UNITS[name],
        }
        for name in names
    }
