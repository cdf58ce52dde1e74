"""Instrumented parallel runtime abstraction.

The GraphCT and BSP kernels are written against this layer instead of raw
loops so that every parallel construct leaves a :class:`~repro.xmt.trace.
RegionTrace` behind.  :class:`~repro.runtime.loops.Tracer` is the kernel's
handle: ``with tracer.region(...) as r: r.count(...)`` both documents the
parallel structure (what the XMT compiler would parallelize) and feeds the
cost model.
"""

from repro.runtime.counters import OpCounter
from repro.runtime.loops import RegionRecorder, Tracer

__all__ = [
    "OpCounter",
    "RegionRecorder",
    "Tracer",
]
