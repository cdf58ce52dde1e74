"""Shared superstep accounting.

The reference engine and the vectorized kernels must charge identical
costs for identical superstep behaviour — the equivalence tests rely on
it.  Both therefore call :func:`record_superstep` with the same five
quantities: active vertices, messages received, messages sent, the
per-destination enqueue histogram, and the superstep index.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.runtime.loops import Tracer
from repro.xmt.calibration import KernelCosts
from repro.xmt.trace import WorkTrace

__all__ = ["record_superstep", "with_queue_design"]

#: Message-queue designs for :func:`with_queue_design`.
QUEUE_DESIGNS = ("single-tail", "per-vertex", "chunked")


def record_superstep(
    tracer: Tracer,
    *,
    superstep: int,
    active: int,
    received: int,
    sent: int,
    enqueues_per_destination: np.ndarray | None,
    costs: KernelCosts,
    name: str = "bsp/superstep",
    compute_reads: float = 0.0,
    compute_instructions: float = 0.0,
) -> None:
    """Append one ``kind="superstep"`` region to ``tracer``.

    ``enqueues_per_destination`` may be the full per-vertex histogram
    (zeros allowed) or ``None`` when ``sent`` is 0.

    ``compute_reads`` / ``compute_instructions`` charge algorithm-specific
    local computation beyond the message traffic — e.g. the neighbour-list
    scans of the triangle program.  The generic engine cannot observe
    Python-level compute, so only the vectorized kernels supply these;
    engine traces underestimate compute-heavy programs accordingly.
    """
    with tracer.region(
        name, items=max(active, 1), kind="superstep", iteration=superstep
    ) as r:
        r.count(
            instructions=(
                active * costs.vertex_touch_instructions
                + received * costs.message_receive_instructions
                + sent * costs.message_enqueue_instructions
                + compute_instructions
            ),
            reads=received * costs.message_receive_reads + active
            + compute_reads,
            writes=sent * costs.message_enqueue_writes + active,
        )
        if sent:
            if enqueues_per_destination is None:
                raise ValueError(
                    "sent > 0 requires the per-destination histogram"
                )
            sites = np.asarray(enqueues_per_destination)
            if sites.min() < 0:
                raise ValueError("site counts must be non-negative")
            global_counter = int(np.ceil(sent / costs.message_queue_shard))
            # One site per destination plus the global counter.  Only
            # their total and their maximum are recorded, so reduce the
            # histogram here instead of copying it: the hottest
            # destination and the counter go in as sites, the rest of
            # the histogram as a plain count.
            hottest = int(sites.max())
            r.count(atomics=int(sites.sum()) - hottest)
            r.atomics_per_site([hottest, global_counter])


def with_queue_design(
    trace: WorkTrace,
    design: str,
    costs: KernelCosts,
    *,
    chunk: int = 64,
) -> WorkTrace:
    """Re-account a BSP trace under an alternative message-queue design.

    The paper's §VII names the hazard directly: "Without native support
    for message features such as enqueueing and dequeueing, serialization
    around a single atomic fetch-and-add is possible, inhibiting
    scalability."  This helper rewrites each superstep's hotspot profile
    as if the runtime had used:

    * ``"single-tail"`` — one global queue whose tail every message
      reserves: the naive design §VII warns about.  Every enqueue lands
      on one word, so the hotspot depth equals the message count and the
      superstep stops scaling with processors.
    * ``"per-vertex"`` — a tail word per destination vertex (this
      library's default accounting): the hotspot depth is the hottest
      receiver's in-traffic, i.e. bounded by the maximum active degree.
    * ``"chunked"`` — a single tail reserved in blocks of ``chunk``
      slots (the MTA/XMT work-queue idiom GraphCT's BFS uses): the
      depth shrinks to ``messages / chunk``.

    Message counts are recovered from the traced enqueue writes
    (``writes_per_message`` is a calibration constant), so the helper
    applies to any trace produced by :func:`record_superstep`.
    """
    if design not in QUEUE_DESIGNS:
        raise ValueError(f"design must be one of {QUEUE_DESIGNS}")
    if costs.message_enqueue_writes <= 0:
        # The rewrite divides traced enqueue writes by this constant to
        # recover per-superstep message counts; with it at 0 the trace
        # does not encode the counts and every superstep would silently
        # pass through unmodified.
        raise ValueError(
            "with_queue_design cannot recover message counts: "
            "costs.message_enqueue_writes is 0, so enqueue writes do not "
            "encode the sent count; re-trace with a KernelCosts whose "
            "message_enqueue_writes is positive"
        )
    out = WorkTrace(label=f"{trace.label}[{design}]")
    for region in trace:
        if region.kind != "superstep" or region.atomics <= 0:
            out.add(region)
            continue
        # Messages sent in this superstep, from the write accounting.
        active = region.parallel_items
        sent = max(
            (region.writes - active) / costs.message_enqueue_writes, 0.0
        )
        if sent <= 0:
            out.add(region)
            continue
        if design == "single-tail":
            max_site = sent
            atomics = sent
        elif design == "chunked":
            max_site = math.ceil(sent / chunk)
            atomics = max_site
        else:  # per-vertex: keep the traced per-destination histogram
            out.add(region)
            continue
        out.add(
            replace(
                region,
                atomics=max(atomics, max_site),
                atomic_max_site=max_site,
            )
        )
    return out
