"""Direct-call probes of single layers (traced pass only).

Each probe calls one public function in a tight loop, outside every
end-to-end clock, and returns ``{metric name: value}``.
"""

from __future__ import annotations

import threading
import time
from multiprocessing import Pipe

import numpy as np

from harness.stats import median

__all__ = ["cache", "crossover", "runner", "wire"]


def _median_us(fn, reps: int) -> float:
    samples = []
    for i in range(reps):
        t0 = time.perf_counter()
        fn(i)
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e6


def wire(num_vertices: int, reps: int = 400) -> dict[str, float]:
    """Round trip of scatter frames through the packed wire over a pipe.

    A helper thread echoes every frame back, as a shard worker's reply
    would follow the parent's command.  The small frame carries 16
    sender ids (a flat-tail superstep), the full one every vertex id.
    """
    from repro.bsp._wire import make_wire
    from repro.bsp.frontier import DENSE, SPARSE

    codec = make_wire("packed")
    near, far = Pipe()

    def echo() -> None:
        while True:
            message, _ = codec.recv(far)
            if message[0] == "close":
                return
            codec.send(far, message)

    helper = threading.Thread(target=echo, name="perf-wire-echo")
    helper.start()
    try:
        def round_trip(frame: tuple) -> tuple[float, int]:
            samples, nbytes = [], 0
            for _ in range(reps):
                t0 = time.perf_counter()
                nbytes = codec.send(near, frame)
                if not near.poll(10):
                    raise RuntimeError("wire echo thread did not reply")
                codec.recv(near)
                samples.append(time.perf_counter() - t0)
            return median(samples), nbytes

        small, _ = round_trip(
            ("scatter", 1, np.arange(16, dtype=np.int64), SPARSE)
        )
        full, nbytes = round_trip(
            ("scatter", 1, np.arange(num_vertices, dtype=np.int64), DENSE)
        )
    finally:
        codec.send(near, ("close",))
        helper.join(timeout=10)
        near.close()
        far.close()
    return {
        "bsp._wire.small_frame_us": small * 1e6,
        "bsp._wire.full_frame_mb_s": 2 * nbytes / full / 1e6,
    }


def crossover(graph, sharded_engine, pool: list[int]) -> dict[str, float]:
    """Sharded ÷ dense wrapper time on the same graph (base: dense).

    Reported, never gated: with three processes on two cores the ratio
    says where the crossover lies, not which engine is better.
    """
    from repro.bsp import make_engine
    from repro.bsp_algorithms import (
        bsp_breadth_first_search,
        bsp_connected_components,
    )

    def timings(engine) -> tuple[float, float]:
        cc, bfs = [], []
        for source in pool[:8]:
            t0 = time.perf_counter()
            bsp_breadth_first_search(graph, source, engine=engine)
            t1 = time.perf_counter()
            bsp_connected_components(graph, engine=engine)
            bfs.append(t1 - t0)
            cc.append(time.perf_counter() - t1)
        return median(cc), median(bfs)

    sharded_cc, sharded_bfs = timings(sharded_engine)
    with make_engine(graph, "dense") as dense:
        dense_cc, dense_bfs = timings(dense)
    return {
        "bsp.parallel.vs_dense_cc_ratio": sharded_cc / dense_cc,
        "bsp.parallel.vs_dense_bfs_ratio": sharded_bfs / dense_bfs,
    }


def cache(payload: dict, fingerprint: str, capacity: int) -> dict[str, float]:
    """``ResultCache`` operations with a result-sized payload."""
    from repro.service.cache import ResultCache

    store = ResultCache(capacity)
    keys = [
        ResultCache.make_key(fingerprint, "bfs", {"source": i})
        for i in range(capacity)
    ]
    out = {
        "service.cache.make_key_us": _median_us(
            lambda i: ResultCache.make_key(fingerprint, "bfs", {"source": i}),
            2000,
        ),
        # Twice the capacity, so half the puts evict.
        "service.cache.put_us": _median_us(
            lambda i: store.put(f"{keys[i % capacity]}#{i}", payload),
            2 * capacity,
        ),
    }
    for key in keys:
        store.put(key, payload)
    out["service.cache.get_hit_us"] = _median_us(
        lambda i: store.get(keys[i % capacity]), 2000
    )
    return out


def runner(graph, pool: list[int]) -> dict[str, float]:
    """Parameter canonicalisation and the cost of flattening a result."""
    from repro.bsp import make_engine
    from repro.bsp_algorithms import bsp_breadth_first_search
    from repro.service.runner import canonicalize_params, run_algorithm

    canonicalize_us = _median_us(
        lambda i: canonicalize_params(
            "bfs", {"source": pool[i % len(pool)]}, graph
        ),
        2000,
    )
    build = []
    with make_engine(graph, "dense") as engine:
        for source in pool:
            t0 = time.perf_counter()
            run_algorithm("bfs", {"source": source}, graph, engine=engine)
            t1 = time.perf_counter()
            bsp_breadth_first_search(graph, source, engine=engine)
            build.append((t1 - t0) - (time.perf_counter() - t1))
    return {
        "service.runner.canonicalize_us": canonicalize_us,
        "service.runner.payload_build_s": median(build),
    }
