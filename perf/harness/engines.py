"""The three engine workloads: closed loop, one caller, one warm engine.

A *unit* is one round of wrapper calls on the next source of the seeded
pool.  Layers are measured from outside: spans around the public
``bsp_*`` wrappers, the public ``telemetry=`` kwarg of ``make_engine``
and the public ``engine.pipe_bytes``.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from contextlib import nullcontext

from harness import probes
from harness.calibrate import Calibrator
from harness.oracle import Oracle
from harness.procs import descendant_cpu_seconds, peak_rss_mb
from harness.spec import (
    EDGE_FACTOR,
    ENGINE_WORKLOADS,
    KCORE_K,
    PAGERANK_SUPERSTEPS,
    UNITS,
    Sizing,
)
from harness.stats import SpanLog, median, percentile

__all__ = ["run_end_to_end", "run_traced"]

_RESULT_ARRAYS = ("labels", "distances", "ranks", "in_core")


def _wrappers() -> dict:
    from repro.bsp_algorithms import (
        bsp_breadth_first_search,
        bsp_connected_components,
        bsp_k_core,
        bsp_pagerank,
        bsp_sssp,
    )

    return {
        "cc": lambda g, e, s: bsp_connected_components(g, engine=e),
        "bfs": lambda g, e, s: bsp_breadth_first_search(g, s, engine=e),
        "sssp": lambda g, e, s: bsp_sssp(g, s, engine=e),
        "pagerank": lambda g, e, s: bsp_pagerank(
            g, num_supersteps=PAGERANK_SUPERSTEPS, engine=e
        ),
        "kcore": lambda g, e, s: bsp_k_core(g, KCORE_K, engine=e),
    }


def _no_span(name: str, unit: int) -> nullcontext:
    return nullcontext()


def _flip_one_value(result, source: int) -> None:
    """``--inject-wrong``: corrupt one entry of a result in place."""
    for attr in _RESULT_ARRAYS:
        array = getattr(result, attr, None)
        if array is not None:
            array[source] = ~array[source] if array.dtype == bool \
                else array[source] + 1
            return


class _Rounds:
    """Runs and verifies units against one warm engine."""

    def __init__(self, name: str, graph, engine, oracle: Oracle,
                 span_prefix: str = "", unit_offset: int = 0) -> None:
        self.calls = ENGINE_WORKLOADS[name][2]
        self.span_prefix = span_prefix
        self.unit_offset = unit_offset
        self.graph = graph
        self.engine = engine
        self.oracle = oracle
        self.pool = oracle.meta["pool"]
        self.wrappers = _wrappers()
        self.latencies: list[float] = []
        self.wrong = 0
        self.errors = 0
        #: Per unit: ``{call: (supersteps, messages)}`` and pipe bytes.
        self.counts: list[dict] = []
        self.pipe_bytes: list[int] = []

    def unit(self, index: int, log: SpanLog | None = None,
             inject_wrong: bool = False) -> bool:
        """Run unit ``index``; False when the engine raised."""
        source = self.pool[index % len(self.pool)]
        graph, engine = self.graph, self.engine
        pipe0 = getattr(engine, "pipe_bytes", 0)
        span = log.span if log is not None else _no_span
        prefix, unit_id = self.span_prefix, index + self.unit_offset
        results = []
        t0 = time.perf_counter()
        try:
            with span(f"{prefix}unit", unit_id):
                for call in self.calls:
                    with span(f"{prefix}bsp_algorithms.{call}", unit_id):
                        results.append(
                            self.wrappers[call](graph, engine, source)
                        )
        except Exception:  # boundary: a failed unit is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.errors += 1
            return False
        self.latencies.append(time.perf_counter() - t0)
        # The clock has stopped: everything below is the harness's cost.
        self.pipe_bytes.append(getattr(engine, "pipe_bytes", 0) - pipe0)
        self.counts.append({
            call: (int(r.num_supersteps), int(sum(r.messages_per_superstep)))
            for call, r in zip(self.calls, results)
        })
        if inject_wrong:
            _flip_one_value(results[0], source)
        if not all(
            self.oracle.check(call, source, r)
            for call, r in zip(self.calls, results)
        ):
            self.wrong += 1
        return True

    def warm_up(self, units: int) -> float:
        """Untimed, unverified units; returns the last one's duration."""
        for index in range(units):
            source = self.pool[index % len(self.pool)]
            t0 = time.perf_counter()
            for call in self.calls:
                self.wrappers[call](self.graph, self.engine, source)
            last = time.perf_counter() - t0
        return last

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.errors

    @property
    def failed(self) -> int:
        return self.wrong + self.errors


def _build(name: str, seed: int, sizing: Sizing, telemetry=None):
    """Generate the graph and build the engine: (graph, engine, timings)."""
    from repro.bsp import make_engine
    from repro.graph.generators import rmat

    mode, workers, _ = ENGINE_WORKLOADS[name]
    t0 = time.perf_counter()
    graph = rmat(scale=sizing.scale, edge_factor=EDGE_FACTOR, seed=seed)
    t1 = time.perf_counter()
    engine = make_engine(graph, mode, num_workers=workers, telemetry=telemetry)
    return graph, engine, (t1 - t0, time.perf_counter() - t1)


def _timed_segment(
    rounds: _Rounds, first: int, seconds: float, sizing: Sizing,
    inject_wrong: bool,
) -> tuple[Calibrator, float]:
    """Run units from index ``first`` for ``seconds``: (speed, CPU seconds).

    The host-speed kernel runs once before the first unit and once after
    every unit, outside the units' clocks; its own CPU time is taken out.
    """
    speed = Calibrator()
    speed.sample()
    cpu0 = time.process_time() + descendant_cpu_seconds()
    deadline = time.perf_counter() + seconds
    fewest = -(-sizing.min_units // sizing.setup_repeats)
    done = 0
    while (
        done < sizing.fixed_units
        if sizing.fixed_units is not None
        else time.perf_counter() < deadline or done < fewest
    ):
        index = first + done
        if not rounds.unit(index, inject_wrong=inject_wrong and index == 0):
            break  # the engine's state is unknown after an error
        speed.sample()
        done += 1
    cpu1 = time.process_time() + descendant_cpu_seconds()
    return speed, cpu1 - cpu0 - sum(speed.samples[1:])


def run_end_to_end(
    name: str, seed: int, seconds: float, sizing: Sizing, oracle: Oracle,
    inject_wrong: bool,
) -> dict:
    """The untraced pass: the user-visible numbers, at reference speed.

    Set-up is repeated and the timed pass is split evenly over the
    repeats: every set-up lands the graph and the engine's buffers on
    other physical pages, and a memory-bound kernel's speed depends on
    them by several per cent, so one run samples several placements.
    """
    repeats = sizing.setup_repeats
    setups, raw, lat, factors = [], [], [], []
    setup_speed = Calibrator()
    attempted = failed = wrong = 0
    cpu_raw = cpu = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        graph, engine, _ = _build(name, seed, sizing)
        rounds = _Rounds(name, graph, engine, oracle)
        try:
            rounds.warm_up(sizing.warmup_units)
            setups.append(time.perf_counter() - t0)
            for _ in range(5):
                setup_speed.sample()
            speed, spent = _timed_segment(
                rounds, len(raw), seconds / repeats, sizing, inject_wrong
            )
        finally:
            engine.close()
        attempted += rounds.attempted
        failed += rounds.failed
        wrong += rounds.wrong
        raw += rounds.latencies
        lat += [
            t * speed.factor_around(i) for i, t in enumerate(rounds.latencies)
        ]
        cpu_raw += spent
        cpu += spent * speed.factor
        factors.append(speed.factor)
        errors = rounds.errors
        # Forked shard workers inherit this process's heap: drop the old
        # graph before the next set-up, or peak RSS depends on the order
        # the collector happens to run in.
        del graph, engine, rounds
        gc.collect()
        if errors:
            break  # do not keep hammering a failing engine
    if not lat:
        raise RuntimeError("no unit completed")
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(lat),
        "metrics": {
            "setup_s": median(setups) * setup_speed.factor,
            "latency_p50_s": median(lat),
            "latency_p90_s": percentile(
                lat, 90, min_beyond=sizing.min_beyond
            ),
            "throughput_units_s": (len(lat) - wrong) / sum(lat),
            "cpu_s_per_unit": cpu / len(lat),
            "peak_rss_mb": peak_rss_mb(),
        },
        "notes": {
            "host_speed_factor": median(factors),
            "raw_setup_s": median(setups),
            "raw_latency_p50_s": median(raw),
            "raw_cpu_s_per_unit": cpu_raw / len(raw),
        },
    }


def _pool_cycle_sum(rows: list, pool: int, pick) -> int:
    """Sum ``pick(row)`` over the first pass through the source pool."""
    return int(sum(pick(row) for row in rows[:pool]))


def run_traced(
    name: str, seed: int, seconds: float, sizing: Sizing, oracle: Oracle,
) -> dict:
    """The traced pass: one number per layer metric this workload runs.

    Two warm engines on one graph take turns, unit by unit: A is the
    untraced configuration with harness spans around every wrapper call,
    B carries a ``Telemetry`` session whose main-track spans are adopted
    beneath the harness's.  Alternating cancels drift out of the traced ÷
    untraced ratio.  Both run the same whole number of pool cycles, and
    count metrics are taken over the first cycle, so they repeat exactly
    for a seed however long the pass runs.
    """
    from repro.bsp import make_engine
    from repro.telemetry.core import Telemetry

    mode, workers, _ = ENGINE_WORKLOADS[name]
    sharded = mode == "sharded"
    pool = len(oracle.meta["pool"])
    values: dict[str, float] = {}
    log = SpanLog()
    speed = Calibrator()

    graph, engine_a, (generate_s, construct_s) = _build(name, seed, sizing)
    tel = Telemetry(label=f"perf/{name}")
    engine_b = make_engine(graph, mode, num_workers=workers, telemetry=tel)
    close_s = 0.0
    try:
        t0 = time.perf_counter()
        fingerprint = graph.fingerprint()
        values["graph.fingerprint_s"] = time.perf_counter() - t0
        if fingerprint != oracle.meta["fingerprint"]:
            raise RuntimeError("generated graph differs from the oracle's")
        values["graph.generate_s"] = generate_s
        values["graph.arcs"] = graph.num_arcs

        a = _Rounds(name, graph, engine_a, oracle)
        unit_estimate = a.warm_up(sizing.warmup_units)
        units = sizing.fixed_units or pool * max(
            1, int(0.4 * seconds / (pool * unit_estimate))
        )
        b = _Rounds(name, graph, engine_b, oracle, "traced.", units)
        b.warm_up(1)
        first_span, first_counter = len(tel.spans), len(tel.counters)
        for index in range(units):
            if not (a.unit(index, log) and b.unit(index, log)):
                break
            speed.sample()
        if sharded:
            values.update(probes.crossover(graph, engine_a, a.pool))
    finally:
        engine_b.close()
        t0 = time.perf_counter()
        engine_a.close()
        close_s = time.perf_counter() - t0
    log.adopt(
        [(s.name, s.start_ns, s.end_ns)
         for s in tel.spans[first_span:] if s.track == 0],
        [s for s in log.spans if s.name.startswith("traced.bsp_algorithms.")],
    )
    if not a.latencies or not b.latencies:
        raise RuntimeError("no unit completed")

    for call in a.calls:
        values[f"bsp_algorithms.{call}_p50_s"] = median(
            log.durations(f"bsp_algorithms.{call}")
        )
        for field, column in (("supersteps", 0), ("messages", 1)):
            values[f"bsp_algorithms.{call}_{field}"] = _pool_cycle_sum(
                a.counts, pool, lambda row: row[call][column]
            )

    n_b = len(b.latencies)
    own = {k: v / n_b for k, v in log.self_seconds().items()}
    first_cycle = range(units, units + pool)
    values["bsp.dense.compute_s"] = own.get("compute", 0.0)
    values["bsp.dense.scatter_s"] = own.get("scatter", 0.0)
    values["bsp.dense.gather_s"] = own.get("gather", 0.0)
    values["bsp.dense.deliver_s"] = (
        own.get("deliver", 0.0) + own.get("combine", 0.0)
    )
    values["bsp.dense.superstep_self_s"] = own.get("superstep", 0.0)
    values["bsp.dense.supersteps"] = sum(
        1 for s in log.spans
        if s.name == "superstep" and s.unit in first_cycle
    )
    modes = [c.value for c in tel.counters[first_counter:]
             if c.name == "frontier_mode"]
    values["bsp.dense.sparse_superstep_frac"] = (
        1.0 - sum(modes) / len(modes) if modes else 0.0
    )
    values["telemetry.trace_overhead_frac"] = (
        median(b.latencies) / median(a.latencies) - 1.0
    )

    if sharded:
        counters: dict[str, float] = {}
        for c in tel.counters[first_counter:]:
            counters[c.name] = counters.get(c.name, 0.0) + c.value
        values["bsp.parallel.spawn_s"] = construct_s
        values["bsp.parallel.close_s"] = close_s
        values["bsp.parallel.barrier_s"] = own.get("barrier", 0.0)
        values["bsp.parallel.barriers"] = sum(
            1 for s in log.spans
            if s.name == "barrier" and s.unit in first_cycle
        )
        values["bsp.parallel.parent_self_s"] = (
            sum(b.latencies) / n_b
            - own.get("barrier", 0.0) - own.get("compute", 0.0)
        )
        for metric in ("worker_busy", "worker_wait", "straggler_skew"):
            values[f"bsp.parallel.{metric}_s"] = (
                counters.get(f"{metric}_ns", 0.0) / 1e9 / n_b
            )
        values["bsp.parallel.pipe_bytes"] = _pool_cycle_sum(
            a.pipe_bytes, pool, lambda nbytes: nbytes
        )
        values["bsp.parallel.worker_errors"] = a.errors + b.errors
        values.update(probes.wire(graph.num_vertices))

    # Every time above is raw; report them at reference speed, like
    # the end-to-end pass (the spans written out stay raw).
    for key, value in values.items():
        if UNITS.get(key) in ("s", "us"):
            values[key] = value * speed.factor
        elif UNITS.get(key) == "MB/s":
            values[key] = value / speed.factor
    return {
        "attempted": a.attempted + b.attempted,
        "failed": a.failed + b.failed,
        "samples": len(a.latencies),
        "metrics": values,
        "spans": log.to_json(),
        "notes": {
            "host_speed_factor": speed.factor,
            "round_p50_s": median(a.latencies) * speed.factor,
            "wrapper_p50_sum_s": sum(
                values[f"bsp_algorithms.{c}_p50_s"] for c in a.calls
            ),
            "units_per_segment": units,
        },
    }
