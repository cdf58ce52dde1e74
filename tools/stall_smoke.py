"""Hang-injection smoke test for the flight recorder + stall watchdog.

Runs the sharded engine on a small RMAT graph with a fixture program
whose ``arc_payload`` hook sleeps far past ``stall_timeout`` whenever
the arc selection touches a vertex owned by shard 1 — a deterministic
stand-in for a wedged worker.  Asserts, end to end:

1. the engine raises :class:`~repro.bsp.parallel.WorkerStallError`
   within a small multiple of ``stall_timeout`` (not after the sleep
   finishes — detection, not patience);
2. the error names a postmortem bundle that exists on disk and decodes:
   format version, stall reason, last barrier state, partition map,
   and per-worker ring events including the stalled worker's open
   gather phase;
3. one more run on the same engine fails at once with a typed
   :class:`~repro.bsp.parallel.ShardedWorkerError` naming the stall —
   the worker's late reply can never be taken for an answer;
4. ``close()`` afterwards is *bounded* — the still-sleeping worker is
   escalated join → terminate → kill instead of hanging shutdown.

Usage::

    PYTHONPATH=src python tools/stall_smoke.py [--stall-timeout 2.0]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bsp import parallel
from repro.bsp.parallel import (
    ShardedBSPEngine,
    ShardedWorkerError,
    WorkerStallError,
)
from repro.bsp_algorithms.connected_components import DenseConnectedComponents
from repro.graph.generators import rmat

#: How long the injected hang sleeps.  Must dwarf every asserted bound:
#: if detection or shutdown waited for the worker, the timing asserts
#: below would trip long before this elapses.
HANG_SECONDS = 60.0


class SleepyComponents(DenseConnectedComponents):
    """Connected components whose payload hook wedges on chosen vertices.

    ``trap_vertices`` is chosen by the harness to lie on shard 1, so
    exactly that worker's gather goes silent while the others finish —
    the straggler-turned-stall shape the watchdog exists to catch.
    """

    def __init__(self, trap_vertices: np.ndarray) -> None:
        self.trap = np.asarray(trap_vertices, dtype=np.int64)

    def arc_payload(self, graph, values, selection):
        sources = graph.arc_sources()[selection]
        if np.isin(sources, self.trap).any():
            time.sleep(HANG_SECONDS)
        return super().arc_payload(graph, values, selection)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("--stall-timeout", type=float, default=2.0)
    args = parser.parse_args(argv)

    graph = rmat(scale=args.scale, edge_factor=8, seed=7)
    # A graph this small floods fewer arcs than the engine bothers to
    # fan out; the hang must wedge a worker, not the parent.
    parallel._LOCAL_SUPERSTEP_ARCS = 0
    engine = ShardedBSPEngine(
        graph, num_workers=2, stall_timeout=args.stall_timeout
    )
    # Trap every vertex on shard 1: any superstep that floods shard 1
    # arcs wedges that worker's gather.
    trap = np.flatnonzero(engine.assignment == 1)
    program = SleepyComponents(trap)

    t0 = time.monotonic()
    try:
        engine.run(program)
    except WorkerStallError as exc:
        detected_after = time.monotonic() - t0
        error = exc
    else:
        print("FAIL: engine completed without detecting the stall")
        return 1

    # Detection bound: generously 5x the deadline (poll granularity,
    # run startup) but nowhere near the 60s hang.
    budget = max(5 * args.stall_timeout, args.stall_timeout + 3)
    assert detected_after < budget, (
        f"stall detected after {detected_after:.1f}s; budget {budget:.1f}s"
    )
    assert error.worker == 1, f"expected shard 1, got {error.worker}"
    assert engine.stall_detected

    # The bundle must exist and decode.
    assert error.postmortem_path is not None, "no postmortem dumped"
    path = Path(error.postmortem_path)
    assert path.is_file(), f"missing bundle {path}"
    bundle = json.loads(path.read_text())
    assert bundle["format_version"] == 1
    assert bundle["reason"] == "stall"
    assert bundle["last_barrier"]["phase"] == "gather"
    assert bundle["partition"]["policy"] == "hash"
    assert len(bundle["workers"]) == 2
    stalled = bundle["workers"][1]
    assert stalled["status"]["phase"] == "gather", stalled["status"]
    kinds = {event["kind"] for event in stalled["events"]}
    assert "enter" in kinds, kinds

    # The pipes are out of step: the same engine must refuse the next
    # run, typed and at once, and point at the same bundle.
    t1 = time.monotonic()
    try:
        engine.run(DenseConnectedComponents())
    except ShardedWorkerError as exc:
        assert "desynchronised" in str(exc) and "stalled" in str(exc), exc
        assert exc.postmortem_path == error.postmortem_path
    else:
        print("FAIL: a run after the stall returned a result")
        return 1
    assert time.monotonic() - t1 < 1.0, "the refusal waited on a worker"

    # Bounded shutdown: worker 1 is still mid-sleep; close must
    # escalate to SIGKILL instead of waiting the sleep out.
    t1 = time.monotonic()
    engine.close()
    close_took = time.monotonic() - t1
    close_budget = 4 * args.stall_timeout + 5
    assert close_took < close_budget, (
        f"close took {close_took:.1f}s; budget {close_budget:.1f}s"
    )
    assert engine.workers_alive == 0

    print(
        f"stall smoke OK: detected in {detected_after:.2f}s "
        f"(timeout {args.stall_timeout}s), bundle {path.name}, "
        f"close in {close_took:.2f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
