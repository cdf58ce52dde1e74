"""Workload process: ``python3 -m harness.child <spec.json>``.

Runs one workload (set-up, timed units, verification) in a process of
its own, so its CPU time, memory and leaks are its alone, and prints
one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import engines, serve
from harness.oracle import Oracle
from harness.spec import ENGINE_WORKLOADS, FULL, SMOKE


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    sizing = SMOKE if spec["smoke"] else FULL
    oracle = Oracle.load(spec["oracle"])
    name, seed, seconds = spec["workload"], spec["seed"], spec["seconds"]
    if name in ENGINE_WORKLOADS:
        if spec["trace"]:
            result = engines.run_traced(name, seed, seconds, sizing, oracle)
        else:
            result = engines.run_end_to_end(
                name, seed, seconds, sizing, oracle, spec["inject_wrong"]
            )
    else:
        result = serve.run(
            seed, seconds, sizing, oracle, Path(spec["workdir"]),
            trace=spec["trace"], inject_wrong=spec["inject_wrong"],
        )
    spans = result.pop("spans", None)
    if spans is not None:
        Path(spec["workdir"], "spans.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
