"""What the orchestrator prints and writes: tables, A/A comparison, ledger."""

from __future__ import annotations

import json
import os

from harness.spec import BENCHMARK, END_TO_END, PER_LAYER, ROOT, UNITS

__all__ = ["compare_sets", "emit_ledger", "format_run"]

#: Per-layer metrics that must repeat exactly for a seed.
COUNT_METRICS = [
    m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"
]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def format_run(run: dict) -> str:
    """Every metric of one run by name, with its unit."""
    names = PER_LAYER if run["trace"] else END_TO_END
    attempted, failed = run["attempted"], run["failed"]
    lines = [
        f"== {run['workload']}  seed={run['seed']}  "
        f"{'traced' if run['trace'] else 'untraced'}  "
        f"samples={run['samples']}  attempted={attempted}  failed={failed}  "
        f"error_rate={failed / attempted:.4g}"
    ]
    for name in names:
        value = run["metrics"][name]["value"]
        shown = f"{value:.0f}" if UNITS[name] == "count" else f"{value:.6g}"
        lines.append(f"{name:<42} {shown:>16} {UNITS[name]}")
    for key, value in run.get("notes", {}).items():
        lines.append(f"  note {key} = {value:.6g}")
    for kind, items in run.get("leaks", {}).items():
        lines.append(f"  LEAK {kind}: {items}")
    return "\n".join(lines)


def compare_sets(first: dict, second: dict) -> tuple[list[str], bool]:
    """A/A: two sets of runs of the same code, keyed ``(workload, trace)``.

    Every end-to-end metric must agree within its bound and every count
    metric exactly; returns the printable rows and whether all did.
    """
    rows, ok = [], True
    for (workload, trace), a in sorted(first.items()):
        b = second[(workload, trace)]
        for name in COUNT_METRICS if trace else END_TO_END:
            x = a["metrics"][name]["value"]
            y = b["metrics"][name]["value"]
            if trace:
                good = x == y
                if x or y:  # a layer the workload does not run reads 0
                    rows.append(
                        f"{workload:<18} {name:<34} {x:>14.0f} {y:>14.0f} "
                        f"{'identical' if good else 'DIFFERS'}"
                    )
            else:
                diff = abs(y - x) / abs(x)
                good = diff <= BOUNDS[name]
                rows.append(
                    f"{workload:<18} {name:<34} {x:>14.6g} {y:>14.6g} "
                    f"{diff:>7.2%} (bound {BOUNDS[name]:.0%})"
                    f"{'' if good else '  EXCEEDS'}"
                )
            ok = ok and good
    return rows, ok


def emit_ledger(run: dict, config: dict) -> str:
    """Write a schema-v2 ``BENCH_e2e_<workload>.json`` for ``repro bench``."""
    from repro.bench.ledger import collect_provenance, sanitize

    data = {k: v["value"] for k, v in run["metrics"].items()}
    data["error_rate"] = run["failed"] / run["attempted"]
    payload = {
        "schema_version": 2,
        "benchmark": f"e2e_{run['workload']}",
        "config": config,
        "data": data,
        "memory": {"peak_rss_bytes": int(data["peak_rss_mb"] * 2**20)},
        "provenance": collect_provenance(str(ROOT)),
    }
    out_dir = ROOT / "results" / "bench"
    os.makedirs(out_dir, exist_ok=True)
    path = out_dir / f"BENCH_e2e_{run['workload']}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump(sanitize(payload), fh, indent=1, allow_nan=False)
        fh.write("\n")
    return str(path)
