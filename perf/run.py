#!/usr/bin/env python3
"""The repository's one end-to-end benchmark (see ``perf/README.md``).

    python3 perf/run.py                      # every workload, both passes
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --aa                 # two sets, compared
    python3 perf/run.py --smoke              # scale 10, a few units

Each workload runs in a fresh subprocess; this process computes the
reference answers beforehand and checks for leaked processes and
shared-memory segments afterwards.  The last line of standard output is
one JSON object; the exit code is non-zero on any wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF_DIR), str(PERF_DIR.parent / "src")]

from harness import report, spec  # noqa: E402
from harness.oracle import build_oracle  # noqa: E402
from harness.procs import session_survivors, shm_segments  # noqa: E402

#: The driver allows a run 180 s; stop a wedged workload before that.
_CHILD_TIMEOUT_S = 170
_EXIT_GRACE_S = 3.0


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, *,
    smoke: bool = False, inject_wrong: bool = False,
) -> dict:
    """One workload in its own process: oracle → run → leak check."""
    sizing = spec.SMOKE if smoke else spec.FULL
    workdir = spec.PERF_DIR / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        oracle_path = workdir / "oracle.npz"
        build_oracle(workload, seed, sizing, seconds).save(str(oracle_path))
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "inject_wrong": inject_wrong,
            "oracle": str(oracle_path), "workdir": str(workdir),
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(spec.PERF_DIR), str(spec.SRC),
                        env.get("PYTHONPATH")) if p
        )
        shm_before = shm_segments()
        # Its own session, so every descendant can be found afterwards.
        child = subprocess.Popen(
            [sys.executable, "-m", "harness.child", str(spec_path)],
            stdout=subprocess.PIPE, env=env, cwd=spec.ROOT,
            start_new_session=True,
        )
        try:
            stdout, _ = child.communicate(timeout=_CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RuntimeError(f"{workload} exceeded {_CHILD_TIMEOUT_S} s")
        # multiprocessing's resource tracker outlives its parent by a
        # moment (it unlinks what the parent registered); give it one.
        grace = time.monotonic() + _EXIT_GRACE_S
        while (survivors := session_survivors(child.pid)) and \
                time.monotonic() < grace:
            time.sleep(0.02)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        leaked_shm = sorted(shm_segments() - shm_before)
        for name in leaked_shm:
            os.unlink(os.path.join("/dev/shm", name))
        if child.returncode != 0:
            raise RuntimeError(
                f"{workload} workload process exited {child.returncode}"
            )
        run = json.loads(stdout.decode().strip().splitlines()[-1])
        spans_path = workdir / "spans.json"
        if spans_path.exists():
            run["spans"] = json.loads(spans_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = spec.PER_LAYER if trace else spec.END_TO_END
    run["metrics"] = spec.metrics_payload(
        names, run["metrics"], strict=not trace
    )
    run.update(workload=workload, seed=seed, trace=trace)
    if survivors or leaked_shm:
        # The north-star invariant: nothing outlives a run.
        run["leaks"] = {"processes": survivors, "shm": leaked_shm}
        run["attempted"] += 1
        run["failed"] += 1
    return run


def contract_line(run: dict) -> str:
    """The driver's result object, exactly its four keys."""
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    })


def run_set(args, workloads: list[str], passes: list[bool]) -> dict:
    """Every requested (workload, pass); prints each run as it ends."""
    runs = {}
    for trace in passes:
        for workload in workloads:
            run = run_workload(
                workload, args.seed, args.seconds, trace,
                smoke=args.smoke, inject_wrong=args.inject_wrong,
            )
            print(report.format_run(run), flush=True)
            if not trace:
                config = {
                    "scale": (spec.SMOKE if args.smoke else spec.FULL).scale,
                    "seed": args.seed, "seconds": args.seconds,
                    "smoke": args.smoke,
                }
                print(f"  ledger payload: {report.emit_ledger(run, config)}")
            runs[(workload, trace)] = run
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec.BENCHMARK["run_seconds"],
                        help="how long the timed pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass, 1: traced per-layer pass "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 10, 5 rounds / 20 requests")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets of the same code and compare them")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="self-test: corrupt one result; must exit 1")
    parser.add_argument("--out", metavar="PATH",
                        help="write every run, with its spans, as JSON")
    args = parser.parse_args(argv)
    if not (spec.SRC / "repro").is_dir():
        sys.exit(f"perf/run.py measures the checkout it sits in, and "
                 f"{spec.SRC / 'repro'} is missing")

    workloads = [args.workload] if args.workload else spec.WORKLOADS
    passes = [False, True] if args.trace is None else [bool(args.trace)]
    runs = run_set(args, workloads, passes)
    ok = all(run["failed"] == 0 for run in runs.values())
    if args.aa:
        second = run_set(args, workloads, passes)
        rows, agree = report.compare_sets(runs, second)
        print("== A/A: first set, second set, difference")
        print("\n".join(rows))
        ok = ok and agree and all(r["failed"] == 0 for r in second.values())
    if args.out:
        Path(args.out).write_text(json.dumps(list(runs.values())))
    for run in runs.values():
        run.pop("spans", None)
    if len(runs) == 1:
        print(contract_line(next(iter(runs.values()))))
    else:
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "runs": list(runs.values()),
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
