"""Tests of the benchmark harness itself (``python -m pytest perf/tests``).

End-to-end cases run ``perf/run.py --smoke`` (scale 10, 5 rounds / 20
requests); the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
ROOT = PERF_DIR.parent
sys.path[:0] = [str(PERF_DIR), str(ROOT / "src")]

from harness import report, spec  # noqa: E402
from harness.oracle import build_oracle  # noqa: E402
from harness.serve import open_loop  # noqa: E402
from harness.stats import SpanLog, histogram_quantile, percentile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke() -> subprocess.CompletedProcess:
    """Every workload, both passes, at smoke size."""
    return run_cli("--smoke", "--seed", "1")


def printed_metrics(stdout: str) -> dict[str, list[tuple[float, str]]]:
    """``{metric name: [(value, unit), ...]}`` from the human-readable rows."""
    out: dict[str, list[tuple[float, str]]] = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in spec.UNITS:
            out.setdefault(parts[0], []).append((float(parts[1]), parts[2]))
    return out


# -- the one command ------------------------------------------------------


def test_every_contract_metric_is_printed_with_its_unit(smoke):
    assert smoke.returncode == 0, smoke.stderr
    printed = printed_metrics(smoke.stdout)
    for name in spec.END_TO_END + spec.PER_LAYER:
        assert NAME.match(name), name
        assert name in printed, f"{name} was not printed"
        # once per workload, always with the contract's unit
        assert len(printed[name]) == len(spec.WORKLOADS)
        assert {unit for _, unit in printed[name]} == {spec.UNITS[name]}
    summary = json.loads(smoke.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_every_layer_metric_is_measured_by_some_workload(smoke):
    printed = printed_metrics(smoke.stdout)
    # 0 is the truth for these on a healthy 2-worker run.
    zero_is_fine = {
        "bsp.parallel.worker_errors", "service.jobs.failed",
        "bsp.parallel.straggler_skew_s",
    }
    for name in set(spec.PER_LAYER) - zero_is_fine:
        assert any(value != 0 for value, _ in printed[name]), name


def test_end_to_end_metrics_are_never_zero(smoke):
    printed = printed_metrics(smoke.stdout)
    for name in spec.END_TO_END:
        assert all(value > 0 for value, _ in printed[name]), name


def test_driver_invocation_prints_the_contract_object():
    done = run_cli("--smoke", "--workload", "sharded_frontier",
                   "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == spec.END_TO_END
    for name, cell in result["metrics"].items():
        assert set(cell) == {"value", "unit"}
        assert cell["unit"] == spec.UNITS[name]


def test_inject_wrong_is_caught():
    for workload in ("dense_kernels", "serve_mixed"):
        done = run_cli("--smoke", "--workload", workload, "--trace", "0",
                       "--inject-wrong")
        assert done.returncode != 0
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] is False and result["failed"] >= 1


def test_same_seed_repeats_counts_exactly(smoke):
    again = run_cli("--smoke", "--seed", "1", "--trace", "1",
                    "--workload", "sharded_allactive")
    assert again.returncode == 0, again.stderr
    first = printed_metrics(smoke.stdout)
    second = printed_metrics(again.stdout)
    position = spec.WORKLOADS.index("sharded_allactive")
    for name in report.COUNT_METRICS:
        assert second[name][0] == first[name][position], name


def test_different_seed_gives_a_different_source_pool():
    pools = [
        build_oracle("sharded_frontier", seed, spec.SMOKE, 1.0).meta["pool"]
        for seed in (1, 1, 2)
    ]
    assert pools[0] == pools[1]
    assert pools[0] != pools[2]


def test_benchmark_json_matches_the_contract():
    doc = spec.BENCHMARK
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perf"]
    names = spec.WORKLOADS + spec.END_TO_END + spec.PER_LAYER
    assert len(names) == len(set(names))
    assert "setup_s" in spec.END_TO_END
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(m["bound"] for m in doc["end_to_end"]) == report.BOUNDS["setup_s"]


# -- statistics -----------------------------------------------------------


def test_percentile_refuses_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="samples beyond"):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(21)), 50) == 10


def test_histogram_quantile_interpolates_inside_the_bucket():
    buckets = [(0.001, 10), (0.01, 30), (0.1, 40)]
    assert histogram_quantile(buckets, 40, 0.5) == pytest.approx(0.0055)
    assert histogram_quantile(buckets, 0, 0.5) == 0.0


def test_self_time_is_span_minus_covered_children():
    log = SpanLog()
    unit = log.add("unit", 0, 50, -1, 0)
    call = log.add("call", 10, 40, unit.span_id, 0)
    # engine spans arrive without parents; containment finds them
    log.adopt([("superstep", 12, 38), ("compute", 14, 20),
               ("scatter", 20, 30), ("elsewhere", 60, 70)], [call])
    own = log.self_seconds()
    assert own["unit"] == pytest.approx(20e-9)
    assert own["call"] == pytest.approx(4e-9)
    assert own["superstep"] == pytest.approx(10e-9)
    assert own["compute"] == pytest.approx(6e-9)
    assert "elsewhere" not in own
    by_name = {s.name: s for s in log.spans}
    assert by_name["compute"].parent == by_name["superstep"].span_id
    assert by_name["superstep"].parent == call.span_id
    assert {s.unit for s in log.spans} == {0}


# -- the open loop --------------------------------------------------------


def test_open_loop_times_from_the_due_time():
    """A 100 ms stall on request 0 shows in the requests queued behind it."""
    import time

    def send(client: int, index: int) -> float:
        began = time.perf_counter()
        if index == 0:
            time.sleep(0.1)
        return time.perf_counter() - began

    sent = open_loop(100.0, 6, 1, send)
    assert [s.index for s in sent] == list(range(6))
    service = [s.outcome for s in sent]
    assert service[0] >= 0.1 and max(service[1:]) < 0.02
    # requests 1..5 were due 10..50 ms in, but the only client was busy
    for s in sent[1:]:
        assert s.lag > 0.04
        assert s.latency > s.outcome + 0.04
    assert sent[1].latency > sent[5].latency


def test_open_loop_counts_an_exception_as_an_outcome():
    def send(client: int, index: int) -> int:
        if index == 1:
            raise RuntimeError("refused")
        return index

    sent = open_loop(1000.0, 3, 2, send)
    assert isinstance(sent[1].outcome, RuntimeError)
    assert [sent[0].outcome, sent[2].outcome] == [0, 2]


# -- A/A ------------------------------------------------------------------


def test_compare_sets_flags_a_timing_beyond_its_bound_and_a_moved_count():
    def run(p50: float, barriers: int, trace: bool) -> dict:
        names = spec.PER_LAYER if trace else spec.END_TO_END
        metrics = {n: {"value": 1.0, "unit": spec.UNITS[n]} for n in names}
        if trace:
            metrics["bsp.parallel.barriers"]["value"] = barriers
        else:
            metrics["latency_p50_s"]["value"] = p50
        return {"metrics": metrics}

    key_e2e, key_trace = ("dense_kernels", False), ("dense_kernels", True)
    base = {key_e2e: run(1.0, 7, False), key_trace: run(1.0, 7, True)}
    _, ok = report.compare_sets(base, base)
    assert ok
    within = 1.0 + report.BOUNDS["latency_p50_s"] / 2
    _, ok = report.compare_sets(
        base, {key_e2e: run(within, 7, False), key_trace: run(1.0, 7, True)})
    assert ok
    beyond = 1.0 + report.BOUNDS["latency_p50_s"] * 2
    rows, ok = report.compare_sets(
        base, {key_e2e: run(beyond, 7, False), key_trace: run(1.0, 7, True)})
    assert not ok and any("EXCEEDS" in row for row in rows)
    rows, ok = report.compare_sets(
        base, {key_e2e: run(1.0, 7, False), key_trace: run(1.0, 8, True)})
    assert not ok and any("DIFFERS" in row for row in rows)
