"""Tests for the message-queue design re-accounting (§VII)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp.instrumentation import (
    QUEUE_DESIGNS,
    record_superstep,
    with_queue_design,
)
from repro.bsp_algorithms import bsp_connected_components
from repro.graph import rmat
from repro.runtime.loops import Tracer
from repro.xmt.calibration import DEFAULT_COSTS
from repro.xmt.cost_model import simulate
from repro.xmt.machine import XMTMachine
from repro.xmt.trace import RegionTrace, WorkTrace


@pytest.fixture(scope="module")
def bsp_trace():
    return bsp_connected_components(
        rmat(scale=11, edge_factor=16, seed=1)
    ).trace


class TestRewriting:
    def test_per_vertex_is_identity(self, bsp_trace):
        out = with_queue_design(bsp_trace, "per-vertex", DEFAULT_COSTS)
        assert [r.atomic_max_site for r in out] == [
            r.atomic_max_site for r in bsp_trace
        ]

    def test_single_tail_hotspot_equals_messages(self, bsp_trace):
        out = with_queue_design(bsp_trace, "single-tail", DEFAULT_COSTS)
        for before, after in zip(bsp_trace, out):
            if before.kind != "superstep" or before.atomics <= 0:
                continue
            sent = (
                before.writes - before.parallel_items
            ) / DEFAULT_COSTS.message_enqueue_writes
            if sent > 0:
                assert after.atomic_max_site == pytest.approx(sent)

    def test_chunked_divides_by_chunk(self, bsp_trace):
        single = with_queue_design(bsp_trace, "single-tail", DEFAULT_COSTS)
        chunked = with_queue_design(
            bsp_trace, "chunked", DEFAULT_COSTS, chunk=64
        )
        for s, c in zip(single, chunked):
            if s.atomic_max_site > 0 and s.kind == "superstep":
                # ceil(sent/64): at least 32x smaller, floored at one
                # reservation for near-empty supersteps.
                assert c.atomic_max_site <= max(s.atomic_max_site / 32, 1)

    def test_non_superstep_regions_untouched(self):
        t = WorkTrace()
        t.add(RegionTrace(name="loop", parallel_items=10, writes=100,
                          atomics=5, atomic_max_site=2))
        out = with_queue_design(t, "single-tail", DEFAULT_COSTS)
        assert out.regions[0].atomic_max_site == 2

    def test_unknown_design_rejected(self, bsp_trace):
        with pytest.raises(ValueError, match="design"):
            with_queue_design(bsp_trace, "lockfree", DEFAULT_COSTS)

    def test_zero_enqueue_writes_rejected(self, bsp_trace):
        # With message_enqueue_writes == 0 the traced writes cannot
        # encode message counts, so the rewrite would silently no-op.
        import dataclasses

        free_costs = dataclasses.replace(
            DEFAULT_COSTS, message_enqueue_writes=0.0
        )
        with pytest.raises(ValueError, match="message_enqueue_writes"):
            with_queue_design(bsp_trace, "single-tail", free_costs)

    def test_label_annotated(self, bsp_trace):
        out = with_queue_design(bsp_trace, "chunked", DEFAULT_COSTS)
        assert "[chunked]" in out.label


class TestScalingConsequences:
    """§VII quantified: the naive queue inhibits scalability."""

    @pytest.mark.parametrize("design", QUEUE_DESIGNS)
    def test_designs_price_consistently(self, bsp_trace, design):
        t = with_queue_design(bsp_trace, design, DEFAULT_COSTS)
        assert simulate(t, XMTMachine()).total_seconds > 0

    def test_single_tail_flattens_scaling(self, bsp_trace):
        scaled = {
            d: with_queue_design(bsp_trace, d, DEFAULT_COSTS).scaled(1024)
            for d in ("single-tail", "per-vertex")
        }
        speedup = {}
        for d, t in scaled.items():
            t8 = simulate(t, XMTMachine(num_processors=8)).total_seconds
            t128 = simulate(t, XMTMachine(num_processors=128)).total_seconds
            speedup[d] = t8 / t128
        assert speedup["single-tail"] < 2.5
        assert speedup["per-vertex"] > 8

    def test_single_tail_slower_at_full_machine(self, bsp_trace):
        m = XMTMachine(num_processors=128)
        single = simulate(
            with_queue_design(bsp_trace, "single-tail", DEFAULT_COSTS)
            .scaled(1024),
            m,
        ).total_seconds
        per_vertex = simulate(
            with_queue_design(bsp_trace, "per-vertex", DEFAULT_COSTS)
            .scaled(1024),
            m,
        ).total_seconds
        assert single > 3 * per_vertex


def record_with_copied_sites(tracer, *, superstep, active, received, sent,
                             enqueues_per_destination, costs):
    """The accounting as first written: the non-zero sites are filtered
    out, joined with the global counter and handed over as one array."""
    with tracer.region(
        "bsp/superstep", items=max(active, 1), kind="superstep",
        iteration=superstep,
    ) as r:
        r.count(
            instructions=(
                active * costs.vertex_touch_instructions
                + received * costs.message_receive_instructions
                + sent * costs.message_enqueue_instructions
            ),
            reads=received * costs.message_receive_reads + active,
            writes=sent * costs.message_enqueue_writes + active,
        )
        if sent:
            sites = np.asarray(enqueues_per_destination)
            sites = sites[sites > 0]
            counter = int(np.ceil(sent / costs.message_queue_shard))
            r.atomics_per_site(np.concatenate([sites, [counter]]))


class TestRecordSuperstep:
    @given(
        st.lists(st.integers(min_value=0, max_value=5000), min_size=1,
                 max_size=200),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_reduced_histogram_records_the_same_region(
        self, histogram, combine_messages, received
    ):
        enq = np.asarray(histogram, dtype=np.int64)
        if combine_messages:  # the engines' post-fold accounting
            enq = np.minimum(enq, 1)
        sent = int(enq.sum())
        quantities = dict(
            superstep=3, active=len(histogram), received=received,
            sent=sent, enqueues_per_destination=enq if sent else None,
            costs=DEFAULT_COSTS,
        )
        expected, got = Tracer(), Tracer()
        record_with_copied_sites(expected, **quantities)
        record_superstep(got, **quantities)
        (want,), (have,) = expected.trace.regions, got.trace.regions
        for f in dataclasses.fields(want):
            assert getattr(have, f.name) == getattr(want, f.name), f.name

    def test_histogram_is_not_modified(self):
        enq = np.array([0, 4, 0, 9, 1], dtype=np.int64)
        enq.setflags(write=False)  # e.g. the graph's cached in-degrees
        tracer = Tracer()
        record_superstep(
            tracer, superstep=0, active=5, received=0, sent=14,
            enqueues_per_destination=enq, costs=DEFAULT_COSTS,
        )
        (region,) = tracer.trace.regions
        assert region.atomics == 14 + 1
        assert region.atomic_max_site == 9

    def test_sent_without_histogram_is_an_error(self):
        with pytest.raises(ValueError, match="per-destination histogram"):
            record_superstep(
                Tracer(), superstep=0, active=1, received=0, sent=2,
                enqueues_per_destination=None, costs=DEFAULT_COSTS,
            )

    def test_nothing_sent_needs_no_histogram(self):
        tracer = Tracer()
        record_superstep(
            tracer, superstep=0, active=4, received=7, sent=0,
            enqueues_per_destination=None, costs=DEFAULT_COSTS,
        )
        (region,) = tracer.trace.regions
        assert region.atomics == 0 and region.atomic_max_site == 0

    def test_negative_site_count_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            record_superstep(
                Tracer(), superstep=0, active=2, received=0, sent=1,
                enqueues_per_destination=np.array([2, -1]),
                costs=DEFAULT_COSTS,
            )
