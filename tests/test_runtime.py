"""Tests for the instrumented runtime layer (counters, tracer)."""

import numpy as np
import pytest

from repro.runtime import OpCounter, Tracer
from repro.runtime.loops import RegionRecorder


class TestOpCounter:
    def test_add_and_totals(self):
        c = OpCounter()
        c.add(instructions=5, reads=3, writes=2, atomics=1)
        assert c.memory_ops == 6
        assert c.total == 11

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OpCounter().add(reads=-1)

    def test_merge(self):
        a = OpCounter(instructions=1)
        b = OpCounter(reads=2)
        a.merge(b)
        assert a.instructions == 1 and a.reads == 2

    def test_reset(self):
        c = OpCounter(instructions=4)
        c.reset()
        assert c.total == 0

    def test_snapshot_delta(self):
        c = OpCounter()
        c.add(reads=2)
        snap = c.snapshot()
        c.add(reads=3, writes=1)
        d = c.delta_since(snap)
        assert d.reads == 3 and d.writes == 1


class TestTracer:
    def test_region_recorded(self):
        tr = Tracer(label="t")
        with tr.region("work", items=5, iteration=2) as r:
            r.count(reads=10, instructions=20)
        assert len(tr.trace) == 1
        reg = tr.trace.regions[0]
        assert reg.name == "work"
        assert reg.parallel_items == 5
        assert reg.iteration == 2
        assert reg.reads == 10

    def test_nested_region_rejected(self):
        tr = Tracer()
        with pytest.raises(RuntimeError, match="nest"):
            with tr.region("outer", items=1):
                with tr.region("inner", items=1):
                    pass
        # The aborted outer region is not recorded.
        assert len(tr.trace) == 0
        # The tracer is reusable after the failure.
        with tr.region("after", items=1):
            pass
        assert [r.name for r in tr.trace] == ["after"]

    def test_sequential_regions_allowed(self):
        tr = Tracer()
        with tr.region("a", items=1):
            pass
        with tr.region("b", items=1):
            pass
        assert len(tr.trace) == 2

    def test_atomics_per_site_array(self):
        tr = Tracer()
        with tr.region("q", items=3) as r:
            r.atomics_per_site(np.array([5, 1, 2]))
        reg = tr.trace.regions[0]
        assert reg.atomics == 8
        assert reg.atomic_max_site == 5

    def test_atomics_per_site_scalar_means_one_location(self):
        tr = Tracer()
        with tr.region("q", items=3) as r:
            r.atomics_per_site(100)
        reg = tr.trace.regions[0]
        assert reg.atomics == 100
        assert reg.atomic_max_site == 100

    def test_atomics_per_site_empty_noop(self):
        tr = Tracer()
        with tr.region("q", items=1) as r:
            r.atomics_per_site(np.array([]))
        assert tr.trace.regions[0].atomics == 0

    def test_atomics_per_site_negative_rejected(self):
        with pytest.raises(ValueError):
            RegionRecorder("x", 1).atomics_per_site(np.array([-1]))

    def test_count_ops_folds_counter(self):
        tr = Tracer()
        ops = OpCounter(reads=4, atomics=2)
        with tr.region("r", items=2) as r:
            r.count_ops(ops)
        reg = tr.trace.regions[0]
        assert reg.reads == 4
        assert reg.atomics == 2

    def test_serial_section(self):
        tr = Tracer()
        tr.serial("setup", OpCounter(writes=10), iteration=0)
        reg = tr.trace.regions[0]
        assert reg.kind == "serial"
        assert reg.parallel_items == 1
        assert reg.writes == 10

    def test_superstep_kind_propagates(self):
        tr = Tracer()
        with tr.region("ss", items=4, kind="superstep"):
            pass
        assert tr.trace.regions[0].kind == "superstep"
