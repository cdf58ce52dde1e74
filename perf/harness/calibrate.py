"""Host-speed calibration: report CPU-bound times at a reference speed.

The sandbox this benchmark runs in is a small VM whose speed drifts by
15-30 % over minutes and blips by a third for seconds; identical work
measured twice differs by more than any bound worth setting.  The drift
is a common factor: a fixed kernel slows down with the workload.  So the
engine workloads run :meth:`Calibrator.kernel` after every unit, outside
the unit's clock, and multiply each unit's time by ``REFERENCE_S`` ÷ the
kernel's time around that unit.  On a quiet baseline host the factor is
1; raw values and the factor are printed beside the reported ones.

The kernel is frozen with the benchmark and imports nothing from
``src/``, so no change to the program can move it.  It is interpreter-
bound Python over cache-resident data on purpose: a memory-bound kernel
has a speed of its own in every process (it depends on which physical
pages its arrays landed on), which would add noise instead of removing
the host's.
"""

from __future__ import annotations

import time

from harness.stats import median

__all__ = ["REFERENCE_S", "Calibrator"]

#: The kernel's time on the baseline host while it is quiet.
REFERENCE_S = 0.0020


class Calibrator:
    """Samples the kernel; turns raw seconds into reference-speed seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @staticmethod
    def kernel() -> int:
        acc = 0
        for i in range(40000):
            acc += i * i
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """Reference ÷ observed kernel time over the whole pass."""
        return REFERENCE_S / median(self.samples)

    def factor_around(self, unit: int, reach: int = 2) -> float:
        """The same from the ``reach`` samples before and after ``unit``.

        Expects one sample before unit 0 and one after every unit.  Blips
        last seconds, not a pass, so each unit gets its own factor.
        """
        after = unit + 1
        window = self.samples[max(after - reach, 0): after + reach]
        return REFERENCE_S / median(window)
