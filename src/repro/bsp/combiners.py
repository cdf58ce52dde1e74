"""Message combiners.

Pregel lets the runtime fold messages aimed at the same vertex into one
when the program only consumes a reduction of them (min label, summed
rank...).  The paper's runtime does *not* combine — every message is
materialized, which is precisely where the BSP write blow-up comes from —
so combiners are off by default here; the combiner ablation
(`repro ablation-combiner`) measures what the paper's numbers would look
like with them on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = ["Combiner", "MinCombiner", "MaxCombiner", "SumCombiner"]


class Combiner(ABC):
    """Associative, commutative fold over messages to one vertex."""

    @abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Fold two messages into one."""


class MinCombiner(Combiner):
    """Keep only the smallest message (connected components, BFS, SSSP)."""

    def combine(self, a: Any, b: Any) -> Any:
        return a if a <= b else b


class MaxCombiner(Combiner):
    """Keep only the largest message."""

    def combine(self, a: Any, b: Any) -> Any:
        return a if a >= b else b


class SumCombiner(Combiner):
    """Sum messages (PageRank contributions)."""

    def combine(self, a: Any, b: Any) -> Any:
        return a + b
