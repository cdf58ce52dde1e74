"""Static analysis and contract auditing for BSP programs.

The engine-equivalence guarantee — reference, dense, and sharded
engines produce bit-identical values, message counts, and traces — only
holds for *eligible* programs: deterministic compute, a commutative/
associative combine path, no mutable state shared across shard
boundaries.  This package verifies eligibility from three angles:

* :mod:`repro.check.linter` — an AST pass over
  :class:`~repro.bsp.vertex.VertexProgram` /
  :class:`~repro.bsp.dense.DenseVertexProgram` subclasses flagging
  determinism hazards (rule catalog: :mod:`repro.check.rules`;
  suppression: ``# repro: noqa[RULE]``).
* :mod:`repro.check.contracts` — static discovery of
  :class:`~repro.bsp.combiners.Combiner` subclasses plus a
  hypothesis-driven property harness for the combiner algebra the
  shard-merge bit-identity rests on.
* the runtime write-race detector on
  :class:`~repro.bsp.parallel.ShardedBSPEngine` (``check=True``), which
  records per-worker write-sets over the shared state array each
  superstep and reports conflicting writes at the barrier.

Surfaced as the ``repro check`` CLI subcommand
(:mod:`repro.check.cli`); the rule catalog and race-detector semantics
are documented in ``docs/ANALYSIS.md``.
"""

from repro.check.contracts import (
    CombinerContract,
    DiscoveredCombiner,
    audit_combiner,
    audit_instance,
    audit_paths,
    discover_combiners,
)
from repro.check.linter import (
    LintResult,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.check.rules import RULES, Diagnostic, Rule

__all__ = [
    "RULES",
    "CombinerContract",
    "Diagnostic",
    "DiscoveredCombiner",
    "LintResult",
    "Rule",
    "audit_combiner",
    "audit_instance",
    "audit_paths",
    "discover_combiners",
    "lint_file",
    "lint_paths",
    "lint_source",
]
