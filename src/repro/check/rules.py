"""Rule catalog and diagnostic records for ``repro check``.

The whole reproduction rests on one invariant: the reference, dense,
and sharded engines produce bit-identical values, message counts, and
traces for any vertex program.  That guarantee only holds for programs
that are *eligible* — deterministic compute, no hidden wall-clock or RNG
inputs, no mutable state shared across shard boundaries, an
order-insensitive combine path.  Each rule below names one way user code
silently forfeits the guarantee; the linter (:mod:`repro.check.linter`)
detects them statically over :class:`~repro.bsp.vertex.VertexProgram` /
:class:`~repro.bsp.dense.DenseVertexProgram` subclasses.

Suppression: append ``# repro: noqa[RULE-ID]`` (comma-separated list
allowed, e.g. ``# repro: noqa[REP101,REP105]``) to the flagged line.  A
bare ``# repro: noqa`` suppresses every rule on the line; prefer the
bracketed form so the justification stays reviewable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "RULES",
    "SEVERITIES",
    "Diagnostic",
    "Rule",
]

#: Diagnostic severities, most severe first.  ``error`` findings fail
#: ``repro check``; ``warning`` findings are reported but do not gate.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Rule:
    """One determinism/race hazard the linter knows how to detect."""

    id: str
    title: str
    severity: str
    summary: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")


_RULE_LIST = (
    Rule(
        id="REP101",
        title="unseeded randomness",
        severity="error",
        summary=(
            "Unseeded RNG in a vertex program (random module globals, "
            "numpy legacy np.random.* globals, or default_rng()/"
            "RandomState()/Random() without a seed).  Every run — and "
            "every shard worker — draws a different stream, so results "
            "diverge between engines and across worker counts.  Seed "
            "explicitly (np.random.default_rng(seed)) or derive values "
            "from a deterministic hash of (vertex, superstep, seed)."
        ),
    ),
    Rule(
        id="REP102",
        title="wall-clock read",
        severity="error",
        summary=(
            "Wall-clock or monotonic-clock read inside a vertex program "
            "(time.time, perf_counter, datetime.now, ...).  Clock values "
            "differ per run and per worker process, so any result that "
            "depends on them cannot be bit-identical across engines.  "
            "Timing belongs in the telemetry layer (ctx.counter), not in "
            "program state."
        ),
    ),
    Rule(
        id="REP103",
        title="shared-state mutation",
        severity="error",
        summary=(
            "Mutation of module/class state inside compute/arc_payload, "
            "or of instance/values state inside arc_payload.  "
            "arc_payload executes inside shard workers: writes to self, "
            "to the shared values array, or to module/class globals are "
            "lost, applied once per worker, or race with other shards — "
            "all three break the bit-identity contract.  Keep "
            "arc_payload pure; mutate per-vertex state only through "
            "ctx.values in compute."
        ),
    ),
    Rule(
        id="REP104",
        title="messages read after state mutation",
        severity="error",
        summary=(
            "ctx.messages first read after ctx.values was already "
            "mutated in the same compute.  Delivery is lazy: payloads "
            "are evaluated from the *current* values on first access, "
            "so a read after mutation delivers messages computed from "
            "post-update state — different from the reference engine's "
            "eager delivery.  Read ctx.messages (or alias it) before "
            "writing ctx.values."
        ),
    ),
    Rule(
        id="REP105",
        title="unordered-set iteration",
        severity="warning",
        summary=(
            "Iteration over a set/frozenset inside a vertex program.  "
            "Set iteration order depends on insertion history and hash "
            "randomization, so any order-sensitive fold over it (float "
            "accumulation, first-wins selection) differs between runs "
            "and engines.  Iterate sorted(...) or a NumPy array instead."
        ),
    ),
    Rule(
        id="REP106",
        title="selection or graph misuse / order-sensitive accumulation",
        severity="error",
        summary=(
            "arc_payload treats the opaque `selection` argument as "
            "numbers (arithmetic, len(), .sum(), flatnonzero), or "
            "applies an order-sensitive accumulator (cumsum, "
            "accumulate, builtin sum) to per-arc payloads.  The "
            "selection is a boolean mask or an int64 index array "
            "depending on the per-superstep frontier decision, or the "
            "slice over the whole arc array when every arc is selected "
            "— the three forms only agree when used as an opaque index "
            "(arr[selection]) or via repro.bsp.frontier's "
            "selected_arc_count / source_values; anything else makes "
            "sparse, dense and all-arc supersteps diverge.  Likewise "
            "`graph` is the arcs being delivered — one shard's subgraph on "
            "the sharded engine — so whole-graph reads (num_arcs, num_edges, "
            "row_ptr, in_degrees(), reverse(), directed) vary by partition."
        ),
    ),
)

#: Rule catalog keyed by rule id.
RULES: dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Extra context (e.g. the offending expression), may be empty.
    detail: str = field(default="")

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    def format(self) -> str:
        """``path:line:col: REPxxx [severity] message`` (ruff-style)."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"[{self.severity}] {self.message}"
        )

    def to_json(self) -> dict[str, object]:
        """JSON-safe record for ``repro check --format json``."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "detail": self.detail,
        }
