"""AST-based determinism linter for BSP vertex programs.

Scans Python sources for :class:`~repro.bsp.vertex.VertexProgram` /
:class:`~repro.bsp.dense.DenseVertexProgram` subclasses (direct bases,
or transitive within one file) and checks their method bodies against
the rule catalog in :mod:`repro.check.rules`.  Pure static analysis: no
file is imported or executed, so the linter is safe to point at
arbitrary user code (``repro check path/to/programs.py``).

Scope: only methods of vertex-program classes are checked.  The rules
encode the *eligibility contract* for the engine-equivalence guarantee;
a wall-clock read in, say, the telemetry layer is legitimate, the same
read inside ``compute`` is not.

Suppression: ``# repro: noqa[REP101]`` (comma-separated ids) on the
flagged line; a bare ``# repro: noqa`` suppresses all rules on the line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.check.rules import Diagnostic

__all__ = [
    "LintResult",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Base-class names that mark a class as a reference vertex program.
_REFERENCE_BASES = frozenset({"VertexProgram"})
#: Base-class names that mark a class as a dense vertex program.
_DENSE_BASES = frozenset({"DenseVertexProgram"})

#: Fully-resolved call paths that read a clock (REP102).
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: numpy.random entry points that are deterministic when given a seed.
_SEEDABLE_RNG_CALLS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
})

#: Call paths that are nondeterministic regardless of arguments.
_ENTROPY_CALLS = frozenset({
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
})

#: Order-sensitive accumulators flagged in arc_payload (REP106).
_ORDER_SENSITIVE_CALLS = frozenset({
    "numpy.cumsum",
    "numpy.add.accumulate",
    "numpy.multiply.accumulate",
    "numpy.cumprod",
    "itertools.accumulate",
})

#: repro.bsp.frontier helpers an arc_payload may hand `selection` to (REP106).
_SELECTION_HELPERS = ("selected_arc_count", "source_values")

#: Whole-graph reads flagged in arc_payload (REP106): a shard's differ.
_WHOLE_GRAPH_READS = frozenset({
    "num_arcs", "num_edges", "row_ptr", "in_degrees", "reverse", "directed",
})

#: Method names whose call mutates the receiver in place (REP103).
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "fill", "put", "resize",
})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclass
class LintResult:
    """Findings plus bookkeeping from one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Files that could not be parsed, as (path, reason).
    errors: list[tuple[str, str]] = field(default_factory=list)
    #: Number of files scanned (parsed or not).
    files_scanned: int = 0
    #: Number of vertex-program classes inspected.
    programs_checked: int = 0
    #: Diagnostics dropped by ``# repro: noqa`` comments.
    suppressed: int = 0

    @property
    def error_count(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity == "error"
        ) + len(self.errors)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "warning")

    def extend(self, other: "LintResult") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.errors.extend(other.errors)
        self.files_scanned += other.files_scanned
        self.programs_checked += other.programs_checked
        self.suppressed += other.suppressed


# ---------------------------------------------------------------------------
# Source-level helpers
# ---------------------------------------------------------------------------


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _noqa_map(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed rule ids (``None`` = all rules) from comments."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
    return out


def _attach_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_repro_parent", None)


def _base_name(node: ast.expr) -> str | None:
    """Tail identifier of a base-class expression (``bsp.X`` -> ``X``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return None


class _ImportIndex:
    """Maps local names to dotted module paths for call resolution."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else name
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"
        # Conventional numpy alias even without an import in this file
        # (fixture snippets); a real `import numpy as np` overrides it
        # with the same mapping.
        self.aliases.setdefault("np", "numpy")

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted path of a Name/Attribute chain, import-aliases applied."""
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self.aliases.get(cur.id, cur.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _module_level_names(tree: ast.Module) -> frozenset[str]:
    """Names bound by assignments at module scope."""
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return frozenset(names)


def _local_names(func: ast.FunctionDef) -> frozenset[str]:
    """Parameter names plus names bound by plain assignment in ``func``."""
    args = func.args
    names = {
        a.arg
        for a in (
            args.posonlyargs + args.args + args.kwonlyargs
        )
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            for sub in ast.walk(node.optional_vars):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Per-file linter
# ---------------------------------------------------------------------------


class _FileLinter:
    def __init__(self, source: str, path: str) -> None:
        self.path = path
        self.tree = ast.parse(source, filename=path)
        _attach_parents(self.tree)
        self.imports = _ImportIndex(self.tree)
        self.module_names = _module_level_names(self.tree)
        self.noqa = _noqa_map(source)
        self.result = LintResult(files_scanned=1)

    # -- program-class discovery ----------------------------------------
    def _program_classes(self) -> list[tuple[ast.ClassDef, bool]]:
        """All vertex-program classes as ``(node, is_dense)``.

        A class is a program if any base's tail name is VertexProgram /
        DenseVertexProgram, or (transitively) names another program
        class defined in this file.
        """
        classes = [
            node for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        ]
        kind: dict[str, str] = {}  # class name -> "ref" | "dense"
        changed = True
        while changed:
            changed = False
            for node in classes:
                if node.name in kind:
                    continue
                for base in node.bases:
                    tail = _base_name(base)
                    if tail is None:
                        continue
                    if tail in _DENSE_BASES or kind.get(tail) == "dense":
                        kind[node.name] = "dense"
                        changed = True
                        break
                    if tail in _REFERENCE_BASES or kind.get(tail) == "ref":
                        kind[node.name] = "ref"
                        changed = True
                        break
        return [
            (node, kind[node.name] == "dense")
            for node in classes
            if node.name in kind
        ]

    # -- reporting -------------------------------------------------------
    def _report(
        self, rule: str, node: ast.AST, message: str, detail: str = ""
    ) -> None:
        line = getattr(node, "lineno", 0)
        suppressed = self.noqa.get(line)
        if suppressed is not None or line in self.noqa:
            if suppressed is None or rule in suppressed:
                self.result.suppressed += 1
                return
        self.result.diagnostics.append(
            Diagnostic(
                rule=rule,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                detail=detail,
            )
        )

    # -- entry point -----------------------------------------------------
    def run(self) -> LintResult:
        for classdef, is_dense in self._program_classes():
            self.result.programs_checked += 1
            for item in classdef.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                self._check_method(classdef, item, is_dense)
        return self.result

    def _check_method(
        self,
        classdef: ast.ClassDef,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        is_dense: bool,
    ) -> None:
        self._check_randomness(func)
        self._check_wall_clock(func)
        self._check_shared_state(classdef, func)
        self._check_set_iteration(func)
        if func.name == "arc_payload":
            self._check_arc_payload(func)
        if is_dense and func.name == "compute":
            self._check_messages_after_mutation(func)

    # -- REP101 ----------------------------------------------------------
    def _check_randomness(self, func: ast.AST) -> None:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            path = self.imports.resolve(node.func)
            if path is None:
                continue
            if path in _ENTROPY_CALLS:
                self._report(
                    "REP101", node,
                    f"{path}() is nondeterministic OS entropy; derive "
                    "values from a seeded RNG or a hash of "
                    "(vertex, superstep, seed)",
                )
            elif path in _SEEDABLE_RNG_CALLS:
                seeded = bool(node.args) and not (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                seeded = seeded or any(
                    kw.arg == "seed" and not (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is None
                    )
                    for kw in node.keywords
                )
                if not seeded:
                    self._report(
                        "REP101", node,
                        f"{path}() without a seed draws a fresh entropy "
                        "stream per run/worker; pass an explicit seed",
                    )
            elif path.startswith("numpy.random."):
                self._report(
                    "REP101", node,
                    f"{path}() uses numpy's global RNG state; use a "
                    "seeded np.random.default_rng(seed) instead",
                )
            elif path.startswith("random.") and path.count(".") == 1:
                self._report(
                    "REP101", node,
                    f"{path}() uses the random module's global RNG "
                    "state (shared, unseeded per worker); use a seeded "
                    "random.Random(seed) instance",
                )

    # -- REP102 ----------------------------------------------------------
    def _check_wall_clock(self, func: ast.AST) -> None:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            path = self.imports.resolve(node.func)
            if path in _WALL_CLOCK_CALLS:
                self._report(
                    "REP102", node,
                    f"{path}() reads the clock inside a vertex program; "
                    "results depending on it cannot be bit-identical "
                    "across runs or engines",
                )

    # -- REP103 ----------------------------------------------------------
    def _check_shared_state(
        self, classdef: ast.ClassDef, func: ast.FunctionDef
    ) -> None:
        locals_ = _local_names(func)
        in_arc_payload = func.name == "arc_payload"
        args = func.args.posonlyargs + func.args.args
        values_param = (
            args[2].arg if in_arc_payload and len(args) >= 3 else None
        )

        def is_class_ref(node: ast.expr) -> bool:
            # self.__class__ / type(self) / EnclosingClass
            if isinstance(node, ast.Attribute) and node.attr == "__class__":
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "type"
                and len(node.args) == 1
            ):
                return True
            return (
                isinstance(node, ast.Name) and node.id == classdef.name
            )

        def root_name(node: ast.expr) -> ast.expr:
            while isinstance(node, (ast.Attribute, ast.Subscript)):
                node = node.value
            return node

        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                self._report(
                    "REP103", node,
                    f"`{type(node).__name__.lower()}` statement in a "
                    "vertex program mutates state shared across "
                    "supersteps/workers",
                )
                continue

            # Stores: plain assignment targets and augmented assignment.
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                base = target
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    inner = base.value
                    if is_class_ref(inner):
                        self._report(
                            "REP103", node,
                            "assignment to class-level state inside a "
                            "vertex program; class attributes are "
                            "shared by every instance and diverge "
                            "across shard workers",
                        )
                        break
                    base = inner
                root = root_name(target)
                if (
                    isinstance(root, ast.Name)
                    and root is not target  # subscript/attr store only
                    and root.id in self.module_names
                    and root.id not in locals_
                ):
                    self._report(
                        "REP103", node,
                        f"mutation of module-level `{root.id}` inside a "
                        "vertex program; module state is per-process "
                        "and diverges across shard workers",
                    )
                if in_arc_payload:
                    self._flag_arc_payload_store(node, target, values_param)

            # In-place mutation through method calls.
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr not in _MUTATING_METHODS:
                    continue
                recv_root = root_name(node.func.value)
                if (
                    isinstance(recv_root, ast.Name)
                    and recv_root.id in self.module_names
                    and recv_root.id not in locals_
                ):
                    self._report(
                        "REP103", node,
                        f"`.{node.func.attr}()` mutates module-level "
                        f"`{recv_root.id}` inside a vertex program",
                    )
                elif in_arc_payload and (
                    (
                        isinstance(recv_root, ast.Name)
                        and recv_root.id in ("self", values_param)
                    )
                ):
                    self._report(
                        "REP103", node,
                        f"`.{node.func.attr}()` mutates "
                        f"`{recv_root.id}` state inside arc_payload, "
                        "which executes in shard workers (writes are "
                        "lost or race across shards)",
                    )

    def _flag_arc_payload_store(
        self,
        stmt: ast.AST,
        target: ast.expr,
        values_param: str | None,
    ) -> None:
        """arc_payload-only stores: self state and the values array."""
        base = target
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            inner = base.value
            if isinstance(inner, ast.Name):
                if inner.id == "self":
                    self._report(
                        "REP103", stmt,
                        "assignment to instance state inside "
                        "arc_payload; it executes in shard workers, so "
                        "the write is lost on the parent and applied "
                        "once per worker",
                    )
                    return
                if values_param is not None and inner.id == values_param:
                    self._report(
                        "REP103", stmt,
                        f"write to the shared `{values_param}` array "
                        "inside arc_payload races across shard workers "
                        "(run the sharded engine with check=True to "
                        "catch this at runtime)",
                    )
                    return
            base = inner

    # -- REP104 ----------------------------------------------------------
    def _check_messages_after_mutation(self, func: ast.FunctionDef) -> None:
        """Flag the *first* ``ctx.messages`` read reachable after a
        ``ctx.values`` mutation.

        Statement-order analysis, not line numbers: a branch that ends
        in ``return``/``raise`` does not leak its mutations past the
        branch, and the RHS of an assignment evaluates before the store
        (so ``values[:] = f(ctx.messages)`` is safe).  ``ctx.messages``
        caches after the first access, so only the first read matters.
        """
        args = func.args.posonlyargs + func.args.args
        if len(args) < 2:
            return
        ctx = args[1].arg
        alias_names: set[str] = set()
        messages_read = False  # first read already seen (cache warm)

        def expr_is_values(node: ast.expr) -> bool:
            if isinstance(node, ast.Name):
                return node.id in alias_names
            return (
                isinstance(node, ast.Attribute)
                and node.attr == "values"
                and isinstance(node.value, ast.Name)
                and node.value.id == ctx
            )

        def check_reads(node: ast.AST, mutated: int | None) -> None:
            nonlocal messages_read
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "messages"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == ctx
                    and isinstance(sub.ctx, ast.Load)
                ):
                    if mutated is not None and not messages_read:
                        self._report(
                            "REP104", sub,
                            "ctx.messages first read after ctx.values "
                            f"was mutated on line {mutated}; lazy "
                            "delivery evaluates payloads from the "
                            "current values, so read messages before "
                            "writing state",
                        )
                    messages_read = True

        def stmt_mutations(stmt: ast.stmt) -> bool:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                if expr_is_values(base) and target is not base:
                    return True
            return False

        def track_aliases(stmt: ast.stmt) -> None:
            if not isinstance(stmt, ast.Assign):
                return
            pairs: list[tuple[ast.expr, ast.expr]] = []
            for target in stmt.targets:
                if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                    stmt.value, (ast.Tuple, ast.List)
                ) and len(target.elts) == len(stmt.value.elts):
                    pairs.extend(zip(target.elts, stmt.value.elts))
                else:
                    pairs.append((target, stmt.value))
            for target, value in pairs:
                if isinstance(target, ast.Name) and expr_is_values(value):
                    alias_names.add(target.id)

        def ends_in_jump(stmts: list[ast.stmt]) -> bool:
            return bool(stmts) and isinstance(
                stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
            )

        def collect_mutates(stmts: list[ast.stmt]) -> int | None:
            """Any mutation line in a subtree (loop-carried pre-pass)."""
            for stmt in stmts:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.stmt) and stmt_mutations(sub):
                        return sub.lineno
            return None

        def scan(
            stmts: list[ast.stmt], mutated: int | None
        ) -> int | None:
            for stmt in stmts:
                if isinstance(stmt, ast.If):
                    check_reads(stmt.test, mutated)
                    m_body = scan(stmt.body, mutated)
                    m_else = scan(stmt.orelse, mutated)
                    if not ends_in_jump(stmt.body):
                        mutated = mutated or m_body
                    if not ends_in_jump(stmt.orelse):
                        mutated = mutated or m_else
                elif isinstance(stmt, (ast.For, ast.While)):
                    head = (
                        stmt.iter if isinstance(stmt, ast.For)
                        else stmt.test
                    )
                    check_reads(head, mutated)
                    # A mutation anywhere in the body precedes reads in
                    # later iterations: pre-collect, then scan.
                    loop_mut = mutated or collect_mutates(stmt.body)
                    scan(stmt.body, loop_mut)
                    mutated = loop_mut
                    mutated = mutated or scan(stmt.orelse, mutated)
                elif isinstance(stmt, ast.Try):
                    mutated = scan(stmt.body, mutated)
                    for handler in stmt.handlers:
                        mutated = mutated or scan(handler.body, mutated)
                    mutated = scan(stmt.orelse, mutated)
                    mutated = scan(stmt.finalbody, mutated)
                elif isinstance(stmt, ast.With):
                    for item in stmt.items:
                        check_reads(item.context_expr, mutated)
                    mutated = scan(stmt.body, mutated)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)
                ):
                    continue  # deferred execution: out of scope
                else:
                    # Simple statement: RHS/expression reads evaluate
                    # before any store this statement performs.
                    check_reads(stmt, mutated)
                    track_aliases(stmt)
                    if stmt_mutations(stmt):
                        mutated = mutated or stmt.lineno
            return mutated

        scan(func.body, None)

    # -- REP105 ----------------------------------------------------------
    def _check_set_iteration(self, func: ast.AST) -> None:
        def is_set_expr(node: ast.expr) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                return node.func.id in ("set", "frozenset")
            return False

        iters: list[ast.expr] = []
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if is_set_expr(it):
                self._report(
                    "REP105", it,
                    "iteration over a set has no deterministic order; "
                    "iterate sorted(...) or an array instead",
                )

    # -- REP106 ----------------------------------------------------------
    def _check_arc_payload(self, func: ast.FunctionDef) -> None:
        args = func.args.posonlyargs + func.args.args
        if len(args) < 4:
            return
        graphname, selname = args[1].arg, args[3].arg

        # The blessed use is arr[selection]: the selection must be the
        # *entire* slice expression (or one element of a tuple slice for
        # multi-axis indexing).  Arithmetic on it inside a slice —
        # arr[selection + 1] — is still representation-dependent.
        slice_nodes: set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript):
                slice_nodes.add(id(node.slice))
                if isinstance(node.slice, ast.Tuple):
                    for element in node.slice.elts:
                        slice_nodes.add(id(element))

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                path = self.imports.resolve(node.func)
                if path in _ORDER_SENSITIVE_CALLS:
                    self._report(
                        "REP106", node,
                        f"{path}() is an order-sensitive accumulation "
                        "over per-arc payloads; the fold across arcs "
                        "must go through the engine's combiner",
                    )
            if (
                isinstance(node, ast.Attribute) and node.attr in _WHOLE_GRAPH_READS
                and isinstance(node.value, ast.Name) and node.value.id == graphname
            ):
                self._report(
                    "REP106", node,
                    f"`{graphname}.{node.attr}` describes the whole graph, "
                    "but a sharded worker's `graph` is its shard's subgraph; "
                    "read arcs through the selection, vertices at their sources",
                )
            if not (
                isinstance(node, ast.Name)
                and node.id == selname
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            if id(node) in slice_nodes:
                continue
            parent = _parent(node)
            if isinstance(parent, ast.Call) and node in parent.args:
                path = self.imports.resolve(parent.func) or ""
                if path.endswith(_SELECTION_HELPERS):
                    continue
                self._report(
                    "REP106", node,
                    f"`{selname}` passed to "
                    f"{path or 'a function'}(); the selection is a "
                    "mask, an index array or a slice depending on the "
                    "flood — use it only as an index or via "
                    "selected_arc_count() / source_values()",
                )
            else:
                self._report(
                    "REP106", node,
                    f"`{selname}` used as a value (arithmetic, len, "
                    "attribute access); the mask, index-array and slice "
                    "forms disagree under every such use — index with "
                    "it or call selected_arc_count()",
                )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> LintResult:
    """Lint one source string; parse failures land in ``result.errors``."""
    try:
        linter = _FileLinter(source, path)
    except SyntaxError as exc:
        result = LintResult(files_scanned=1)
        result.errors.append((path, f"syntax error: {exc.msg} "
                              f"(line {exc.lineno})"))
        return result
    return linter.run()


def lint_file(path: str | Path) -> LintResult:
    """Lint one file."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        result = LintResult(files_scanned=1)
        result.errors.append((str(path), str(exc)))
        return result
    return lint_source(source, str(path))


def lint_paths(paths: Iterable[str | Path]) -> LintResult:
    """Lint every Python file under ``paths`` (dirs recursed)."""
    total = LintResult()
    for path in iter_python_files(paths):
        total.extend(lint_file(path))
    total.diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return total
