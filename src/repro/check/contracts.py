"""Combiner contract auditor: commutativity / associativity / idempotence.

Bit-identity across shard merge orders rests on the combiner algebra:
the sharded engine folds per-worker partial reductions in shard order,
the dense engine folds all messages in one arc-order pass, and the
reference engine folds per vertex in delivery order.  The three agree
for every input iff the fold is commutative and associative; idempotent
folds (min/max) additionally tolerate redelivery, which checkpoint
replay exploits.

:func:`discover_combiners` finds :class:`~repro.bsp.combiners.Combiner`
subclasses statically (AST scan — nothing is imported);
:func:`audit_combiner` / :func:`audit_paths` then load the discovered
classes and property-test the algebra, driving the value generation
with `hypothesis <https://hypothesis.readthedocs.io>`_ when it is
installed and falling back to a deterministic sample grid otherwise
(same verdicts for the in-tree combiners either way).

Float semantics: IEEE-754 addition is commutative but *not*
associative — not even within a tolerance band once cancellation is
involved (``(1e300 + -1e300) + 1 != 1e300 + (-1e300 + 1)``) — and the
engines document exactly this slack for float sums across shard
boundaries.  The *gating* contract is therefore exact commutativity
(ints and floats) plus exact associativity on integers; float
associativity is recorded separately as the informational flags
:attr:`CombinerContract.float_associative` (within ``rel_tol=1e-9``)
and :attr:`CombinerContract.float_exact` (bit-exact) — the flags that
tell you whether a combiner's sharded merges are bit-identical,
ulp-close, or cancellation-sensitive.
"""

from __future__ import annotations

import ast
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.check.linter import iter_python_files

__all__ = [
    "CombinerContract",
    "DiscoveredCombiner",
    "audit_combiner",
    "audit_instance",
    "audit_paths",
    "discover_combiners",
]

#: Relative tolerance for float associativity (the engines' documented
#: last-ulp shard-boundary slack, with margin).
FLOAT_REL_TOL = 1e-9

_INT_SAMPLES = (
    -(2**62), -(2**31), -97, -2, -1, 0, 1, 2, 3, 5, 97, 2**31 - 1, 2**62
)
_FLOAT_SAMPLES = (
    -1e300, -1e16, -3.5, -1.0, -1e-9, 0.0, 1e-9, 0.25, 1.0, 3.0,
    1e16, 1e300, math.pi,
)


@dataclass(frozen=True)
class DiscoveredCombiner:
    """A combiner class found by the static scan."""

    path: str
    line: int
    name: str
    #: Dotted module name when the file maps into an importable package
    #: (``src/repro/bsp/combiners.py`` -> ``repro.bsp.combiners``).
    module: str | None = None


@dataclass
class CombinerContract:
    """Audit verdict for one combiner class."""

    name: str
    path: str
    line: int
    #: Exact commutativity over ints and floats (gating).
    commutative: bool = True
    #: Exact associativity over ints (gating).
    associative: bool = True
    #: Whether ``combine(a, a) == a`` (informational: sum-style
    #: combiners are legitimately non-idempotent, but redelivery —
    #: e.g. checkpoint replay — is only safe for idempotent folds).
    idempotent: bool = True
    #: Associativity on floats within ``rel_tol=1e-9`` (informational;
    #: False means cancellation-sensitive — shard merge order can move
    #: the result by more than an ulp band).
    float_associative: bool = True
    #: Bit-exact associativity on floats (informational; False for
    #: float sums: sharded merges are then ulp-close, not
    #: bit-identical).
    float_exact: bool = True
    #: First counterexample per failed property, as readable text.
    counterexamples: dict[str, str] = field(default_factory=dict)
    #: Why the audit could not run (import/instantiation failure or a
    #: non-numeric message domain).  Such combiners are reported as
    #: skipped, not failed.
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Gating contract holds (commutative + int-associative)."""
        return self.error is None and self.commutative and self.associative

    @property
    def skipped(self) -> bool:
        """Audit could not run (reported, but never gates)."""
        return self.error is not None

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "ok": self.ok,
            "skipped": self.skipped,
            "commutative": self.commutative,
            "associative": self.associative,
            "idempotent": self.idempotent,
            "float_associative": self.float_associative,
            "float_exact": self.float_exact,
            "counterexamples": dict(self.counterexamples),
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# Static discovery
# ---------------------------------------------------------------------------


def _module_name_for(path: Path) -> str | None:
    """Dotted module name if ``path`` sits inside a package on sys.path."""
    parts: list[str] = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if len(parts) == 1:
        return None
    return ".".join(reversed(parts))


def discover_combiners(
    paths: Iterable[str | Path],
) -> list[DiscoveredCombiner]:
    """Find ``Combiner`` subclasses under ``paths`` without importing.

    Matches any class whose base list names ``Combiner`` (directly or as
    an attribute tail, e.g. ``combiners.Combiner``), plus transitive
    subclasses within the same file.
    """
    found: list[DiscoveredCombiner] = []
    for file in iter_python_files(paths):
        try:
            tree = ast.parse(
                file.read_text(encoding="utf-8"), filename=str(file)
            )
        except (OSError, SyntaxError, UnicodeDecodeError):
            continue
        classes = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        combiner_names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in classes:
                if node.name in combiner_names:
                    continue
                for base in node.bases:
                    tail = (
                        base.id if isinstance(base, ast.Name)
                        else base.attr if isinstance(base, ast.Attribute)
                        else None
                    )
                    if tail == "Combiner" or tail in combiner_names:
                        combiner_names.add(node.name)
                        changed = True
                        break
        module = _module_name_for(file) if combiner_names else None
        for node in classes:
            if node.name in combiner_names:
                found.append(
                    DiscoveredCombiner(
                        path=str(file),
                        line=node.lineno,
                        name=node.name,
                        module=module,
                    )
                )
    found.sort(key=lambda c: (c.path, c.line))
    return found


def _load_class(disc: DiscoveredCombiner) -> type:
    """Import the module behind a discovery and fetch the class."""
    if disc.module is not None:
        try:
            mod = importlib.import_module(disc.module)
            return getattr(mod, disc.name)
        except Exception:
            pass  # fall through to path-based loading
    unique = f"_repro_check_{abs(hash(disc.path)):x}"
    mod = sys.modules.get(unique)
    if mod is None:
        spec = importlib.util.spec_from_file_location(unique, disc.path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {disc.path}")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[unique] = mod
        try:
            spec.loader.exec_module(mod)
        except BaseException:
            sys.modules.pop(unique, None)
            raise
    return getattr(mod, disc.name)


# ---------------------------------------------------------------------------
# Property harness
# ---------------------------------------------------------------------------


def _find_counterexample(
    prop: Callable[..., bool], arity: int, use_floats: bool
) -> tuple | None:
    """First input tuple violating ``prop``, or None.

    Uses hypothesis when available (wider search, shrunk examples),
    derandomized so a verdict does not change from run to run;
    otherwise sweeps the deterministic sample grid.
    """
    try:
        from hypothesis import find, settings, strategies as st
        from hypothesis.errors import NoSuchExample
    except ImportError:
        samples = _FLOAT_SAMPLES if use_floats else _INT_SAMPLES
        for combo in itertools.product(samples, repeat=arity):
            if not prop(*combo):
                return combo
        return None
    if use_floats:
        value = st.floats(allow_nan=False, allow_infinity=False)
    else:
        value = st.integers(min_value=-(2**63), max_value=2**63 - 1)
    try:
        combo = find(
            st.tuples(*([value] * arity)),
            lambda t: not prop(*t),
            settings=settings(
                max_examples=200, database=None, deadline=None,
                derandomize=True,
            ),
        )
    except NoSuchExample:
        return None
    return tuple(combo)


def _eq_exact(a: Any, b: Any) -> bool:
    return bool(a == b)


def _eq_close(a: Any, b: Any) -> bool:
    try:
        return bool(
            math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
        )
    except TypeError:
        return bool(a == b)


def audit_combiner(disc: DiscoveredCombiner) -> CombinerContract:
    """Property-test one discovered combiner's algebra."""
    contract = CombinerContract(
        name=disc.name, path=disc.path, line=disc.line
    )
    try:
        cls = _load_class(disc)
    except BaseException as exc:  # noqa: BLE001 - report, don't crash
        contract.error = f"import failed: {exc!r}"
        return contract
    if getattr(cls, "__abstractmethods__", None):
        contract.error = "abstract class (not instantiable)"
        return contract
    try:
        combiner = cls()
    except Exception as exc:
        contract.error = (
            f"not zero-arg constructible ({exc!r}); audit it directly "
            "with repro.check.contracts.audit_instance"
        )
        return contract
    return audit_instance(
        combiner.combine, name=disc.name, path=disc.path, line=disc.line
    )


def audit_instance(
    combine: Callable[[Any, Any], Any],
    *,
    name: str = "<combine>",
    path: str = "<runtime>",
    line: int = 0,
) -> CombinerContract:
    """Property-test a bare ``combine(a, b)`` callable."""
    contract = CombinerContract(name=name, path=path, line=line)

    def guarded(prop: Callable[..., bool]) -> Callable[..., bool]:
        def run(*vals: Any) -> bool:
            try:
                return prop(*vals)
            except Exception:
                return False
        return run

    def commutes(a: Any, b: Any) -> bool:
        return _eq_exact(combine(a, b), combine(b, a))

    def assoc_exact(a: Any, b: Any, c: Any) -> bool:
        return _eq_exact(combine(combine(a, b), c), combine(a, combine(b, c)))

    def assoc_close(a: Any, b: Any, c: Any) -> bool:
        return _eq_close(combine(combine(a, b), c), combine(a, combine(b, c)))

    def idem(a: Any) -> bool:
        return _eq_exact(combine(a, a), a)

    try:
        combine(1, 2)
    except Exception as exc:
        contract.error = f"combine(1, 2) raised {exc!r}"
        return contract

    for use_floats in (False, True):
        domain = "floats" if use_floats else "ints"
        cex = _find_counterexample(guarded(commutes), 2, use_floats)
        if cex is not None:
            contract.commutative = False
            contract.counterexamples.setdefault(
                "commutativity",
                f"{domain}: combine{cex} != combine{tuple(reversed(cex))}",
            )
        cex = _find_counterexample(guarded(idem), 1, use_floats)
        if cex is not None:
            contract.idempotent = False

    cex = _find_counterexample(guarded(assoc_exact), 3, False)
    if cex is not None:
        contract.associative = False
        a, b, c = cex
        contract.counterexamples.setdefault(
            "associativity",
            f"ints: combine(combine({a}, {b}), {c}) != "
            f"combine({a}, combine({b}, {c}))",
        )

    # Float associativity: informational tiers, never gating.
    cex = _find_counterexample(guarded(assoc_close), 3, True)
    contract.float_associative = cex is None
    if contract.float_associative:
        cex = _find_counterexample(guarded(assoc_exact), 3, True)
        contract.float_exact = cex is None
    else:
        contract.float_exact = False
    return contract


def audit_paths(paths: Iterable[str | Path]) -> list[CombinerContract]:
    """Discover and audit every combiner under ``paths``."""
    return [audit_combiner(disc) for disc in discover_combiners(paths)]
