"""Scope census: every ``repro`` module is reached from a root, every
doc reference names something that exists, and every example imports.

The census walks imports statically (``ast`` only; nothing under
``src/`` is imported by it).  The roots are ``repro.cli`` (every
experiment, ablation and subcommand), the ``repro`` public API, and
every ``repro`` import in ``perf/`` and ``tools/``.  ``from pkg import
X`` reaches the submodule that defines ``X``; reaching a subpackage
does not follow its ``__init__``'s own re-exports, so a module that
only a package ``__init__`` imports counts as unreached.  A name table
in a class body (``GraphCT._KERNELS``) reaches an entry's function only
once reached code outside a subpackage ``__init__`` names its key, as an
attribute (``wf.sssp(...)``) or a string (``wf.run("sssp")``).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

ROOT_MODULES = ("repro", "repro.cli")
ROOT_SCRIPT_DIRS = ("perf", "tools")

#: Unreached modules that stay, each with the reason it earns its place.
ALLOWED = {
    "repro.graphct.reference": (
        "XMT-C idiom BFS / CC oracle the vectorized GraphCT kernels are "
        "tested against"
    ),
    "repro.xmt.mechanistic": (
        "mechanistic cross-check of the analytic cost model "
        "(docs/MODEL.md §4, validation 1)"
    ),
    "repro.xmt.streams": (
        "cycle-level stream simulator behind the saturation-law check "
        "(docs/MODEL.md §4, validation 2)"
    ),
}


def _module_index() -> dict[str, Path]:
    index = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        index[".".join(parts)] = path
    return index


def _repro_imports(tree: ast.AST):
    """``(module, name, bound)`` for every ``repro`` import anywhere in
    ``tree``; ``name`` is None for a plain ``import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] == "repro":
                for alias in node.names:
                    yield module, alias.name, alias.asname or alias.name


def _table_dicts(tree: ast.AST):
    """The dict literals assigned in class bodies."""
    for cls in ast.walk(tree):
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                value, ast.Dict
            ):
                yield value


def _name_tables(tree: ast.AST) -> dict[str, str]:
    """``{bound name: key}`` for the string-keyed name tables assigned
    in class bodies."""
    return {
        name.id: key.value
        for table in _table_dicts(tree)
        for key, name in zip(table.keys, table.values)
        if isinstance(key, ast.Constant) and isinstance(name, ast.Name)
    }


def _names_used(tree: ast.AST) -> set[str]:
    """Attribute names and string constants, the tables' own keys
    excepted: how code names a table entry."""
    keys = {id(k) for table in _table_dicts(tree) for k in table.keys}
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in keys
    }


class _Census:
    def __init__(self):
        self.index = _module_index()
        self.trees = {
            name: ast.parse(path.read_text(), str(path))
            for name, path in self.index.items()
        }
        self.reached: set[str] = set()
        #: (key, module) table entries no reached code has named yet.
        self.deferred: list[tuple[str, str]] = []

    def is_package(self, module: str) -> bool:
        return self.index[module].name == "__init__.py"

    def resolve(self, module: str, name: str) -> str:
        """The module that defines ``name`` as seen from ``module``."""
        if f"{module}.{name}" in self.index:
            return f"{module}.{name}"
        if self.is_package(module):
            for node in self.trees[module].body:
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            return self.resolve(node.module, alias.name)
        return module

    def visit_imports(self, tree: ast.AST) -> None:
        table = _name_tables(tree)
        loads = Counter(
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
        )
        for module, name, bound in _repro_imports(tree):
            if name is None:
                self.reach(module)
            elif bound in table and loads[bound] == 1:
                self.deferred.append(
                    (table[bound], self.resolve(module, name))
                )
            else:
                self.reach(self.resolve(module, name))

    def reach(self, module: str) -> None:
        if module in self.reached:
            return
        self.reached.add(module)
        if not self.is_package(module) or module in ROOT_MODULES:
            self.visit_imports(self.trees[module])

    def unreached(self) -> set[str]:
        for root in ROOT_MODULES:
            self.reach(root)
        scripts = [
            ast.parse(path.read_text(), str(path))
            for directory in ROOT_SCRIPT_DIRS
            for path in sorted((REPO / directory).rglob("*.py"))
        ]
        for tree in scripts:
            self.visit_imports(tree)
        while True:
            used = set().union(
                *map(_names_used, scripts),
                *(
                    _names_used(self.trees[m]) for m in self.reached
                    if m in ROOT_MODULES or not self.is_package(m)
                ),
            )
            named = [m for key, m in self.deferred
                     if key in used and m not in self.reached]
            if not named:
                break
            for module in named:
                self.reach(module)
        return {
            m for m in self.index
            if m not in self.reached and not self.is_package(m)
        }


def test_census_every_module_is_reached_or_allowed():
    unreached = _Census().unreached()
    new = sorted(unreached - ALLOWED.keys())
    assert not new, (
        "modules no root reaches: "
        + ", ".join(new)
        + ".  Reach each from a root (repro.cli, the repro API, perf/, "
        "tools/), add it to ALLOWED with the reason it stays, or delete it."
    )
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"ALLOWED names reached or missing modules: {stale}"


DOCS = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
     REPO / "examples" / "README.md"]
    + list((REPO / "docs").glob("*.md"))
)
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_PY_FILE = re.compile(r"[\w./-]*\w\.py\b")
#: ``python -m repro.cli <name>`` or `` `repro <name>``; a placeholder
#: such as ``ablation-<name>`` names nothing.
_CLI_NAME = re.compile(r"(?:python -m repro\.cli|`repro) ([a-z][\w-]*\w)(?![\w<-])")
#: ``repro`` commands outside the experiment table.
SUBCOMMANDS = {"all", "serve", "check", "top", "version"}


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _file_exists(ref: str, doc: Path, tree: list[str]) -> bool:
    if ref.startswith(("./", "../")):
        return (doc.parent / ref).is_file()
    return any(p == ref or p.endswith("/" + ref) for p in tree)


@pytest.mark.parametrize(
    "doc", DOCS, ids=[str(d.relative_to(REPO)) for d in DOCS]
)
def test_doc_references_resolve(doc):
    """Dotted ``repro.*`` names resolve to a module or attribute,
    ``*.py`` names exist in the tree and ``repro <name>`` commands are
    experiment-table keys or subcommands.  History files are exempt."""
    from repro.cli import EXPERIMENTS

    text = doc.read_text()
    tree = [
        p.relative_to(REPO).as_posix()
        for p in REPO.rglob("*.py")
        if ".git" not in p.parts
    ]
    stale = sorted(
        {m.group() for m in _DOTTED.finditer(text)
         if not _resolves(m.group())}
        | {m.group() for m in _PY_FILE.finditer(text)
           if not _file_exists(m.group(), doc, tree)}
        | {f"repro {m.group(1)}" for m in _CLI_NAME.finditer(text)
           if m.group(1) not in EXPERIMENTS.keys() | SUBCOMMANDS}
    )
    assert not stale, f"{doc.name} names what does not exist: {stale}"


def test_doc_index_names_every_experiment():
    """EXPERIMENTS.md names every key of the experiment table, as a
    ``repro`` command or in backticks."""
    from repro.cli import EXPERIMENTS

    text = (REPO / "EXPERIMENTS.md").read_text()
    named = {m.group(1) for m in _CLI_NAME.finditer(text)}
    named |= set(re.findall(r"`([\w-]+)`", text))
    missing = sorted(EXPERIMENTS.keys() - named)
    assert not missing, f"EXPERIMENTS.md does not name: {missing}"


EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_example_imports(path):
    """Importing an example resolves its imports; ``main()`` stays
    behind the ``__main__`` guard."""
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
