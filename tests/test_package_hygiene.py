"""Package hygiene: every module imports, every __all__ name resolves,
the README quickstart actually runs, docstrings exist on public API."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__: {name}"


def test_package_reexports_are_in_their_submodules_all():
    """A name a package ``__init__`` imports from one of its submodules
    is part of that submodule's public API: ``from submodule import *``
    must bring it too."""
    packages = ["repro"] + [
        name for name in MODULES
        if hasattr(importlib.import_module(name), "__path__")
    ]
    missing = []
    for package in packages:
        init = importlib.import_module(package)
        for node in ast.parse(inspect.getsource(init)).body:
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                source = ".".join(filter(None, (base, node.module)))
            else:
                source = node.module or ""
            if not source.startswith(package + "."):
                continue
            submodule = importlib.import_module(source)
            exported = getattr(submodule, "__all__", None)
            if exported is None:
                continue
            missing += [
                f"{source}.{alias.name}"
                for alias in node.names
                if alias.name not in exported
                and not inspect.ismodule(getattr(submodule, alias.name))
            ]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    """Every name a module exports must carry a docstring."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if callable(obj) and getattr(obj, "__module__", "").startswith(
            "repro"
        ):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


def _extract_python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.S)


def test_readme_quickstart_runs():
    readme = Path(repro.__file__).parents[2] / "README.md"
    blocks = _extract_python_blocks(readme.read_text())
    assert blocks, "README must contain python examples"
    namespace: dict = {}
    for block in blocks:
        # Shrink the quickstart graph so the doc test stays fast.
        block = block.replace("scale=14", "scale=10")
        exec(compile(block, "<README>", "exec"), namespace)
    assert "graph" in namespace


def test_top_level_version():
    assert re.match(r"\d+\.\d+\.\d+", repro.__version__)


def test_module_docstring_quickstart_runs():
    lines = repro.__doc__.splitlines()
    start = lines.index("Quick start::") + 1
    code_lines = []
    for line in lines[start:]:
        if line.startswith("    "):
            code_lines.append(line[4:])
        elif line.strip() == "":
            code_lines.append("")
        else:
            break
    code = "\n".join(code_lines).replace("scale=14", "scale=10")
    assert "rmat" in code
    exec(compile(code, "<repro.__doc__>", "exec"), {})
