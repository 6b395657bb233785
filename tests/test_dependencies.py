"""fpcert depends on numpy alone: every module imports only the standard
library, numpy and fpcert itself.  Every name a module exports exists."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import fpcert

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fpcert"}
MODULES = sorted(Path(fpcert.__file__).parent.glob("*.py"))


def imported_roots(path):
    """Top-level names of the absolute imports in a source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"metrics", "problems", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_fpcert(path):
    assert imported_roots(path) - ALLOWED == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "fpcert" if path.stem == "__init__" else f"fpcert.{path.stem}"
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"
