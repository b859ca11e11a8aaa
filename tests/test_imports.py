"""Every name a module of the package imports is used there, and no module imports another's private names
(no linter needed: the stdlib `ast`)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qcoin").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # the names a package re-exports
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from .errors import InvalidParameter, StepCountTooLarge\nraise InvalidParameter('x')\n")
    assert unused_imports(tree) == ["line 1: StepCountTooLarge"]


def private_imports(tree: ast.Module) -> list[str]:
    """`from .module import _name` lines: a module reaching past another's public names."""
    return [f"line {node.lineno}: {node.module}.{a.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_no_private_name_of_another(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_private_import_is_found():
    tree = ast.parse("from . import __version__\nfrom .markov import PerturbedCoin, _plogp\n"
                     "from .quantum import (norm_sq,\n    _eigenvalues_2x2)\n")
    assert private_imports(tree) == ["line 2: markov._plogp", "line 3: quantum._eigenvalues_2x2"]
