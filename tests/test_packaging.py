"""The dependencies declared in pyproject.toml match what the package imports,
and the package's export list names only what it defines."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11+")

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cloneval").glob("*.py"))


def _module_name(requirement):
    """Import name of a requirement such as ``numpy>=1.24``."""
    return re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0).lower().replace("-", "_")


def _third_party(modules):
    return {m for m in modules if m not in sys.stdlib_module_names and m != "cloneval"}


def _imports(nodes):
    """Top-level names of the absolute imports among ``nodes``."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_every_import_is_declared(project):
    hard = {_module_name(r) for r in project["dependencies"]}
    extras = {_module_name(r) for reqs in project["optional-dependencies"].values() for r in reqs}
    imported = _third_party(set().union(*(_imports(ast.walk(tree)) for tree in _trees())))
    assert imported, "no third-party import found; is the source walk broken?"
    assert sorted(imported - hard - extras) == []


def test_hard_dependencies_are_imported_at_top_level_and_installed(project):
    top_level = _third_party(set().union(*(_imports(tree.body) for tree in _trees())))
    for requirement in project["dependencies"]:
        name = _module_name(requirement)
        assert name in top_level, f"{requirement} is declared but no module imports it at top level"
        importlib.import_module(name)


def test_every_exported_name_resolves():
    import cloneval

    assert [name for name in cloneval.__all__ if not hasattr(cloneval, name)] == []
