"""The package imports nothing beyond the standard library and its stated dependencies."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11 on

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "evplant").glob("*.py"))


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in a module, at any depth."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def stated_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def test_the_modules_are_found():
    assert len(MODULES) > 5 and ROOT / "src" / "evplant" / "engine.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_stdlib_evplant_or_a_dependency(path):
    allowed = set(sys.stdlib_module_names) | {"evplant"} | stated_dependencies()
    assert imported_packages(path) - allowed == set()
