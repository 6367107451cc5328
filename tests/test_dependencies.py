"""The package, its demos and its tests import nothing beyond the standard library and the stated dependencies.

The package and the demos need only ``[project] dependencies``; the tests
may also import the ``test`` extra and each other. A package that happens
to be installed but is not stated (SciPy, say) fails here, not on a clean
install.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11 on

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "evplant").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in a module, at any depth."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def stated_dependencies(extra: str | None = None) -> set[str]:
    """The names of ``[project] dependencies``, and of the optional ``extra`` when given."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + (project["optional-dependencies"][extra] if extra else [])
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in specs}


def test_the_modules_are_found():
    assert len(MODULES) > 5 and ROOT / "src" / "evplant" / "engine.py" in MODULES
    assert len(DEMOS) > 5 and Path(__file__).resolve() in TESTS
    assert stated_dependencies("test") - stated_dependencies() == {"pytest", "hypothesis"}


@pytest.mark.parametrize("path", MODULES + DEMOS, ids=lambda path: path.name)
def test_every_import_is_stdlib_evplant_or_a_dependency(path):
    allowed = set(sys.stdlib_module_names) | {"evplant"} | stated_dependencies()
    assert imported_packages(path) - allowed == set()


@pytest.mark.parametrize("path", TESTS, ids=lambda path: path.name)
def test_a_test_imports_only_what_the_test_extra_installs(path):
    allowed = set(sys.stdlib_module_names) | {"evplant"} | stated_dependencies("test") | {p.stem for p in TESTS}
    assert imported_packages(path) - allowed == set()
