"""No module in src/, tests/, demos/ or tools/ imports a name it never uses,
and the package's modules keep their layers.

A name counts as used when it appears as an identifier anywhere in the module
(a dotted use ``a.b`` uses ``a``) or is listed in the module's ``__all__``.
``from __future__`` imports are exempt.

The layers: ``bounds`` checks count tables that its callers pass, and
``analysis`` finds roots of polynomials, so neither imports ``enumeration``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripwalks"
FILES = sorted(
    p for d in ("src", "tests", "demos", "tools") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from math import gcd, inf as INF\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "print(os.path.sep, gcd)\n"
    )
    assert unused_imports(source) == ["line 3: sys", "line 4: INF"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source`` imports, by their names in
    it: ``from .a import x``, ``from . import a``, ``import stripwalks.a``
    and ``from stripwalks.a import x`` all name ``a``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
            names.update(parts[1] for parts in dotted if parts[0] == "stripwalks" and parts[1:])
        elif isinstance(node, ast.ImportFrom):
            parts = [part for part in (node.module or "").split(".") if part]
            if node.level == 0:
                if parts[:1] != ["stripwalks"]:
                    continue
                parts = parts[1:]
            names.update(parts[:1] or [alias.name for alias in node.names])
    return names


def test_scan_finds_package_imports():
    source = (
        "import os, stripwalks.genfunc\n"
        "from . import cli, lattice\n"
        "from .enumeration import count_saws\n"
        "from stripwalks.bounds import pf_bound\n"
        "from stripwalks import analysis\n"
        "from collections import deque\n"
    )
    assert package_imports(source) == {
        "genfunc", "cli", "lattice", "enumeration", "bounds", "analysis"
    }


@pytest.mark.parametrize("module", ["bounds", "analysis"])
def test_module_imports_nothing_from_enumeration(module):
    assert "enumeration" not in package_imports((PACKAGE / f"{module}.py").read_text())
