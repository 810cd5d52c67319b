"""Every name a module of ``src/hcf`` imports is used in that module.

``__init__.py`` is checked apart: it imports names to re-export them, so
they must be exactly the names of ``hcf.__all__``.
"""

import ast
from pathlib import Path

import pytest

import hcf

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hcf"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as ``np.zeros`` starts from the Name ``np``
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os, sys\nfrom numpy import array as arr, zeros\nsys.exit(zeros(1))\n"
    assert unused_imports(source) == ["arr", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert MODULES  # the package was found
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert len(hcf.__all__) == len(set(hcf.__all__))
    assert sorted(imported) == sorted(hcf.__all__)
