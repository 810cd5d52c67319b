"""Every name a module of ``src/hcf`` imports is used in that module.

``__init__.py`` is checked apart: it imports names to re-export them, so
they must be exactly the names of ``hcf.__all__``. No module but ``helper.py``
imports a threading or process module: the one helper thread is started and
joined inside ``hcf.helper.overlap``.
"""

import ast
from pathlib import Path

import pytest

import hcf

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hcf"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: Modules that start threads or processes.
CONCURRENCY = {"threading", "_thread", "concurrent", "multiprocessing"}


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


def concurrency_imports(source: str) -> list[str]:
    """The ``CONCURRENCY`` packages that an absolute import of ``source`` names."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            named.add(node.module.split(".")[0])
    return sorted(named & CONCURRENCY)


def test_checker_finds_a_concurrency_import():
    source = ("import os, threading as t\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "from . import helper\nimport multiprocessing.pool\n"
              "def f():\n    from _thread import start_new_thread\n")
    assert concurrency_imports(source) == ["_thread", "concurrent", "multiprocessing", "threading"]
    assert concurrency_imports("from .helper import overlap\nimport numpy.threading_x\n") == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_the_helper_imports_threading(module):
    expected = ["threading"] if module == "helper.py" else []
    assert concurrency_imports((PACKAGE / module).read_text()) == expected


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
