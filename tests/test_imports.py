"""Every name a module of ``src/hcf`` imports is used in that module, and
every private module-level name it defines is read somewhere in ``src/hcf``.

``__init__.py`` is checked apart: it imports names to re-export them, so
they must be exactly the names of ``hcf.__all__``. No module but ``helper.py``
imports a threading or process module: the one helper thread is started and
joined inside ``hcf.helper.overlap``. No module but ``helper.py`` names the
block size, since ``hcf.helper.blocks`` alone cuts frame ranges, and no module
but ``framing.py`` and the estimator, whose analysis windows are its own,
calls ``windows``: ``hcf.framing.block`` frames every range. No module imports
another's private ``_name``: what crosses a module is public. No module but
``framing.py`` names ``np.iinfo(np.intp)``: ``hcf.framing.check_size`` is the one
rule for sizes numpy cannot shape. ``enhance``'s block stage ``run_block`` assigns
into no array it did not make, so the calling thread alone assembles the result.
No code but the estimator's ``_cmndf`` takes a cumulative sum along an axis: a
2-D ``np.cumsum`` holds the interpreter lock, stalling the other thread.
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


def block_geometry(source: str) -> list[str]:
    """``"BLOCK_FRAMES"`` if ``source`` names it, and ``"windows"`` if it calls ``windows``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "windows":
                found.add("windows")
        attr = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if attr is not None and getattr(node, attr) == "BLOCK_FRAMES":
            found.add("BLOCK_FRAMES")
    return sorted(found)


def test_checker_finds_the_block_geometry():
    source = ("from .helper import BLOCK_FRAMES as size\nfrom . import framing\n"
              "rows = framing.windows(x, 1, 2, 3, 4)\n")
    assert block_geometry(source) == ["BLOCK_FRAMES", "windows"]
    assert block_geometry("n = hcf.helper.BLOCK_FRAMES\n") == ["BLOCK_FRAMES"]
    source = "from .framing import windows\nw = windows\ntext = 'BLOCK_FRAMES'\n"
    assert block_geometry(source) == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_the_helper_cuts_blocks_and_only_framing_frames_them(module):
    expected = {"helper.py": ["BLOCK_FRAMES"], "framing.py": ["windows"],
                "estimator.py": ["windows"]}
    assert block_geometry((PACKAGE / module).read_text()) == expected.get(module, [])


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


def size_rules(source: str) -> int:
    """How many calls of ``source`` take the ``iinfo`` of ``intp``, by any spelling."""
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Call) and name(node.func) == "iinfo"
               and any(name(arg) == "intp" for arg in node.args))


def test_checker_finds_a_size_rule():
    source = ("import numpy as np\nfrom numpy import iinfo, intp\n"
              "big = n > np.iinfo(np.intp).max // 8\ncap = iinfo(intp).max\n")
    assert size_rules(source) == 2
    assert size_rules("m = np.iinfo(np.int32).max\ntext = 'np.iinfo(np.intp)'\n") == 0


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_framing_holds_the_size_rule(module):
    assert size_rules((PACKAGE / module).read_text()) == (module == "framing.py")


def private_imports(source: str) -> list[str]:
    """Each private name, ``_name`` but not a dunder, that an import of ``source``
    takes from another module, or each dotted module path with a private part."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if private(a.name)]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if any(map(private, a.name.split(".")))]
    return sorted(found)


def test_checker_finds_a_private_import():
    source = ("from __future__ import annotations\nfrom .comb import _check_track as check, "
              "build_bank\nfrom . import _kernels\nfrom .x import __version__\n"
              "import numpy._core.multiarray, os.path\ndef f():\n    from .grid import _f\n")
    assert private_imports(source) == ["_check_track", "_f", "_kernels", "numpy._core.multiarray"]
    assert private_imports("from .grid import check_track\nimport hcf.comb\nx = comb._scan\n") == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_a_private_name(module):
    assert private_imports((PACKAGE / module).read_text()) == []


def unread_privates(sources: dict) -> list[str]:
    """``module:name`` for each module-level ``_name`` (not a dunder) that a module of
    ``sources`` defines and that no expression of any of them reads, by name or as
    an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unread)


def test_checker_finds_an_unread_private():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n",
        "b.py": "from . import a\n_D, _E = 1, 2\nprint(a._C, _E)\ndef _g(_B=0):\n    _f = 1\n",
    }
    assert unread_privates(sources) == ["a.py:_B", "a.py:_f", "b.py:_D", "b.py:_g"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_privates(sources) == []


def outer_writes(source: str, function: str) -> list[str]:
    """Each name whose subscript the function ``function`` of ``source`` assigns
    into though no assignment of that function binds the name: its parameters
    and enclosing names are arrays that outlive the call."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == function)
    bound = {node.id for node in ast.walk(func)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    written = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            root = node.value
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if isinstance(root, ast.Name) and root.id not in bound:
                written.add(root.id)
    return sorted(written)


def test_checker_finds_a_write_into_an_outer_array():
    source = ("def run(lo, out):\n    mine = make()\n    mine[idx[0]] = 1\n    out[lo] = 2\n"
              "    shared[:, lo], other = 3, 4\n    state.maps[0][lo] += 5\n"
              "    other[0] = 6\ndef elsewhere():\n    kept[0] = 7\n")
    assert outer_writes(source, "run") == ["out", "shared", "state"]
    assert outer_writes("def run(lo):\n    x = shared[lo]\n    x[0] = 1\n", "run") == []


def test_the_block_stage_writes_no_outer_array():
    assert outer_writes((PACKAGE / "enhance.py").read_text(), "run_block") == []


def takes_axis(call: ast.Call) -> bool:
    """Whether ``call`` is a ``cumsum`` or ``accumulate``, by any spelling, given an
    ``axis`` keyword or a positional axis after the array (``a.cumsum(1)`` has none
    before it)."""
    func = call.func
    name = getattr(func, "id", getattr(func, "attr", None))
    if name not in ("cumsum", "accumulate"):
        return False
    method = (name == "cumsum" and isinstance(func, ast.Attribute)
              and getattr(func.value, "id", None) not in ("np", "numpy"))
    return any(k.arg == "axis" for k in call.keywords) or len(call.args) > (0 if method else 1)


def axis_cumsums(source: str) -> list[str]:
    """The innermost enclosing function, ``<module>`` at top level, of each call of
    ``source`` that takes a cumulative sum along an axis."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and takes_axis(child):
                found.append(inner)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_checker_finds_a_cumsum_along_an_axis():
    source = ("import numpy as np\nfrom numpy import cumsum\n"
              "def f(a):\n    np.cumsum(a, axis=1)\n    a.cumsum(1)\n    cumsum(a, -1)\n"
              "    np.add.accumulate(a, 1)\n    np.cumsum(a)\n    a.cumsum()\n"
              "    def g(b):\n        return b.T.cumsum(axis=0)\n"
              "top = numpy.cumsum(x, 0)\n")
    assert axis_cumsums(source) == ["<module>", "f", "f", "f", "f", "g"]
    assert axis_cumsums("y = np.cumsum(x)\ntext = 'np.cumsum(x, axis=1)'\n") == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_cmndf_sums_along_an_axis(module):
    expected = ["_cmndf"] if module == "estimator.py" else []
    assert axis_cumsums((PACKAGE / module).read_text()) == expected
