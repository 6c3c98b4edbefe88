"""Every module-level import in ``hdsa`` is used by its module, only
``hdsa/linalg.py`` reaches ``scipy.linalg``, the CLI loads no module it does
not need, and every name the benchmark's tracer wraps exists.

Neither pyflakes nor ruff is a dependency, so this AST scan is the check.
``__init__.py`` files re-export names and ``__future__`` imports are
directives, so both are exempt.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hdsa

PACKAGE = Path(hdsa.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from .base import EvalPoint, Problem\n"
        "def f(p: Problem) -> float:\n"
        "    return scipy.linalg.norm(p)\n"
    )
    assert unused_imports(source) == ["np (line 2)", "EvalPoint (line 4)"]


@pytest.mark.parametrize(
    "module", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_module_uses_its_imports(module):
    assert unused_imports(module.read_text()) == []


def scipy_linalg_uses(source: str) -> list[int]:
    """Lines that import ``scipy.linalg`` or a name from it, or read it as an
    attribute of ``scipy``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_scan_finds_scipy_linalg():
    source = (
        "import scipy\n"
        "import scipy.linalg.blas\n"
        "from scipy.linalg import lu_solve\n"
        "from scipy import linalg\n"
        "x = scipy.linalg\n"
        "import numpy.linalg\n"
        "from numpy import linalg\n"
    )
    assert scipy_linalg_uses(source) == [2, 3, 4, 5]


def test_only_linalg_reaches_scipy_linalg():
    # the solve path goes through the LAPACK kernels of hdsa.linalg; a
    # scipy.linalg wrapper elsewhere would bring back its per-call overhead
    found = {
        str(path.relative_to(PACKAGE)): scipy_linalg_uses(path.read_text())
        for path in PACKAGE.rglob("*.py")
        if path != PACKAGE / "linalg.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cli_does_not_import_scipy_sparse():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hdsa.cli; print('scipy.sparse' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_every_traced_name_exists(monkeypatch):
    # the benchmark replaces each name where its caller looks it up, so a
    # rename under src/ breaks the benchmark, not the package
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracer.targets()
        if attr not in owner.__dict__
    ]
    assert missing == []
