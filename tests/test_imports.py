"""Every module-level import in ``hdsa`` is used by its module, only
``hdsa/linalg.py`` reaches ``scipy.linalg``, the CLI loads no module it does
not need, hdsa's LAPACK binding and a later ``import scipy.linalg`` share
their routines, and every name the benchmark's tracer wraps exists.

Neither pyflakes nor ruff is a dependency, so this AST scan is the check.
``__init__.py`` files re-export names and ``__future__`` imports are
directives, so both are exempt.
"""

import ast
import importlib
import json
import os
import re
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


def run_python(code: str, cwd: Path | None = None) -> str:
    """What ``code`` prints, run by a fresh interpreter that imports hdsa
    from this tree."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_does_not_import_scipy_sparse():
    assert run_python("import sys, hdsa.cli; print('scipy.sparse' in sys.modules)") == "False"


def test_cli_run_does_not_import_scipy_linalg(tmp_path):
    # scipy.linalg's package import costs more than a whole quick-start run
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    quick_start = json.loads(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
    (tmp_path / "config.json").write_text(json.dumps(quick_start))
    code = (
        "import sys, hdsa.cli\n"
        "assert hdsa.cli.main(['run', 'config.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    assert run_python(code, cwd=tmp_path).splitlines()[-1] == "[]"
    assert (tmp_path / "results" / "report.json").is_file()


def test_scipy_linalg_imported_after_hdsa_shares_its_routines():
    code = (
        "import sys, numpy as np\n"
        "from hdsa import linalg\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg\n"
        "assert scipy.linalg._flapack.dpotrf is linalg._dpotrf\n"
        "assert scipy.linalg.lapack.dgetrs is linalg._dgetrs\n"
        "assert scipy.linalg.blas.dgemm is linalg._dgemm\n"
        "c, lower = scipy.linalg.cho_factor(np.diag([4.0, 9.0]))\n"
        "print(np.diag(c), scipy.linalg.svd(np.diag([3.0, 5.0]), compute_uv=False))"
    )
    assert run_python(code) == "[2. 3.] [5. 3.]"


# Run before hdsa's import: records PathFinder's lookups of the two LAPACK
# modules for as long as scipy.linalg is not imported, and answers them with
# ``SPEC``
SPY_ON_LOADER = """
import importlib.machinery, sys
find, calls = importlib.machinery.PathFinder.find_spec, []
def spy(name, path=None, target=None):
    if name in ("scipy.linalg._flapack", "scipy.linalg._fblas") and "scipy.linalg" not in sys.modules:
        calls.append(name)
        return SPEC
    return find(name, path, target)
importlib.machinery.PathFinder.find_spec = spy
"""


def test_hdsa_imported_after_scipy_linalg_reuses_its_modules():
    code = SPY_ON_LOADER.replace("SPEC", "find(name, path, target)") + (
        "import scipy.linalg, hdsa.linalg\n"
        "assert hdsa.linalg._flapack is sys.modules['scipy.linalg._flapack']\n"
        "assert hdsa.linalg._fblas is sys.modules['scipy.linalg._fblas']\n"
        "print(calls)"
    )
    assert run_python(code) == "[]"


def test_loader_without_a_spec_falls_back_to_scipy_linalg():
    code = SPY_ON_LOADER.replace("SPEC", "None") + (
        "import hdsa.linalg\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg.lapack\n"
        "assert hdsa.linalg._dgetrs is scipy.linalg.lapack.dgetrs\n"
        "assert hdsa.linalg._dgemm is scipy.linalg.blas.dgemm\n"
        "print(calls)"
    )
    assert run_python(code) == "['scipy.linalg._flapack', 'scipy.linalg._fblas']"


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
