"""Every module-level import in ``hdsa`` is used by its module.

Neither pyflakes nor ruff is a dependency, so this AST scan is the check.
``__init__.py`` files re-export names and ``__future__`` imports are
directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import hdsa

PACKAGE = Path(hdsa.__file__).parent
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
