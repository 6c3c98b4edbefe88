"""The README's library example runs and agrees with its own dense check,
and the README documents every name the package exports, every key
report.json holds and every row of the derivative check."""

import re
from pathlib import Path

import numpy as np
import pytest

import hdsa
from hdsa.bundle import REPORT_FIELDS, SAMPLE_FIELDS
from hdsa.problems import EvalPoint, build_logistic_toy, check_derivatives

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    readme = README.read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["triples"].sigma[0] == pytest.approx(ns["exact"].sigma[0], rel=1e-8)


def test_every_export_is_documented():
    readme = README.read_text()
    missing = [n for n in hdsa.__all__ if not re.search(rf"\b{n}\b", readme)]
    assert missing == []
    assert all(hasattr(hdsa, n) for n in hdsa.__all__)


def test_report_row_names_every_report_key():
    (row,) = re.findall(r"^\| `report\.json` \|.*$", README.read_text(), re.M)
    named = set(re.findall(r"`(\w+)`", row))
    assert [key for key in (*REPORT_FIELDS, *SAMPLE_FIELDS) if key not in named] == []


def test_readme_names_every_derivative_row():
    one = np.ones(1)
    rows = check_derivatives(build_logistic_toy(), EvalPoint(one, one, one, np.ones(2))).errors
    named = set(re.findall(r"`(\w+)`", README.read_text()))
    assert [row for row in rows if row not in named] == []
