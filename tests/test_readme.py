"""The README's library example runs and agrees with its own dense check."""

import re
from pathlib import Path

import pytest


def test_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["triples"].sigma[0] == pytest.approx(ns["exact"].sigma[0], rel=1e-8)
