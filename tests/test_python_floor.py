"""Every Python file parses under the grammar of the lowest Python that
pyproject.toml declares, so syntax newer than that fails here and not only
in a CI job on that interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))
FILES = sorted(p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
