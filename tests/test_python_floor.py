"""Every package module parses as Python 3.10, the floor that
``pyproject.toml`` names.  ``tests/replay_goldens.py`` checks the floor at
run time, under whichever interpreter runs it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_the_floor_is_the_one_pyproject_names():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "priodpa").glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
