"""Tooling: every Python file parses at the ``requires-python`` floor.

The floor is read from ``pyproject.toml`` with a regex (``tomllib`` is
3.11+), and each file under ``src/``, ``tests/``, ``bench/`` and
``tools/`` is parsed with ``ast.parse(..., feature_version=floor)``, so
syntax newer than the floor fails here even when the tests run on a newer
interpreter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
)
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "bench", "tools")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_check_rejects_syntax_newer_than_the_floor():
    # PEP 695 type aliases came in 3.12.
    with pytest.raises(SyntaxError):
        ast.parse("type Pair = tuple[int, int]\n", feature_version=(3, 10))
    ast.parse("match 1:\n    case _:\n        pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("module", MODULES)
def test_parses_at_the_python_floor(module):
    ast.parse((ROOT / module).read_text(), filename=module, feature_version=FLOOR)
