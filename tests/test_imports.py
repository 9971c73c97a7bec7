"""Tooling: no module in ``src/``, ``tests/`` or ``tools/`` imports a name
it never uses, or binds a logger it never reads.

A stdlib stand-in for a linter's unused-import rule (F401).  A name is
used when it appears as an identifier anywhere in the module or inside a
string annotation such as ``-> "Scenario"``.  An import whose line carries
``# noqa: F401`` is kept on purpose (a name bound for other modules to
read).  A module-level ``name = logging.getLogger(...)`` is unread when
the module never loads ``name``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "tools")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never uses, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names = ast.walk(ast.parse(part.value))
                used.update(n.id for n in names if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = "import os\nimport sys\nfrom json import loads  # noqa: F401\nsys.exit()\n"
    assert unused_imports(source) == ["line 1: os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((ROOT / module).read_text()) == []


def unread_loggers(source: str) -> list[str]:
    """The module-level names bound to a ``getLogger`` call that the
    module never reads, with their lines."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "getLogger":
                bound.update((t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_sees_a_logger_that_is_never_read():
    source = (
        "import logging\nfrom logging import getLogger\n"
        "log = logging.getLogger(__name__)\nused = getLogger('x')\nused.info('hi')\n"
    )
    assert unread_loggers(source) == ["line 3: log"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_loggers(module):
    assert unread_loggers((ROOT / module).read_text()) == []
