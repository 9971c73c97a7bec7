"""The planner's boundary: it reads beliefs, plans and facts, and depends
on nothing that stores beliefs, reasons, simulates or logs."""

import ast
from importlib import resources

# ``__future__`` is a compiler directive, not a dependency.
ALLOWED = {
    "__future__",
    "dataclasses",
    "beliefworld.actions",
    "beliefworld.belief_store",
    "beliefworld.scenario",
    "beliefworld.sbl",
}


def imported_modules(source: str) -> set[str]:
    """Every module an ``import`` statement in ``source`` names, with the
    relative imports of a ``beliefworld`` module spelled out in full."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level == 1:
                module = f"beliefworld{module}".rstrip(".")
            if module == "beliefworld":  # ``from . import x`` imports submodule x
                modules.update(f"beliefworld.{alias.name}" for alias in node.names)
            else:
                modules.add(module)
    return modules


def test_planner_imports_only_pure_modules():
    # Read as text, not imported: an import cycle must fail here, not in setup.
    source = resources.files("beliefworld").joinpath("planner.py").read_text()
    assert imported_modules(source) <= ALLOWED
