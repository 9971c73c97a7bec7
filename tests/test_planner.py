"""The pure modules' boundaries.  The planner reads beliefs, plans and
facts, and depends on nothing that stores beliefs, reasons, simulates or
logs.  Belief revision (``perceive``) writes beliefs, and depends on
nothing that asks a reasoner, runs the decision loop or logs an episode.
Neither names a prompt template: ``collab_engine`` builds every prompt."""

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from beliefworld import prompts

# ``__future__`` is a compiler directive, not a dependency.
PLANNER_ALLOWED = {
    "__future__",
    "dataclasses",
    "beliefworld.actions",
    "beliefworld.belief_store",
    "beliefworld.scenario",
    "beliefworld.sbl",
}
PERCEIVE_ALLOWED = {
    "__future__",
    "functools",
    "itertools",
    "logging",
    "re",
    "beliefworld.actions",
    "beliefworld.belief_store",
    "beliefworld.planner",
    "beliefworld.prompts",
    "beliefworld.scenario",
    "beliefworld.sbl",
    "beliefworld.world_sim",
}
# What belief revision must never load, not even through another module.
PERCEIVE_FORBIDDEN = (
    "beliefworld.reasoner",
    "beliefworld.collab_engine",
    "beliefworld.rule_consensus",
    "beliefworld.harness",
    "beliefworld.episode_log",
    "beliefworld.cli",
)


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


@pytest.mark.parametrize(
    "module,allowed",
    [("planner.py", PLANNER_ALLOWED), ("perceive.py", PERCEIVE_ALLOWED)],
    ids=["planner.py", "perceive.py"],
)
def test_a_pure_module_imports_only_its_allow_list(module, allowed):
    # Read as text, not imported: an import cycle must fail here, not in setup.
    source = resources.files("beliefworld").joinpath(module).read_text()
    assert imported_modules(source) <= allowed


@pytest.mark.parametrize("module", ["planner.py", "perceive.py"])
def test_a_pure_module_names_no_prompt_template(module):
    # collab_engine builds every engine prompt; a template id here would
    # mean a second prompt builder.
    source = resources.files("beliefworld").joinpath(module).read_text()
    literals = {
        node.value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert literals & set(prompts.TEMPLATE_IDS) == set()


def test_importing_perceive_loads_no_reasoner_loop_or_log():
    # A fresh interpreter: this test session has imported everything already.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = "import sys, beliefworld.perceive; print(' '.join(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert "beliefworld.perceive" in loaded
    assert [m for m in PERCEIVE_FORBIDDEN if m in loaded] == []
