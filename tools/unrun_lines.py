"""List the lines of each module under ``src/`` that no scripted workload runs.

The workload is nine cells: {food_small with 2 agents, stuff_small with 2
and with 4 agents} × {never, adaptive, always} messaging, each at seeds
1..20, each cell one ``harness.run_batch`` with the scripted reasoner and
no output directory.  Then one more batch, food_small with 2 agents,
adaptive, at seed 1, writes its episode log, metrics and summaries into
a temporary directory, as the command line's ``run`` does, so that the
writers count as run too.  The standard library's ``trace`` module
counts the lines they run.  The package, its command line
included, is imported inside the trace, so its module-level lines
(``def`` and ``class`` lines, constants) count as run.

A module's lines are the line starts of every code object compiled from
its source (``dis.findlinestarts``), so blank lines, comments and
function docstrings are not lines.  For each module with a line that no
episode runs, the tool prints its ``raise`` lines first (a guard that
raises on bad input or a broken invariant), then its other unrun lines,
each with its number and text, and a total at the end.  An unrun line is
a guard, a path another backend needs (the readers of a remote model's
replies), or code the system does not need; the tool lists them and
judges none, and it exits 0 whatever it lists.

Run it from anywhere: ``python tools/unrun_lines.py`` (about half a
minute on one core); ``--seeds N`` runs seeds 1..N.  Uses the standard
library alone.
"""

from __future__ import annotations

import argparse
import dis
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CELLS = tuple(
    (scenario, agents, mode)
    for scenario, agents in (("food_small", 2), ("stuff_small", 2), ("stuff_small", 4))
    for mode in ("never", "adaptive", "always")
)


def run_cells(seeds: tuple[int, ...]) -> None:
    """Import the package and run every cell's episodes; called inside the trace."""
    # No cell runs a command, but the command line's module-level lines run
    # on import, as any caller's would.
    from beliefworld import cli, harness  # noqa: F401

    for scenario, agents, mode in CELLS:
        harness.run_batch(harness.RunConfig(scenario, seeds, agents=agents, mode=mode))
    with tempfile.TemporaryDirectory() as out:
        harness.run_batch(harness.RunConfig("food_small", (1,), out_dir=Path(out)))


def code_lines(code: types.CodeType) -> set[int]:
    """The line starts of a code object and of every code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def unrun_lines(seeds: tuple[int, ...]) -> dict[Path, list[tuple[int, str]]]:
    """Per module under ``src/``, in path order: each line no episode ran,
    as (number, stripped text), in line order."""
    if any(name == "beliefworld" or name.startswith("beliefworld.") for name in sys.modules):
        raise RuntimeError("beliefworld was imported before the trace started")
    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(run_cells, seeds)
    ran: dict[Path, set[int]] = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = code_lines(compile(source, str(path), "exec"))
        missed = sorted(lines - ran.get(path.resolve(), set()))
        found[path] = [(line, text[line - 1].strip()) for line in missed]
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="run seeds 1..N (default 20)")
    args = parser.parse_args()
    found = unrun_lines(tuple(range(1, args.seeds + 1)))
    total = raises = 0
    for path, missed in found.items():
        if not missed:
            continue
        kinds = ["raise" if text.startswith("raise") else "" for _, text in missed]
        total, raises = total + len(missed), raises + kinds.count("raise")
        print(f"{path.relative_to(ROOT).as_posix()}: {len(missed)} unrun lines, {kinds.count('raise')} raise")
        # Raise lines first, each group in line order (the sort is stable).
        for kind, (line, text) in sorted(zip(kinds, missed), key=lambda row: not row[0]):
            print(f"  {kind:5s} {line:5d}  {text}")
    print(f"total: {total} unrun lines, {raises} raise, over {len(CELLS)} cells at seeds 1..{args.seeds}")


if __name__ == "__main__":
    main()
