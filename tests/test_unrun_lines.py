"""Tooling: ``tools/unrun_lines.py`` lists the store's guards as lines no
episode runs, and not the batch path's writers, which it runs."""

import inspect
import subprocess
import sys
from pathlib import Path

from beliefworld import harness

ROOT = Path(__file__).resolve().parents[1]


def unrun(seeds: int) -> dict[str, list[tuple[str, int, str]]]:
    """Per module: each listed line as (``"raise"`` or ``""``, number, text)."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unrun_lines.py"), "--seeds", str(seeds)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    *rows, total = run.stdout.splitlines()
    assert total.startswith("total: ")
    listed: dict[str, list[tuple[str, int, str]]] = {}
    for row in rows:
        if row.startswith("src/"):
            module = listed.setdefault(row.split(":")[0], [])
        else:  # "  <raise or blank> <number>  <text>"
            number, text = row[8:].split(maxsplit=1)
            module.append((row[2:7].strip(), int(number), text))
    return listed


def test_the_store_refusals_read_as_guards_that_no_episode_runs():
    listed = unrun(1)
    store = [(kind, text) for kind, _, text in listed["src/beliefworld/belief_store.py"]]
    assert ("raise", 'raise RuleViolation("only ground, well-sorted facts can be stored", fact)') in store
    assert ("raise", 'raise RuleViolation("fact conforms to no consensus rule", fact)') in store
    assert ("", 'log.warning("dropping a reported fact: %s: %s", reason, fact)') in store
    # The package, the command line included, is imported inside the
    # trace: module-level lines ran, though no cell runs a command.
    assert not [
        m for m, lines in listed.items() if any(t == "from __future__ import annotations" for *_, t in lines)
    ]
    assert not [text for _, _, text in listed["src/beliefworld/cli.py"] if text.startswith("def ")]
    # The tool runs a batch that writes its summaries, as the command line does.
    source, start = inspect.getsourcelines(harness._write_summary)
    written = range(start, start + len(source))
    assert not [n for _, n, _ in listed["src/beliefworld/harness.py"] if n in written]
