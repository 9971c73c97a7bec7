"""Tooling: ``tools/unrun_lines.py`` lists the store's guards as lines no episode runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unrun(seeds: int) -> dict[str, list[tuple[str, str]]]:
    """Per module: each listed line as (``"raise"`` or ``""``, text)."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unrun_lines.py"), "--seeds", str(seeds)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    *rows, total = run.stdout.splitlines()
    assert total.startswith("total: ")
    listed: dict[str, list[tuple[str, str]]] = {}
    for row in rows:
        if row.startswith("src/"):
            module = listed.setdefault(row.split(":")[0], [])
        else:  # "  <raise or blank> <number>  <text>"
            module.append((row[2:7].strip(), row[8:].split(maxsplit=1)[1]))
    return listed


def test_the_store_refusals_read_as_guards_that_no_episode_runs():
    listed = unrun(1)
    store = listed["src/beliefworld/belief_store.py"]
    assert ("raise", 'raise RuleViolation("only ground, well-sorted facts can be stored", fact)') in store
    assert ("raise", 'raise RuleViolation("fact conforms to no consensus rule", fact)') in store
    assert ("", 'log.warning("dropping a reported fact: %s: %s", reason, fact)') in store
    # The package, the command line included, is imported inside the
    # trace: module-level lines ran, though no cell runs a command.
    assert not [m for m, lines in listed.items() if ("", "from __future__ import annotations") in lines]
    assert not [text for _, text in listed["src/beliefworld/cli.py"] if text.startswith("def ")]
