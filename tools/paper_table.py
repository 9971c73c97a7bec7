"""Print the paper's comparison: three settings by three messaging modes.

Usage (from anywhere)::

    python tools/paper_table.py [--seeds 1-100] [--workers 2] [--json PATH] [--compare PATH]

The nine cells are {food_small/2, stuff_small/2, stuff_small/4} agents x
{never, adaptive, always} messaging.  Every cell runs the scripted
backend at each seed of ``--seeds`` through ``harness.run_episode``, on
at most ``--workers`` processes; an episode is deterministic, so the
table is too.

Per cell the table prints the means of frames used, transport rate,
message tokens, messages sent, reasoner calls and rendered prompt
characters, and the rejected actions as mean, median and worst seed.
Per setting it prints the paired 95% bootstrap intervals of adaptive -
never and adaptive - always frames (:func:`paired_interval`).  The last
line is the combined digest: the sha256 of every episode log's sha256
hex string, concatenated in cell order, then seed order.

``--json PATH`` writes the table, each cell's digest and the per-seed
rows.  ``--compare PATH`` reads such a file, written by another
revision on the same seeds, and prints, per cell, the change in mean
reasoner calls and prompt characters, absolute and as a percent of that
revision's mean, whether the digests agree and, where they do not, the
paired intervals of this revision minus that one for frames and message
tokens; ``--json`` then records the comparison too.  A change to the
request stream alone keeps every digest and shows in the first two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import layers  # noqa: E402
from beliefworld import harness  # noqa: E402

SETTINGS = (("food_small", 2), ("stuff_small", 2), ("stuff_small", 4))
MODES = ("never", "adaptive", "always")
CELLS = tuple((scenario, agents, mode) for scenario, agents in SETTINGS for mode in MODES)
# The per-seed columns, in a row's order after the cell and seed.
COLUMNS = (
    "frames", "transport", "tokens", "messages", "reasoner_calls", "prompt_chars", "rejected",
)
# The columns that stand in for the LLM bill, compared in every cell.
BILL = ("reasoner_calls", "prompt_chars")
RESAMPLES = 2000


def cell_name(cell: tuple[str, int, str]) -> str:
    scenario, agents, mode = cell
    return f"{scenario}/{agents}/{mode}"


def run_one(task: tuple[str, int, str, int]) -> dict:
    """One episode of one cell: its log's sha256 and its columns.  The
    reasoner calls and rendered prompt characters are counted by the
    benchmark's own tally (``bench/layers.py``), which is removed
    afterwards."""
    scenario, agents, mode, seed = task
    cfg = harness.RunConfig(scenario=scenario, seeds=(seed,), agents=agents, mode=mode)
    with layers.ReasonerTally() as tally:
        log, metrics = harness.run_episode(cfg, seed)
    return {
        "cell": cell_name((scenario, agents, mode)), "seed": seed, "sha256": log.sha256(),
        "frames": metrics.frames_used, "transport": metrics.transport_rate,
        "tokens": metrics.comm_tokens, "messages": metrics.messages_sent,
        "reasoner_calls": sum(tally.calls.values()),
        "prompt_chars": sum(tally.prompt_chars.values()),
        "rejected": metrics.rejected_actions,
    }


def run_table(seeds: list[int], workers: int) -> list[dict]:
    """Every cell at every seed, in cell order, then seed order."""
    tasks = [(*cell, seed) for cell in CELLS for seed in seeds]
    if workers <= 1:
        return [run_one(task) for task in tasks]
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        return pool.map(run_one, tasks, chunksize=8)


def digest(rows: list[dict]) -> str:
    return hashlib.sha256("".join(row["sha256"] for row in rows).encode()).hexdigest()


def paired_interval(diffs: list[float]) -> tuple[float, float, float]:
    """The mean of paired differences and its 95% percentile bootstrap
    interval: 2000 resamples of the pairs, drawn by ``random.Random(0)``."""
    rng = random.Random(0)
    n = len(diffs)
    means = sorted(sum(rng.choices(diffs, k=n)) / n for _ in range(RESAMPLES))
    return sum(diffs) / n, means[int(0.025 * RESAMPLES)], means[int(0.975 * RESAMPLES) - 1]


def by_cell(rows: list[dict]) -> dict[str, list[dict]]:
    cells: dict[str, list[dict]] = {}
    for row in rows:
        cells.setdefault(row["cell"], []).append(row)
    return cells


def summarize(rows: list[dict]) -> dict[str, dict]:
    """Per cell: the mean of each column, the rejected actions' median and
    worst seed, and the cell's digest."""
    summary = {}
    for name, cell in by_cell(rows).items():
        row = {col: statistics.fmean(r[col] for r in cell) for col in COLUMNS}
        worst = max(cell, key=lambda r: (r["rejected"], -r["seed"]))
        row["rejected_median"] = statistics.median(r["rejected"] for r in cell)
        row["rejected_worst"] = {"seed": worst["seed"], "rejected": worst["rejected"]}
        row["digest"] = digest(cell)
        summary[name] = row
    return summary


def differences(after: list[dict], before: list[dict], column: str) -> list[float]:
    """``after - before`` per seed, for rows of the same seeds in the same order."""
    if [r["seed"] for r in after] != [r["seed"] for r in before]:
        raise ValueError("the two row lists do not cover the same seeds")
    return [a[column] - b[column] for a, b in zip(after, before)]


def mode_intervals(rows: list[dict]) -> dict[str, dict]:
    """Per setting: adaptive - never and adaptive - always frames."""
    cells = by_cell(rows)
    out = {}
    for scenario, agents in SETTINGS:
        adaptive = cells[cell_name((scenario, agents, "adaptive"))]
        out[f"{scenario}/{agents}"] = {
            f"adaptive-{other}": paired_interval(
                differences(adaptive, cells[cell_name((scenario, agents, other))], "frames")
            )
            for other in ("never", "always")
        }
    return out


def compare(rows: list[dict], before: dict) -> dict[str, dict]:
    """Per cell, against ``before`` (another revision's ``--json``
    record on the same seeds): the change in mean reasoner calls and
    prompt characters, absolute and as a percent of that revision's
    mean; whether the digests agree and, where they do not, this minus
    that revision's frames and message tokens as paired intervals."""
    mine, theirs = by_cell(rows), by_cell(before["rows"])
    out = {}
    for name, cell in mine.items():
        same = digest(cell) == before["cells"][name]["digest"]
        out[name] = {"same_digest": same}
        for col in BILL:
            change = statistics.fmean(differences(cell, theirs[name], col))
            out[name][col] = {"change": change, "percent": 100 * change / before["cells"][name][col]}
        if not same:
            for col in ("frames", "tokens"):
                out[name][col] = paired_interval(differences(cell, theirs[name], col))
    return out


def fmt_interval(interval) -> str:
    mean, low, high = interval
    return f"{mean:+.1f} [{low:+.1f}, {high:+.1f}]"


def report(summary: dict, intervals: dict, compared: dict | None, combined: str) -> str:
    lines = [
        f"{'cell':<24}{'frames':>9}{'transport':>10}{'tokens':>9}{'messages':>9}"
        f"{'calls':>9}{'prompt_chars':>14}  rejected mean / median / worst (seed)",
    ]
    for name, row in summary.items():
        worst = row["rejected_worst"]
        lines.append(
            f"{name:<24}{row['frames']:>9.1f}{row['transport']:>10.3f}{row['tokens']:>9.1f}"
            f"{row['messages']:>9.1f}{row['reasoner_calls']:>9.1f}{row['prompt_chars']:>14.1f}"
            f"  {row['rejected']:.2f} / {row['rejected_median']:g} / {worst['rejected']} ({worst['seed']})"
        )
    lines += ["", "paired 95% bootstrap intervals of frames"]
    for setting, pair in intervals.items():
        lines.append(
            f"{setting:<16}adaptive - never {fmt_interval(pair['adaptive-never'])}"
            f"   adaptive - always {fmt_interval(pair['adaptive-always'])}"
        )
    if compared is not None:
        lines += ["", "this revision - the compared one, per cell"]
        for name, cmp in compared.items():
            calls, chars = (cmp[col] for col in BILL)
            logs = "same digest" if cmp["same_digest"] else (
                f"frames {fmt_interval(cmp['frames'])}   tokens {fmt_interval(cmp['tokens'])}"
            )
            lines.append(
                f"{name:<24}calls {calls['change']:+7.1f} ({calls['percent']:+5.1f}%)"
                f"   prompt_chars {chars['change']:+10.1f} ({chars['percent']:+5.1f}%)   {logs}"
            )
    lines += ["", f"combined digest: {combined}"]
    return "\n".join(lines)


def dump(record: dict) -> str:
    """``record`` as indented JSON, with each per-seed row on one line."""
    head = json.dumps({k: v for k, v in record.items() if k != "rows"}, indent=1)
    rows = ",\n".join(f"  {json.dumps(row)}" for row in record["rows"])
    return f'{head[:-2]},\n "rows": [\n{rows}\n ]\n}}\n'


def parse_seeds(spec: str) -> list[int]:
    try:
        first, last = map(int, spec.split("-"))
        if not 1 <= first <= last:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected FIRST-LAST, got {spec!r}") from None
    return list(range(first, last + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-100"))
    parser.add_argument("--workers", type=int, choices=(1, 2), default=2)
    parser.add_argument("--json", type=Path, help="write the table and its per-seed rows here")
    parser.add_argument("--compare", type=Path, help="a --json file of another revision")
    args = parser.parse_args(argv)

    rows = run_table(args.seeds, args.workers)
    summary = summarize(rows)
    intervals = mode_intervals(rows)
    compared = None
    if args.compare is not None:
        compared = compare(rows, json.loads(args.compare.read_text(encoding="utf-8")))
    combined = digest(rows)
    print(report(summary, intervals, compared, combined))
    if args.json is not None:
        record = {
            "seeds": f"{args.seeds[0]}-{args.seeds[-1]}", "combined_digest": combined,
            "cells": summary, "intervals": intervals,
            **({"compared": compared} if compared is not None else {}),
            "rows": rows,
        }
        args.json.write_text(dump(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
