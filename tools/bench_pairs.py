"""Run ``bench/run.py`` from two checkouts in alternating pairs and record both sides.

Usage (from anywhere)::

    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --runs team-adaptive:0:41-50 --runs pair-silent:0:51-54 \\
        --seconds 8 --claim "what the change claims" --out BENCH_NN.json

Each ``--runs WORKLOAD:TRACE:FIRST-LAST`` entry runs one pair per seed of
the range, in order.  Pair k of an entry runs the parent first when k is
even and the change first when k is odd, and each side runs the
``bench/run.py`` of its own checkout, with the same arguments.  The last
line a run prints is its JSON result.

The output file holds the two revisions (``git rev-parse HEAD`` in each
checkout), the cpu count, the Python version, the command, the method,
a summary, the CPU time summary and every run's result and CPU time.
The summary gives, per workload ("<workload> (traced)" for traced runs)
and per metric that ``BENCHMARK.json`` names, each side's quartiles and
the number of pairs in which the change is better.  A metric's direction
is its ``better`` entry in ``BENCHMARK.json``, and a tie counts for
neither side.  A run's CPU time is the user plus system seconds of the
``bench/run.py`` process (``resource.getrusage(RUSAGE_CHILDREN)`` before
and after it); less exposed to a busy host than wall time, it is no
``BENCHMARK.json`` metric, so ``cpu_s`` gives each side's quartiles per
workload in a field of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace <trace>"
METHOD = (
    "alternating pairs: pair k of a run list runs parent first when k is even, change first "
    "when k is odd; each side runs from its own checkout of its revision; seeds {seeds} were "
    "not used while writing the change; quartiles are statistics.quantiles(n=4); "
    "'result' is the run's last line of output; 'cpu_s' is the run's user plus system CPU "
    "seconds (RUSAGE_CHILDREN); a tie counts for neither side"
)


def directions(benchmark: dict) -> dict[str, str]:
    """Each metric ``BENCHMARK.json`` names -> "higher" or "lower"."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def cpu_summary(runs: list[dict]) -> dict:
    """Per workload ("<workload> (traced)" for traced runs), each side's
    quartiles of the runs' ``cpu_s``."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        name = f"{run['workload']} (traced)" if run["trace"] else run["workload"]
        values.setdefault(name, {side: [] for side in SIDES})[run["side"]].append(run["cpu_s"])
    return {
        name: {side: quartiles(cpu) for side, cpu in sides.items()}
        for name, sides in values.items()
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles, the pairs in which
    the change is better (a tie counts for neither) and the pair count.

    ``runs`` are run records (``workload``, ``trace``, ``pair``, ``side``
    and ``result``, the run's parsed last line); a pair's two records
    share workload, trace and pair number.  Only metrics that ``better``
    names and both sides report are summarized."""
    pairs: dict[tuple[str, int, int], dict[str, dict]] = {}
    for run in runs:
        key = (run["workload"], run["trace"], run["pair"])
        pairs.setdefault(key, {})[run["side"]] = run["result"]["metrics"]
    summary: dict[str, dict] = {}
    for (workload, trace, _), sides in pairs.items():
        if set(sides) != set(SIDES):
            continue
        group = summary.setdefault(f"{workload} (traced)" if trace else workload, {})
        for name, direction in better.items():
            if not all(name in sides[side] for side in SIDES):
                continue
            parent, change = (sides[side][name]["value"] for side in SIDES)
            row = group.setdefault(name, {"values": {side: [] for side in SIDES}, "better": 0})
            row["values"]["parent"].append(parent)
            row["values"]["change"].append(change)
            row["better"] += change > parent if direction == "higher" else change < parent
    return {
        group: {
            name: {
                **{side: quartiles(row["values"][side]) for side in SIDES},
                "change_better_pairs": row["better"],
                "pairs": len(row["values"]["parent"]),
            }
            for name, row in metrics.items()
        }
        for group, metrics in summary.items()
    }


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process's waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_bench(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int
) -> tuple[dict, float]:
    """One run of a checkout's ``bench/run.py``: its parsed last line and
    the run's CPU seconds."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    before = cpu_seconds()
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1]), cpu_seconds() - before


def revision(checkout: Path) -> str:
    cmd = ["git", "-C", str(checkout), "rev-parse", "HEAD"]
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()


def parse_runs(spec: str) -> tuple[str, int, list[int]]:
    """``WORKLOAD:TRACE:FIRST-LAST`` -> (workload, trace, seeds)."""
    try:
        workload, trace, seeds = spec.split(":")
        first, last = map(int, seeds.split("-"))
        if trace not in ("0", "1") or last < first:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:0|1:FIRST-LAST, got {spec!r}") from None
    return workload, int(trace), list(range(first, last + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent revision")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--runs", type=parse_runs, action="append", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for workload, trace, seeds in args.runs:
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result, cpu = run_bench(checkouts[side], workload, seed, args.seconds, trace)
                runs.append({
                    "workload": workload, "trace": trace, "pair": pair, "seed": seed,
                    "side": side, "ran_first": side == order[0], "result": result, "cpu_s": cpu,
                })
                value = result["metrics"].get("episodes_per_s", {}).get("value")
                print(f"{workload} trace={trace} seed={seed} {side}: episodes_per_s={value}", flush=True)

    seeds = sorted({run["seed"] for run in runs})
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    record = {
        "claim": args.claim,
        **{side: revision(checkout) for side, checkout in checkouts.items()},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "command": COMMAND.format(seconds=args.seconds),
        "method": METHOD.format(seeds=f"{seeds[0]}-{seeds[-1]}"),
        "summary": summarize(runs, better),
        "cpu_s": cpu_summary(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
