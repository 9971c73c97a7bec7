"""Smoke test of the benchmark itself: one episode seed per workload.

Run from the repository root::

    python3 bench/smoke.py

For every workload it makes one untraced and one traced run over the
first episode seed only, and checks that each run is correct, that it
prints exactly the metrics ``BENCHMARK.json`` declares, each by name and
with its unit, and that the traced pass leaves nothing wrapped: afterwards
``sbl.parse`` is the original function in every module that binds it.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run  # puts the sources on sys.path
import layers
from beliefworld import collab_engine, reasoner, sbl


def printed_units(lines: list[str]) -> dict[str, str]:
    """Metric name -> unit, as the report lines show them."""
    out = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parse = sbl.parse
    problems = []
    for name, workload in run.WORKLOADS.items():
        one = replace(workload, seeds=workload.seeds[:1])
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.measure(name, one, 1, 0, trace)
            print("\n".join(lines))
            declared = {m["name"]: m["unit"] for m in spec[key]}
            in_json = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if in_json != declared:
                problems.append(f"{label}: result metrics differ from BENCHMARK.json {key}")
            if printed_units(lines) != declared:
                problems.append(f"{label}: printed metrics or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: run not correct or an episode failed")
    for module in (sbl, collab_engine, reasoner):
        if module.parse is not parse:
            problems.append(f"{module.__name__}.parse is not the original sbl.parse")
    leftover = layers.leftover_wrappers()
    if leftover:
        problems.append(f"wrappers left in place: {leftover}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
