"""Tooling: the summary of ``tools/bench_pairs.py`` over canned result
lines, and the CPU time it records per run."""

import argparse
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import cpu_summary, directions, parse_runs, run_bench, summarize  # noqa: E402


def run(workload, trace, pair, side, cpu_s=1.0, **metrics):
    """One run record whose result is a canned last line of bench/run.py."""
    result = {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }
    return {
        "workload": workload, "trace": trace, "pair": pair, "side": side, "result": result,
        "cpu_s": cpu_s,
    }


BETTER = {"episodes_per_s": "higher", "episode_s_p50": "lower", "collab_engine.plan_options.self_s": "lower"}


def test_each_metric_counts_the_pairs_the_change_wins_in_its_direction():
    runs = []
    for pair, (parent, change) in enumerate([(30.0, 36.0), (31.0, 35.0), (33.0, 33.0), (32.0, 30.0)]):
        runs.append(run("team-adaptive", 0, pair, "parent", episodes_per_s=parent, episode_s_p50=1 / parent))
        runs.append(run("team-adaptive", 0, pair, "change", episodes_per_s=change, episode_s_p50=1 / change))
    summary = summarize(runs, BETTER)
    assert list(summary) == ["team-adaptive"]
    rate, p50 = summary["team-adaptive"]["episodes_per_s"], summary["team-adaptive"]["episode_s_p50"]
    # The tie in pair 2 counts for neither side, and pair 3 goes to the parent.
    assert rate["change_better_pairs"] == p50["change_better_pairs"] == 2
    assert rate["pairs"] == p50["pairs"] == 4
    assert rate["parent"] == {"q1": 30.25, "median": 31.5, "q3": 32.75}
    assert rate["change"]["median"] == 34.0


def test_traced_runs_form_their_own_group_and_unnamed_metrics_are_left_out():
    runs = [
        run("pair-silent", 1, 0, "change", **{"collab_engine.plan_options.self_s": 0.002, "x.calls": 3}),
        run("pair-silent", 1, 0, "parent", **{"collab_engine.plan_options.self_s": 0.003, "x.calls": 3}),
        run("pair-silent", 0, 0, "parent", episodes_per_s=100.0),
        run("pair-silent", 0, 0, "change", episodes_per_s=110.0),
    ]
    summary = summarize(runs, BETTER)
    assert list(summary) == ["pair-silent (traced)", "pair-silent"]
    traced = summary["pair-silent (traced)"]
    assert list(traced) == ["collab_engine.plan_options.self_s"]
    assert traced["collab_engine.plan_options.self_s"]["change_better_pairs"] == 1
    # One pair: each side's quartiles are its one value.
    assert traced["collab_engine.plan_options.self_s"]["parent"] == dict.fromkeys(("q1", "median", "q3"), 0.003)
    assert summary["pair-silent"]["episodes_per_s"]["change_better_pairs"] == 1


def test_a_pair_missing_a_side_is_not_summarized():
    runs = [run("pair-adaptive", 0, 0, "parent", episodes_per_s=50.0)]
    assert summarize(runs, BETTER) == {}


def test_directions_come_from_the_benchmark_declaration():
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["episodes_per_s"] == "higher"
    assert better["episode_s_p50"] == "lower"
    assert better["collab_engine.plan_options.self_s"] == "lower"


def test_a_run_list_names_a_workload_a_trace_flag_and_a_seed_range():
    assert parse_runs("team-adaptive:0:41-43") == ("team-adaptive", 0, [41, 42, 43])
    for bad in ("team-adaptive:2:1-3", "team-adaptive:0:5-1", "team-adaptive:0", "x:1:a-b"):
        with pytest.raises(argparse.ArgumentTypeError, match="WORKLOAD"):
            parse_runs(bad)


def test_cpu_seconds_get_per_side_quartiles_outside_the_metric_summary():
    runs = []
    for pair, (parent, change) in enumerate([(4.0, 3.0), (5.0, 3.5), (6.0, 4.0), (7.0, 4.5)]):
        runs.append(run("team-adaptive", 0, pair, "parent", cpu_s=parent, episodes_per_s=30.0))
        runs.append(run("team-adaptive", 0, pair, "change", cpu_s=change, episodes_per_s=31.0))
    runs.append(run("team-adaptive", 1, 0, "parent", cpu_s=2.0))
    runs.append(run("team-adaptive", 1, 0, "change", cpu_s=2.5))
    cpu = cpu_summary(runs)
    assert list(cpu) == ["team-adaptive", "team-adaptive (traced)"]
    assert cpu["team-adaptive"]["parent"] == {"q1": 4.25, "median": 5.5, "q3": 6.75}
    assert cpu["team-adaptive"]["change"]["median"] == 3.75
    assert cpu["team-adaptive (traced)"]["change"] == dict.fromkeys(("q1", "median", "q3"), 2.5)
    # CPU time is no BENCHMARK.json metric: the metric summary leaves it out.
    assert "cpu_s" not in summarize(runs, {**BETTER, "cpu_s": "lower"})["team-adaptive"]


def test_a_run_records_the_cpu_seconds_of_its_process(tmp_path):
    # A stand-in bench/run.py that spins for about 0.2 CPU seconds.
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, time\n"
        "end = time.process_time() + 0.2\n"
        "while time.process_time() < end:\n"
        "    pass\n"
        "print('warm-up line')\n"
        "print(json.dumps({'metrics': {}}))\n"
    )
    result, cpu = run_bench(tmp_path, "pair-silent", 1, 0.0, 0)
    assert result == {"metrics": {}}
    assert 0.2 <= cpu < 5.0
