"""Harness, episode log and CLI: rule-consensus fallbacks, log checks,
seed parsing and one batch through the command line."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from beliefworld import cli, harness, rule_consensus, world_sim
from beliefworld.collab_engine import AgentMind
from beliefworld.episode_log import EpisodeLog, LogError, metrics
from beliefworld.prompts import ReasonerRequest
from beliefworld.reasoner import ScriptedReasoner
from beliefworld.rule_consensus import canonical_rules


class NoPositionRules(ScriptedReasoner):
    """Proposes every canonical rule but the AT ones, and approves anything."""

    def _answer_rules_propose(self, vars):
        text = super()._answer_rules_propose(vars)
        return "".join(line + "\n" for line in text.splitlines() if " AT " not in line)

    def _answer_rules_review(self, vars):
        return "Reasoning: fine.\nSuggestions: None\nSatisfied: yes\n"


class NarrowIn(ScriptedReasoner):
    """Proposes the canonical rules with every IN pinned to the kitchen,
    and approves anything: the rules would reject an object seen in any
    other room."""

    def _answer_rules_propose(self, vars):
        return super()._answer_rules_propose(vars).replace(" IN ?room", " IN <kitchen>(2000)")

    def _answer_rules_review(self, vars):
        return "Reasoning: fine.\nSuggestions: None\nSatisfied: yes\n"


class GroundRule(ScriptedReasoner):
    """Proposes the canonical rules plus one ground statement, and
    approves anything: every canonical rule is covered, but a ground
    statement is no rule."""

    def _answer_rules_propose(self, vars):
        ground = "Alice BELIEVE <apple>(101) IN <kitchen>(2000)\n"
        return super()._answer_rules_propose(vars) + ground

    def _answer_rules_review(self, vars):
        return "Reasoning: fine.\nSuggestions: None\nSatisfied: yes\n"


class DuplicateRule(ScriptedReasoner):
    """Proposes the canonical rules with the first first-order rule stated
    twice, and approves anything: the scripted reviewer rejects the
    duplicate."""

    def _answer_rules_propose(self, vars):
        duplicate = rule_consensus.CANONICAL_FIRST_RULES[0]
        return super()._answer_rules_propose(vars) + duplicate + "\n"

    def _answer_rules_review(self, vars):
        return "Reasoning: fine.\nSuggestions: None\nSatisfied: yes\n"


class AlwaysRejects(ScriptedReasoner):
    """Rejects every proposal, so the rule dialogue never agrees."""

    def _answer_rules_review(self, vars):
        return "Reasoning: not yet.\nSuggestions: start over\nSatisfied: no\n"


class Silent(ScriptedReasoner):
    """Answers None to every request, the rule dialogue's included."""

    def complete(self, request):
        return None


@pytest.mark.parametrize(
    "reasoner_cls", (NoPositionRules, NarrowIn, GroundRule, DuplicateRule, AlwaysRejects, Silent)
)
def test_failed_consensus_falls_back_to_the_canonical_rules(reasoner_cls, monkeypatch):
    monkeypatch.setattr(harness, "_build_reasoner", lambda cfg: reasoner_cls())
    cfg = harness.RunConfig(scenario="food_small", seeds=(1,))
    episode, result = harness.run_episode(cfg, 1)
    header = episode.of_kind("header")[0]["payload"]
    assert header["rules"] == [str(r) for r in canonical_rules()]
    assert header["consensus_fallbacks"] == 1
    assert len(episode.of_kind("done")) == 1
    assert result.reasoner_fallbacks == 1


@pytest.mark.parametrize(
    "scenario,agents,mode,budget",
    [
        ("food_small", 2, "never", None),
        ("food_small", 2, "always", None),
        ("stuff_small", 4, "adaptive", None),
        ("food_small", 2, "adaptive", 400),
    ],
)
def test_skipping_quiet_frames_leaves_the_log_unchanged(
    scenario, agents, mode, budget, monkeypatch
):
    if budget is not None:
        load = harness.load_scenario
        monkeypatch.setattr(
            harness, "load_scenario", lambda name: replace(load(name), frame_budget=budget)
        )
    cfg = harness.RunConfig(scenario=scenario, seeds=(2,), agents=agents, mode=mode)
    skipped, _ = harness.run_episode(cfg, 2)
    monkeypatch.setattr(world_sim, "skip_quiet_frames", lambda state: None)
    stepped, result = harness.run_episode(cfg, 2)
    assert skipped.to_text() == stepped.to_text()
    if budget is not None:
        assert skipped.of_kind("done")[0]["payload"]["reason"] == "timeout"
        assert result.frames_used == budget


MEMO_RUNS = [
    ("food_small", 2, "never"),
    ("food_small", 2, "always"),
    ("food_small", 2, "adaptive"),
    ("stuff_small", 4, "adaptive"),
    # Here an inbox update can repeat its slot's previous request.
    ("stuff_small", 4, "always"),
]


@pytest.mark.parametrize("scenario,agents,mode", MEMO_RUNS)
def test_the_reply_memo_leaves_the_log_unchanged(scenario, agents, mode, monkeypatch):
    cfg = harness.RunConfig(scenario=scenario, seeds=(2,), agents=agents, mode=mode)
    memoised, _ = harness.run_episode(cfg, 2)

    def unmemoised(mind, template_id, oppo, **own_vars):
        vars = mind._vars(template_id, oppo, own_vars)
        return mind.reasoner.complete(ReasonerRequest(template_id, vars))

    monkeypatch.setattr(AgentMind, "_ask", unmemoised)
    asked_every_time, _ = harness.run_episode(cfg, 2)
    assert memoised.to_text() == asked_every_time.to_text()


@pytest.mark.parametrize("scenario,agents,mode", MEMO_RUNS)
def test_no_slot_sends_the_same_request_twice_in_a_row(scenario, agents, mode, monkeypatch):
    last_sent, repeats = {}, []
    complete = ScriptedReasoner.complete

    def recording(reasoner, request):
        vars = request.vars
        if "AGENT_NAME" in vars:  # an engine request, not the rule dialogue
            slot = (vars["AGENT_NAME"], request.template_id, vars["OPPO_NAME"])
            if last_sent.get(slot) == vars:
                repeats.append(slot)
            last_sent[slot] = vars
        return complete(reasoner, request)

    monkeypatch.setattr(ScriptedReasoner, "complete", recording)
    cfg = harness.RunConfig(scenario=scenario, seeds=(2,), agents=agents, mode=mode)
    harness.run_episode(cfg, 2)
    assert last_sent
    assert repeats == []


CELLS = [
    (scenario, agents, mode)
    for scenario, agents in (("food_small", 2), ("stuff_small", 2), ("stuff_small", 4))
    for mode in ("never", "always", "adaptive")
]


@pytest.mark.parametrize("scenario,agents,mode", CELLS)
def test_every_partition_holds_only_admitted_facts(scenario, agents, mode, monkeypatch):
    # Checked at every decision, over every mind that has decided so far.
    decide, minds = AgentMind.decide, {}

    def checking(mind, obs, inbox):
        minds[mind.name] = mind
        result = decide(mind, obs, inbox)
        for other in minds.values():
            world = other.world
            for about, partition in world.partitions.items():
                wrong = [str(f) for f in partition.values() if not world.admits(f, about)]
                assert wrong == [], (other.name, about)
        return result

    monkeypatch.setattr(AgentMind, "decide", checking)
    cfg = harness.RunConfig(scenario=scenario, seeds=(1,), agents=agents, mode=mode)
    harness.run_episode(cfg, 1)
    assert len(minds) == agents


def test_quiet_frames_are_not_stepped_one_by_one(monkeypatch):
    calls = []
    apply = world_sim.apply

    def counting(state, intents):
        calls.append(state.frame)
        return apply(state, intents)

    monkeypatch.setattr(world_sim, "apply", counting)
    cfg = harness.RunConfig(scenario="food_small", seeds=(1,), mode="never")
    _, result = harness.run_episode(cfg, 1)
    assert result.frames_used > 1000
    assert len(calls) < 100


def done_log(count: int) -> EpisodeLog:
    log = EpisodeLog()
    log.append(0, None, "header", {})
    for _ in range(count):
        log.append(5, None, "done", {"reason": "x", "transported": 1, "total_targets": 2})
    return log


def test_metrics_need_exactly_one_done_record():
    assert metrics(done_log(1)).transport_rate == 0.5
    for count in (0, 2):
        with pytest.raises(LogError):
            metrics(done_log(count))


def test_metrics_count_the_rejected_actions():
    log = EpisodeLog()
    log.append(0, None, "header", {})
    log.append(3, "Alice", "action_rejected", {"action": "go grasp <apple>(101)", "detail": "x"})
    log.append(3, "Bob", "action_done", {"action": "go to <kitchen>(2000)"})
    log.append(4, "Bob", "action_rejected", {"action": "go grasp <apple>(101)", "detail": "y"})
    log.append(5, None, "done", {"reason": "x", "transported": 1, "total_targets": 2})
    assert metrics(log).rejected_actions == 2
    assert metrics(done_log(1)).rejected_actions == 0


def test_read_names_the_bad_json_line(tmp_path):
    path = tmp_path / "episode.log"
    path.write_text(done_log(1).to_text().splitlines()[0] + "\n{not json\n")
    with pytest.raises(LogError) as exc:
        EpisodeLog.read(path)
    assert exc.value.line == 2
    assert "log line 2" in str(exc.value)


def test_read_round_trips_a_written_log(tmp_path):
    path = tmp_path / "episode.log"
    done_log(1).write(path)
    assert EpisodeLog.read(path).to_text() == done_log(1).to_text()


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "episode.log"
    header, done = done_log(1).to_text().splitlines()
    path.write_text(f"\n{header}\n  \n{done}\n\n")
    assert EpisodeLog.read(path).to_text() == done_log(1).to_text()


@pytest.mark.parametrize("line", ("[0, null]", '"done"', '{"frame": 5, "payload": {}}'))
def test_read_names_a_line_that_is_not_an_event_object(line, tmp_path):
    path = tmp_path / "episode.log"
    path.write_text(done_log(0).to_text() + line + "\n")
    with pytest.raises(LogError, match="record is not an event object") as exc:
        EpisodeLog.read(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("payload, problem", (
    ({"reason": "x", "transported": 1}, "done record lacks transport counts"),
    ({"reason": "x", "transported": "one", "total_targets": 2}, "done record lacks transport"),
    ({"reason": "x", "transported": 0, "total_targets": 0}, "done record reports no targets"),
))
def test_metrics_reject_a_done_record_without_usable_counts(payload, problem):
    log = done_log(0)
    log.append(5, None, "done", payload)
    with pytest.raises(LogError, match=problem):
        metrics(log)


def test_parse_seeds():
    assert cli.parse_seeds("1..3") == (1, 2, 3)
    assert cli.parse_seeds("1,2,7") == (1, 2, 7)
    for garbage in ("a..b", "one", "1,x"):
        with pytest.raises(harness.ConfigError):
            cli.parse_seeds(garbage)


def test_cli_run_writes_both_summaries(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli.main, ["run", "--scenario", "food_small", "--seeds", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["seeds"]) == ["1"]
    table = (out / "summary.txt").read_text().splitlines()
    assert table[1].split() == ["seed", *harness._COLUMNS]
    assert "rejected_actions" in json.loads((out / "adaptive" / "1" / "metrics.json").read_text())


def test_cli_rejects_one_agent(tmp_path):
    result = CliRunner().invoke(
        cli.main,
        ["run", "--scenario", "food_small", "--agents", "1", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "args",
    (
        ["--scenario", "nope"],
        ["--scenario", "food_small", "--agents", "9"],
        ["--scenario", "{tmp}/invalid.json"],
        # A scenario number of the wrong JSON type.
        ["--scenario", "{tmp}/fractional.json"],
        # A scenario name the belief language cannot write.
        ["--scenario", "{tmp}/spaced.json"],
        # A model endpoint the scripted backend would not use.
        ["--scenario", "food_small", "--base-url", "http://127.0.0.1:9", "--model", "none"],
        ["--scenario", "food_small", "--seeds", ""],
        ["--scenario", "food_small", "--backend", "llm", "--model", "none"],
        ["--scenario", "food_small", "--backend", "llm", "--base-url", "http://127.0.0.1:9"],
    ),
)
def test_cli_config_errors_exit_2_before_any_episode(args, tmp_path):
    (tmp_path / "invalid.json").write_text("{not json")
    food_small = resources.files("beliefworld").joinpath("scenarios/food_small.json")
    food = json.loads(food_small.read_text())
    (tmp_path / "fractional.json").write_text(json.dumps({**food, "frame_budget": 2999.9}))
    food["objects"][0]["name"] = "red apple"
    (tmp_path / "spaced.json").write_text(json.dumps(food))
    args = [arg.format(tmp=tmp_path) for arg in args]
    result = CliRunner().invoke(cli.main, ["run", *args, "--out", str(tmp_path / "out")])
    assert result.exit_code == cli.EXIT_CONFIG, result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, problem", (
    # API callers, such as the bench, bypass the command line's choices.
    ({"backend": "remote"}, "backend must be one of"),
    ({"mode": "sometimes"}, "mode must be one of"),
    ({"backend": "llm", "model": "none"}, "llm backend requires --base-url and --model"),
    ({"backend": "llm", "base_url": "http://127.0.0.1:9"}, "llm backend requires --base-url"),
))
def test_run_config_rejects_what_the_command_line_would(fields, problem):
    with pytest.raises(harness.ConfigError, match=problem):
        harness.RunConfig(scenario="food_small", seeds=(1,), **fields)


def test_cli_first_episode_failure_exits_3_with_a_summary(tmp_path, monkeypatch):
    def fail(cfg, seed):
        raise RuntimeError("simulated episode failure")

    monkeypatch.setattr(harness, "run_episode", fail)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli.main, ["run", "--scenario", "food_small", "--seeds", "1..2", "--out", str(out)]
    )
    assert result.exit_code == cli.EXIT_EPISODE, result.output
    table = (out / "summary.txt").read_text().splitlines()
    assert table[1].split() == ["seed", *harness._COLUMNS]
    assert len(table) == 2  # no seed finished, so there is no mean row


def cli_run(scenario_file: Path, out: Path, **locale: str) -> subprocess.CompletedProcess:
    """``beliefworld run`` in a fresh interpreter whose locale and UTF-8
    settings are ``locale`` alone."""
    unset = ("LANG", "LANGUAGE", "PYTHONUTF8", "PYTHONIOENCODING", "PYTHONCOERCECLOCALE")
    env = {k: v for k, v in os.environ.items() if k not in unset and not k.startswith("LC_")}
    env.update(locale, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    command = ["run", "--scenario", str(scenario_file), "--out", str(out)]
    return subprocess.run(
        [sys.executable, "-m", "beliefworld.cli", *command],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_a_non_ascii_scenario_runs_the_same_under_an_ascii_locale(tmp_path):
    # The belief language writes <cuisine_é>(2000); the files are UTF-8
    # whatever the locale's encoding.
    food_small = resources.files("beliefworld").joinpath("scenarios/food_small.json")
    food = json.loads(food_small.read_text(encoding="utf-8"))
    food["name"] = "nourriture_é"
    food["rooms"][1]["name"] = "cuisine_é"
    scenario_file = tmp_path / "cuisine.json"
    scenario_file.write_text(json.dumps(food, ensure_ascii=False), encoding="utf-8")
    ascii_run = cli_run(
        scenario_file, tmp_path / "ascii", LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"
    )
    assert ascii_run.returncode == 0, ascii_run.stderr
    utf8_run = cli_run(scenario_file, tmp_path / "utf8", PYTHONUTF8="1")
    assert utf8_run.returncode == 0, utf8_run.stderr
    ascii_log, utf8_log = (
        (tmp_path / side / "adaptive" / "1" / "episode.log").read_bytes()
        for side in ("ascii", "utf8")
    )
    assert ascii_log == utf8_log
    assert "<cuisine_é>(2000)".encode() in ascii_log
