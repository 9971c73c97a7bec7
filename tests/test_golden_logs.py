"""Golden-log gate: scripted episodes replay byte-for-byte.

Each case runs one seed through the harness and compares the episode
log's sha256 with a recorded value.  The
same run also pins what the engine sends the reasoner: the template id
and vars of every request, in call order, hashed as canonical JSON.  A
change that alters behaviour on purpose must re-record these digests and
say why; a refactor must leave them alone.  Replays must also not
depend on the interpreter's string-hash seed, and must neither load nor
need the HTTP client library.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beliefworld import harness, rule_consensus, scenario, world_sim
from beliefworld.collab_engine import AgentMind
from beliefworld.perceive import registered_mail, update_from_messages
from beliefworld.planner import SUBPLAN_DONE
from beliefworld.prompts import template
from beliefworld.reasoner import ScriptedReasoner

GOLDEN = {
    ("food_small", 2, "adaptive"): "1c515f2d2b19aade09f9de446bdbac17f9ef6669f4a85368510b881fd694d6b5",
    ("food_small", 2, "never"): "1684078e8f4d465668bc4cd1701bcc90104afb164d63b5b9d21aa8a689196098",
    ("food_small", 2, "always"): "711413c06fe6285d971446987c0cdebc6da86420baa048f243b98a1c60c59cfc",
    ("stuff_small", 2, "always"): "4fd4045dfc7c6c2a82244dbdebaf1dc0a15d2fb11d504da47aff3a532be7dd3a",
    ("stuff_small", 4, "adaptive"): "285b3423961747d1f8eb7e01bf14fbdc4480bffb5d28a21c63e663c72d568305",
}

# (request count, sha256 of the JSON list of [template_id, vars] per request)
GOLDEN_REQUESTS = {
    ("food_small", 2, "adaptive"): (235, "2dca61d57c14a2eb0ab1d9a9b89717cf0192d5428c6cf44efca9eba54447de27"),
    ("food_small", 2, "never"): (32, "103e1f045eff07fd4cc833c4daa121ba6d9145e1cb303d108b4314b4934caf7d"),
    ("food_small", 2, "always"): (172, "17664781534aff27564a9149662d56c2cea9e745aa9321989c945bcc0ffa23e7"),
    ("stuff_small", 2, "always"): (154, "c74033b967e0b026979ee3a239e556c61c0eafb392f4882fecdb961af4991955"),
    ("stuff_small", 4, "adaptive"): (303, "0964578eea4ef78c8268fb8fda3d4e07d0f21f8de87f25ab3d3a135bd77ef00d"),
}

# The request streams of the settings with several senders in a tick when
# each sender gets its own update_first request; every other setting's
# stream is the same either way.
PER_SENDER_REQUESTS = {
    **GOLDEN_REQUESTS,
    ("stuff_small", 4, "adaptive"): (341, "03c36037e04fdd4cf8083492e73563a3ab1f717d8fb9b86b09c7766b3219b26e"),
}


def recorded_run(scenario, agents, mode, monkeypatch):
    """Run seed 1 through the harness; the episode log and the
    ``[template_id, vars]`` of every request, in call order.  Every
    request, the rule dialogue's included, carries exactly the vars its
    template names."""
    calls = []
    complete = ScriptedReasoner.complete

    def recording(reasoner, request):
        assert set(request.vars) == set(template(request.template_id).required_vars), request
        calls.append([request.template_id, request.vars])
        return complete(reasoner, request)

    monkeypatch.setattr(ScriptedReasoner, "complete", recording)
    cfg = harness.RunConfig(scenario=scenario, seeds=(1,), agents=agents, mode=mode)
    episode, _ = harness.run_episode(cfg, 1)
    return episode, calls


@pytest.mark.parametrize("scenario,agents,mode", sorted(GOLDEN))
def test_scripted_episode_log_matches_golden(scenario, agents, mode, monkeypatch):
    episode, calls = recorded_run(scenario, agents, mode, monkeypatch)
    assert episode.sha256() == GOLDEN[(scenario, agents, mode)]
    digest = hashlib.sha256(json.dumps(calls, sort_keys=True).encode()).hexdigest()
    assert (len(calls), digest) == GOLDEN_REQUESTS[(scenario, agents, mode)]


@pytest.mark.parametrize("scenario,agents,mode", sorted(GOLDEN))
def test_asking_every_prediction_leaves_the_log_unchanged(scenario, agents, mode, monkeypatch):
    # The scripted backend answers no prediction, so a prediction that is
    # not asked saves a request and changes nothing in the log.
    predict = AgentMind.predict_collaborator
    monkeypatch.setattr(
        AgentMind, "predict_collaborator",
        lambda mind, collab, declared=None, ask=True: predict(mind, collab, declared),
    )
    episode, calls = recorded_run(scenario, agents, mode, monkeypatch)
    assert episode.sha256() == GOLDEN[(scenario, agents, mode)]
    assert len(calls) > GOLDEN_REQUESTS[(scenario, agents, mode)][0]


@pytest.mark.parametrize("scenario,agents,mode", sorted(GOLDEN))
def test_asking_every_next_step_leaves_the_log_unchanged(scenario, agents, mode, monkeypatch):
    # The scripted backend answers no next step, so a plan adopted on the
    # tick takes the planner's first pending step whether or not it is asked.
    next_action = AgentMind.next_action
    monkeypatch.setattr(AgentMind, "next_action", lambda mind, ask=True: next_action(mind))
    episode, calls = recorded_run(scenario, agents, mode, monkeypatch)
    assert episode.sha256() == GOLDEN[(scenario, agents, mode)]
    assert len(calls) > GOLDEN_REQUESTS[(scenario, agents, mode)][0]


@pytest.mark.parametrize("scenario,agents,mode", sorted(GOLDEN))
def test_asking_the_next_step_of_a_done_plan_leaves_the_log_unchanged(
    scenario, agents, mode, monkeypatch
):
    # The scripted backend answers no next step, so a carried plan that the
    # beliefs find done is replaced whether or not plan_next is asked about it.
    next_action = AgentMind.next_action

    def asking_when_done(mind, ask=True):
        step = next_action(mind, ask)
        if ask and step == SUBPLAN_DONE:
            previous = "; ".join(map(str, mind.plan_history)) or "None"
            mind._ask("plan_next", mind.default_oppo, PREVIOUS_ACTIONS=previous)
        return step

    monkeypatch.setattr(AgentMind, "next_action", asking_when_done)
    episode, calls = recorded_run(scenario, agents, mode, monkeypatch)
    assert episode.sha256() == GOLDEN[(scenario, agents, mode)]
    assert len(calls) > GOLDEN_REQUESTS[(scenario, agents, mode)][0]


def hear_per_sender(mind, inbox):
    """``AgentMind.hear`` with one ``update_first`` request per sender,
    carrying that sender's lines alone.  The scripted backend answers none
    of them, so the fold is given no first-order reply."""
    mail = registered_mail(mind.world, inbox)
    if not mail:
        return update_from_messages(mind.world, mail, None, None)
    senders = list(dict.fromkeys(sender for sender, _ in mail))

    def message(lines):
        return "\n".join(f"{sender}: {text}" for sender, text in lines)

    zero = mind._ask("update_zero", ", ".join(senders), MESSAGE=message(mail))
    for about in senders:
        reply = mind._ask("update_first", about, MESSAGE=message(m for m in mail if m[0] == about))
        assert reply is None
    return update_from_messages(mind.world, mail, zero, None)


@pytest.mark.parametrize("scenario,agents,mode", sorted(GOLDEN))
def test_one_update_first_per_sender_leaves_the_log_unchanged(scenario, agents, mode, monkeypatch):
    # The scripted backend answers no belief update, so batching the
    # senders' update_first requests changes the request stream alone.
    monkeypatch.setattr(AgentMind, "hear", hear_per_sender)
    episode, calls = recorded_run(scenario, agents, mode, monkeypatch)
    assert episode.sha256() == GOLDEN[(scenario, agents, mode)]
    digest = hashlib.sha256(json.dumps(calls, sort_keys=True).encode()).hexdigest()
    assert (len(calls), digest) == PER_SENDER_REQUESTS[(scenario, agents, mode)]


def replay_in_a_fresh_interpreter(prelude: str = "", **env: str) -> list[str]:
    """Run food_small/2/adaptive seed 1 in a new interpreter that first runs
    ``prelude`` and then imports the CLI; its stdout lines: the log's
    sha256, then whether ``requests`` is in ``sys.modules``."""
    script = prelude + (
        "import sys\n"
        "import beliefworld.cli\n"
        "from beliefworld import harness\n"
        "cfg = harness.RunConfig(scenario='food_small', seeds=(1,), agents=2, mode='adaptive')\n"
        "print(harness.run_episode(cfg, 1)[0].sha256())\n"
        "print('requests' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, **env, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.parametrize("hash_seed", ("0", "123"))
def test_replay_does_not_depend_on_the_hash_seed(hash_seed):
    digest, _ = replay_in_a_fresh_interpreter(PYTHONHASHSEED=hash_seed)
    assert digest == GOLDEN[("food_small", 2, "adaptive")]


def test_a_scripted_replay_loads_no_http_client():
    assert replay_in_a_fresh_interpreter() == [GOLDEN[("food_small", 2, "adaptive")], "False"]


def test_a_scripted_replay_runs_where_requests_cannot_be_imported():
    # A None entry in sys.modules makes every `import requests` raise ImportError.
    digest, _ = replay_in_a_fresh_interpreter("import sys\nsys.modules['requests'] = None\n")
    assert digest == GOLDEN[("food_small", 2, "adaptive")]


# Settings that share the per-process caches (the parsed bundled
# scenarios, the registry per scenario value and the judge's verdicts):
# both scenarios, 2 and 4 agents of each, all three modes.
CACHE_MIX = (
    ("stuff_small", 2, "always"),
    ("food_small", 2, "adaptive"),
    ("food_small", 4, "never"),
    ("stuff_small", 4, "adaptive"),
    ("food_small", 2, "never"),
    ("stuff_small", 2, "never"),
    ("food_small", 2, "always"),
)


def shared_caches():
    return (scenario._bundled, scenario.shared_registry, rule_consensus.judge)


def mix_digests(settings) -> dict:
    """Seed 1 of each setting, in the given order: each log's sha256."""
    digests = {}
    for name, agents, mode in settings:
        # The registry an episode gets serves exactly its scenario value.
        scn = scenario.load_scenario(name).with_agents(agents)
        assert world_sim.init(scn, 1).registry.scenario == scn
        cfg = harness.RunConfig(scenario=name, seeds=(1,), agents=agents, mode=mode)
        digests[name, agents, mode] = harness.run_episode(cfg, 1)[0].sha256()
    return digests


def test_the_per_process_caches_leak_nothing_between_episodes():
    for cache in shared_caches():
        cache.cache_clear()
    first = mix_digests(CACHE_MIX)
    assert all(cache.cache_info().hits > 0 for cache in shared_caches())
    assert {key: first[key] for key in GOLDEN} == GOLDEN

    registry = scenario.shared_registry(scenario.load_scenario("stuff_small").with_agents(4))
    before = copy.deepcopy(vars(registry))
    assert mix_digests(reversed(CACHE_MIX)) == first
    assert vars(registry) == before  # read-only: no episode wrote to it

    for cache in shared_caches():
        cache.cache_clear()
    again = ("stuff_small", 4, "adaptive")
    assert mix_digests([again]) == {again: first[again]}
