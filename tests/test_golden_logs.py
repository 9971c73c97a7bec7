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
    ("food_small", 2, "adaptive"): (256, "1e71214911b3167a6b63f87319edf5f591158ac1a63f292a583689d441f218bd"),
    ("food_small", 2, "never"): (54, "9a29ffb8b7d47c879b232ef85213d797568e4a7ff0729fbf67905a38c8fc6c66"),
    ("food_small", 2, "always"): (196, "e6156c197674da07c8831846c3c02e2ed40de8e99e042c6c7a053bc512daad56"),
    ("stuff_small", 2, "always"): (175, "a0550368d6b5eec7965276d0d50c270b7cc5ae0335555096a4e33c2f344c7a09"),
    ("stuff_small", 4, "adaptive"): (365, "2f02d36c52678d7794996a4fb25c9f383c9a690698b6312a277d69ae05051b98"),
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
