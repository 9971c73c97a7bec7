"""Golden-log gate: scripted episodes replay byte-for-byte.

Each case runs one seed through the harness and compares the episode
log's sha256 with a recorded value.  The
same run also pins what the engine sends the reasoner: the template id
and vars of every request, in call order, hashed as canonical JSON.  A
change that alters behaviour on purpose must re-record these digests and
say why; a refactor must leave them alone.  Replays must also not
depend on the interpreter's string-hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beliefworld import harness
from beliefworld.reasoner import ScriptedReasoner

GOLDEN = {
    ("food_small", 2, "adaptive"): "3ade3bf3a9ca1c91470dd835f7bf98112a98f77bdac24911b0bf3cfc3519a39b",
    ("food_small", 2, "never"): "f6e012514701e984ff3f7e1db7d46753d7a1504c0617c3ae229082aae3f722cf",
    ("food_small", 2, "always"): "3c37821fd6f21ec5c21d33edb490d9dff0538bfe794f63444d98e401788fd035",
    ("stuff_small", 2, "always"): "faec0c2d9238e5de989480b7719e01f11662b879f112b0fdd494d20102abfce5",
    ("stuff_small", 4, "adaptive"): "c0ddd18e603863c6d907a7aa768d9b0eee0f65c815b10c4548dd216d242e3f00",
}

# (request count, sha256 of the JSON list of [template_id, vars] per request)
GOLDEN_REQUESTS = {
    ("food_small", 2, "adaptive"): (340, "f829670049dd240bfc7cc144805c749fc579fe030a52d4ecfa5e982dc13351ca"),
    ("food_small", 2, "never"): (140, "a03ae901e7b212dad968e5fcb44ec0cac3f2676865253268c93445e6b0441618"),
    ("food_small", 2, "always"): (324, "c38f6b4c1b63fa4c09ef852ca8bf9fe4b59d7a165edf60d35f7e179ba0fa7775"),
    ("stuff_small", 2, "always"): (292, "a6cf6e73e439750ee2b54b5de24324726b763794407d447cd875dff8185a553c"),
    ("stuff_small", 4, "adaptive"): (979, "f5565c854e5ec62698bbc96642d0abb9df7cab7412c8970d99c9152db57db68a"),
}


@pytest.mark.parametrize("scenario,agents,mode", sorted(GOLDEN))
def test_scripted_episode_log_matches_golden(scenario, agents, mode, monkeypatch):
    calls = []
    complete = ScriptedReasoner.complete

    def recording(reasoner, request):
        calls.append([request.template_id, request.vars])
        return complete(reasoner, request)

    monkeypatch.setattr(ScriptedReasoner, "complete", recording)
    cfg = harness.RunConfig(scenario=scenario, seeds=(1,), agents=agents, mode=mode)
    episode, _ = harness.run_episode(cfg, 1)
    assert episode.sha256() == GOLDEN[(scenario, agents, mode)]
    digest = hashlib.sha256(json.dumps(calls, sort_keys=True).encode()).hexdigest()
    assert (len(calls), digest) == GOLDEN_REQUESTS[(scenario, agents, mode)]


@pytest.mark.parametrize("hash_seed", ("0", "123"))
def test_replay_does_not_depend_on_the_hash_seed(hash_seed):
    script = (
        "from beliefworld import harness\n"
        "cfg = harness.RunConfig(scenario='food_small', seeds=(1,), agents=2, mode='adaptive')\n"
        "print(harness.run_episode(cfg, 1)[0].sha256())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == GOLDEN[("food_small", 2, "adaptive")]
