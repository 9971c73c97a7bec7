"""Golden-log gate: scripted episodes replay byte-for-byte.

Each case runs one seed through the harness and compares the episode
log's sha256 with the value recorded when the gate was introduced.  The
same run also pins what the engine sends the reasoner: the template id
and vars of every request, in call order, hashed as canonical JSON.  A
change that alters behaviour on purpose must re-record these digests and
say why; a refactor must leave them alone.
"""

import hashlib
import json

import pytest

from beliefworld import harness
from beliefworld.reasoner import ScriptedReasoner

GOLDEN = {
    ("food_small", 2, "adaptive"): "866cb88186637886351d9bfa013bdcb422e00ffee83fcef1c2c8beef7c1a3d21",
    ("food_small", 2, "never"): "f6e012514701e984ff3f7e1db7d46753d7a1504c0617c3ae229082aae3f722cf",
    ("food_small", 2, "always"): "6f0fc5060e2aa6b1499affd385a1e0a79cc5e574936799cde2d38464d94a7c52",
    ("stuff_small", 2, "always"): "0179158bdb374a61663636fd6d9eb36c3d84235a65b94b6dbae41d483d0797a1",
    ("stuff_small", 4, "adaptive"): "f943d44001277c295c9580c1eac981324b92d4119b19ca3be3c6c1a93ded58ec",
}

# (request count, sha256 of the JSON list of [template_id, vars] per request)
GOLDEN_REQUESTS = {
    ("food_small", 2, "adaptive"): (550, "51d380d69c93664e5bb26bcf6518319c63afa590c936da3d206bf3f585a6d9c1"),
    ("food_small", 2, "never"): (140, "a03ae901e7b212dad968e5fcb44ec0cac3f2676865253268c93445e6b0441618"),
    ("food_small", 2, "always"): (555, "b57de288663e18fc2b07a4e1ac48dcf3d83d9b46236a1b21aa981dbe9b5afa04"),
    ("stuff_small", 2, "always"): (336, "e339801f099a41baa7e6bc593c1fe8b22981db3c34d4cf08e58335b4c7fd78f9"),
    ("stuff_small", 4, "adaptive"): (1160, "a9ac160ab9dc35bb61d3387f37bb49e3239ef46f12dbf9020d8dfc7a4fa980fd"),
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
