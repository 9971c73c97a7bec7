"""Golden-log gate: scripted episodes replay byte-for-byte.

Each case runs one seed through the harness and compares the episode
log's sha256 with the value recorded when the gate was introduced.  A
change that alters behaviour on purpose must re-record these digests and
say why; a refactor must leave them alone.
"""

import pytest

from beliefworld import harness

GOLDEN = {
    ("food_small", 2, "adaptive"): "866cb88186637886351d9bfa013bdcb422e00ffee83fcef1c2c8beef7c1a3d21",
    ("food_small", 2, "never"): "f6e012514701e984ff3f7e1db7d46753d7a1504c0617c3ae229082aae3f722cf",
    ("food_small", 2, "always"): "6f0fc5060e2aa6b1499affd385a1e0a79cc5e574936799cde2d38464d94a7c52",
    ("stuff_small", 2, "always"): "0179158bdb374a61663636fd6d9eb36c3d84235a65b94b6dbae41d483d0797a1",
    ("stuff_small", 4, "adaptive"): "f943d44001277c295c9580c1eac981324b92d4119b19ca3be3c6c1a93ded58ec",
}


@pytest.mark.parametrize("scenario,agents,mode", sorted(GOLDEN))
def test_scripted_episode_log_matches_golden(scenario, agents, mode):
    cfg = harness.RunConfig(scenario=scenario, seeds=(1,), agents=agents, mode=mode)
    episode, _ = harness.run_episode(cfg, 1)
    assert episode.sha256() == GOLDEN[(scenario, agents, mode)]
