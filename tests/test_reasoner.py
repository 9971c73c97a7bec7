"""Reasoner backends: the scripted rule dialogue, the HTTP client's
fallback, and remote answers taking precedence over engine heuristics.

No test here touches the network: ``requests.post`` is replaced wherever
the HTTP client runs.
"""

import pytest
import requests

from beliefworld import collab_engine, harness, prompts
from beliefworld import reasoner as reasoner_mod
from beliefworld.actions import parse_plan
from beliefworld.belief_store import BeliefWorld
from beliefworld.collab_engine import AgentMind
from beliefworld.prompts import ReasonerRequest, ReasonerResponse, TemplateError, parse_sections
from beliefworld.reasoner import HttpReasoner, ScriptedReasoner
from beliefworld.rule_consensus import canonical_rules
from beliefworld.sbl import parse_atomic

from test_prompts import SAMPLE_VARS

RULE_TEMPLATES = ("rules_propose", "rules_refine", "rules_review")


def request(template_id: str) -> ReasonerRequest:
    tmpl = prompts.template(template_id)
    return ReasonerRequest(template_id, {v: SAMPLE_VARS[v] for v in tmpl.required_vars})


# ---------------------------------------------------------------------------
# The scripted backend.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tid", prompts.TEMPLATE_IDS)
def test_scripted_rejects_unbound_vars(tid):
    req = request(tid)
    vars = dict(req.vars)
    vars.pop(prompts.template(tid).required_vars[0])
    with pytest.raises(TemplateError, match="unbound"):
        ScriptedReasoner().complete(ReasonerRequest(tid, vars))


@pytest.mark.parametrize("tid", RULE_TEMPLATES)
def test_scripted_answers_rule_dialogue_with_parseable_sections(tid):
    resp = ScriptedReasoner().complete(request(tid))
    assert resp.backend == reasoner_mod.SCRIPTED
    assert resp.sections == parse_sections(tid, resp.raw)
    assert set(resp.sections) == set(prompts.template(tid).output_labels)


def test_scripted_leaves_every_other_step_to_the_engine():
    for tid in set(prompts.TEMPLATE_IDS) - set(RULE_TEMPLATES):
        resp = ScriptedReasoner().complete(request(tid))
        assert (resp.sections, resp.raw, resp.backend) == ({}, "", reasoner_mod.SCRIPTED)


# ---------------------------------------------------------------------------
# The HTTP backend, with requests.post replaced.
# ---------------------------------------------------------------------------


class FakeHttpResponse:
    status_code = 200

    def __init__(self, content):
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


def http_reasoner() -> HttpReasoner:
    return HttpReasoner(base_url="http://localhost:9", model="stub", backoff_base=0)


def test_http_reply_is_taken(monkeypatch):
    text = "Reasoning: fine\nSuggestions: None\nSatisfied: yes\n"
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeHttpResponse(text))
    client = http_reasoner()
    resp = client.complete(request("rules_review"))
    assert resp.backend == reasoner_mod.LLM
    assert resp.section("Satisfied") == "yes"
    assert client.fallback_count == 0


def test_http_null_content_falls_back(monkeypatch):
    posts = []

    def post(*args, **kwargs):
        posts.append(kwargs["json"])
        return FakeHttpResponse(None)

    monkeypatch.setattr(requests, "post", post)
    client = http_reasoner()
    resp = client.complete(request("rules_propose"))
    assert len(posts) == 2  # the first try and its one retry
    assert client.fallback_count == 1
    assert resp.backend == reasoner_mod.SCRIPTED
    assert resp.sections == ScriptedReasoner().complete(request("rules_propose")).sections


def test_http_fallback_replays_the_scripted_episode(monkeypatch):
    def refuse(*args, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "post", refuse)
    base = dict(scenario="food_small", seeds=(1,), agents=2, mode="adaptive")
    scripted, _ = harness.run_episode(harness.RunConfig(**base), 1)
    cfg = harness.RunConfig(
        **base, backend="llm", base_url="http://localhost:9", model="stub", backoff_base=0
    )
    fallen_back, metrics = harness.run_episode(cfg, 1)
    assert metrics.reasoner_fallbacks > 0

    def without_fallback_marks(log):
        out = []
        for record in log.records:
            payload = {
                k: v for k, v in record["payload"].items()
                if k not in ("fallbacks", "consensus_fallbacks", "backend")
            }
            out.append({**record, "payload": payload})
        return out

    assert without_fallback_marks(fallen_back) == without_fallback_marks(scripted)


# ---------------------------------------------------------------------------
# Remote answers versus the engine's heuristics.
# ---------------------------------------------------------------------------


class RemoteDouble:
    """Stands in for a remote model: one fixed reply text per template."""

    backend = reasoner_mod.LLM
    fallback_count = 0

    def __init__(self, replies: dict[str, str]):
        self.replies = replies

    def complete(self, req: ReasonerRequest) -> ReasonerResponse:
        text = self.replies[req.template_id]
        return ReasonerResponse(
            sections=parse_sections(req.template_id, text), raw=text, backend=reasoner_mod.LLM
        )


# Replies that parse into sections but carry nothing usable.
MALFORMED = RemoteDouble({
    "update_zero": "Extracted Information: x\nZero order beliefs: Bob says the kitchen is done",
    "update_first": "Extracted Information: x\nFirst order beliefs: who knows\nBob's plan: run",
    "predict_zero": "reasoning: x\nplan: dance wildly",
    "predict_first": "reasoning: x\nplans:\nplan1: dance\nplan2: go to <attic>(77)\nplan3: sing",
    "replan": "reasoning: x\nplan: go grasp <ghost>(66666)",
    "plan_next": "reasons: x\nanswer: jump",
    "communicate": "Message:",
    "adaptive": "reasons: x\nanswer:\nmisaligned information: None",
})

MESSAGE = (
    "FACTS: <kitchen>(2000) EXPLORED all; <apple>(101) IN <kitchen>(2000);"
    " ?x IN <office>(3000) | PLAN: go to <livingroom>(1000); explore current room"
    " <livingroom>(1000)"
)


def seeded_mind(registry, reasoner) -> AgentMind:
    """Alice in the kitchen with the apple in view; her model of Bob has
    him in the office knowing nothing, so the misalignment is heavy."""
    world = BeliefWorld("Alice", canonical_rules(), ("Bob",), registry.container_ids())
    for text in (
        "Alice AT <kitchen>(2000)",
        "<kitchen>(2000) EXPLORED part",
        "<apple>(101) IN <kitchen>(2000)",
        "<bowl>(201) IN <kitchen>(2000)",
    ):
        world.assert_fact(parse_atomic(text))
    world.assert_fact(parse_atomic("Bob AT <office>(3000)"), about="Bob")
    mind = AgentMind(
        name="Alice", world=world, registry=registry,
        reasoner=reasoner, goal=registry.goal,
    )
    mind.adopt(collab_engine.best_plan(collab_engine.zero_view(world, registry)))
    return mind


def site_update(mind):
    declared = collab_engine.update_from_messages(
        mind.world, [("Bob", MESSAGE)], mind.reasoner, mind.registry
    )
    return mind.world.snapshot(), {k: str(v) for k, v in declared.items()}


def site_predict_self(mind):
    return collab_engine.predict_self(
        mind.world, mind.goal, mind.reasoner, mind.registry, "Bob"
    )


def site_predict_collaborator(mind):
    return collab_engine.predict_collaborator(
        mind.world, "Bob", mind.goal, mind.reasoner, mind.registry
    )


def site_replan(mind):
    avoid = parse_plan("go grasp <apple>(101)")
    return collab_engine.replan(
        mind.world, avoid, mind.goal, mind.reasoner, mind.registry, "Bob"
    )


def site_next_action(mind):
    return collab_engine.next_action(
        mind.world, mind.plan, [], mind.reasoner, mind.registry, mind.goal, "Bob"
    )


def site_compose(mind):
    misaligned = list(mind.world.misalignment("Bob").facts)
    return collab_engine.compose_via(
        mind.reasoner, "Alice", "Bob", misaligned, mind.plan, mind.registry
    )


def site_judge(mind):
    candidates = collab_engine.candidate_plans(
        collab_engine.first_view(mind.world, "Bob", mind.registry)
    )
    return mind._judge("Bob", candidates)


SITES = (
    site_update, site_predict_self, site_predict_collaborator, site_replan,
    site_next_action, site_compose, site_judge,
)


@pytest.mark.parametrize("site", SITES, ids=lambda f: f.__name__)
def test_malformed_remote_reply_falls_back_to_the_heuristic(site, food_registry):
    heuristic = site(seeded_mind(food_registry, ScriptedReasoner()))
    assert site(seeded_mind(food_registry, MALFORMED)) == heuristic


def test_heuristic_message_ingest_drops_facts_with_variables(food_registry):
    mind = seeded_mind(food_registry, ScriptedReasoner())
    snapshot, declared = site_update(mind)
    assert "?x" not in snapshot
    assert mind.world.holds(parse_atomic("<kitchen>(2000) EXPLORED all"), about="Bob")
    assert declared == {"Bob": "go to <livingroom>(1000); explore current room <livingroom>(1000)"}


def test_heuristic_message_ingest_rejects_unknown_plan_entities(food_registry):
    mind = seeded_mind(food_registry, ScriptedReasoner())
    declared = collab_engine.update_from_messages(
        mind.world, [("Bob", "FACTS: | PLAN: go grasp <ghost>(66666)")],
        mind.reasoner, food_registry,
    )
    assert declared == {}


def test_remote_plan_overrides_predict_self(food_registry):
    remote = "go to <office>(3000); explore current room <office>(3000)"
    mind = seeded_mind(food_registry, RemoteDouble({"predict_zero": f"reasoning: x\nplan: {remote}"}))
    heuristic = site_predict_self(seeded_mind(food_registry, ScriptedReasoner()))
    assert str(heuristic) != remote
    assert str(site_predict_self(mind)) == remote


def test_remote_verdict_overrides_judge(food_registry):
    heuristic = site_judge(seeded_mind(food_registry, ScriptedReasoner()))
    assert heuristic.heavy
    calm = RemoteDouble({"adaptive": "reasons: x\nanswer: No\nmisaligned information: None"})
    report = site_judge(seeded_mind(food_registry, calm))
    assert not report.heavy
    assert report.misaligned == heuristic.misaligned
