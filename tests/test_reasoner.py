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
from beliefworld.planner import best_plan, plan_options
from beliefworld.prompts import ReasonerRequest, ReasonerResponse, TemplateError, parse_sections
from beliefworld.reasoner import HttpReasoner, ScriptedReasoner
from beliefworld.rule_consensus import canonical_rules
from beliefworld.sbl import ObjectRef, parse_atomic
from beliefworld.world_sim import VisualObservation

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
    assert resp.sections == parse_sections(tid, resp.raw)
    assert set(resp.sections) == set(prompts.template(tid).output_labels)


def test_scripted_leaves_every_other_step_to_the_engine():
    for tid in set(prompts.TEMPLATE_IDS) - set(RULE_TEMPLATES):
        assert ScriptedReasoner().complete(request(tid)) is None


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
    return HttpReasoner(base_url="http://localhost:9", model="stub")


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """A failed post is retried without the pause."""
    monkeypatch.setattr(reasoner_mod, "BACKOFF_S", 0)


@pytest.fixture
def refuse_posts(monkeypatch):
    """Refuse every post; returns the list of posts and the list of sleeps."""
    posts, sleeps = [], []

    def refuse(*args, **kwargs):
        posts.append(kwargs["json"])
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "post", refuse)
    monkeypatch.setattr(reasoner_mod.time, "sleep", sleeps.append)
    return posts, sleeps


def test_http_reply_is_taken(monkeypatch):
    text = "Reasoning: fine\nSuggestions: None\nSatisfied: yes\n"
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeHttpResponse(text))
    client = http_reasoner()
    resp = client.complete(request("rules_review"))
    assert resp == ReasonerResponse(parse_sections("rules_review", text), text)
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
    assert resp == ScriptedReasoner().complete(request("rules_propose"))


class NullMessage(FakeHttpResponse):
    def __init__(self):
        super().__init__(None)

    def json(self):
        return {"choices": [{"message": None}]}


class ServerError(FakeHttpResponse):
    status_code = 500

    def __init__(self):
        super().__init__(None)


class NotJson(FakeHttpResponse):
    def __init__(self):
        super().__init__(None)

    def json(self):
        raise requests.JSONDecodeError("Expecting value", "<html>", 0)


REVIEW_OK = "Reasoning: fine\nSuggestions: None\nSatisfied: yes\n"
REVIEW_BAD = "Reasoning: fine\nSuggestions: None\n"  # no Satisfied label
SCRIPTED_REVIEW = ScriptedReasoner().complete(request("rules_review"))


# One scripted sequence of post outcomes per case: a reply text, a
# response, or an exception to raise.  Expected: which posts carry the
# repair instruction, and the reply text, or None for a fallback (the
# client then returns the scripted review and counts the fallback).
RETRY_CASES = {
    "bad format, then good": ([REVIEW_BAD, REVIEW_OK], [False, True], REVIEW_OK),
    "bad format twice": ([REVIEW_BAD, REVIEW_BAD], [False, True], None),
    "transport error twice": (
        [requests.ConnectionError("down"), requests.ConnectionError("down")], [False, False], None,
    ),
    "transport error, then bad format, then good": (
        [requests.ConnectionError("down"), REVIEW_BAD, REVIEW_OK], [False, False, True], REVIEW_OK,
    ),
    "null message twice": ([NullMessage(), NullMessage()], [False, False], None),
    "bad format, then transport error twice": (
        [REVIEW_BAD, requests.Timeout("slow"), requests.Timeout("slow")], [False, True, True], None,
    ),
    "HTTP 500 twice": ([ServerError(), ServerError()], [False, False], None),
    "a body that is not JSON twice": ([NotJson(), NotJson()], [False, False], None),
}


@pytest.mark.parametrize("case", RETRY_CASES)
def test_http_retry_and_repair(case, monkeypatch):
    outcomes, repaired, reply = RETRY_CASES[case]
    prompts_sent = []

    def post(*args, **kwargs):
        prompts_sent.append(kwargs["json"]["messages"][0]["content"])
        outcome = outcomes[len(prompts_sent) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return FakeHttpResponse(outcome) if isinstance(outcome, str) else outcome

    monkeypatch.setattr(requests, "post", post)
    client = http_reasoner()
    resp = client.complete(request("rules_review"))
    marker = reasoner_mod.REPAIR_INSTRUCTION.split("{")[0]
    assert [marker in p for p in prompts_sent] == repaired
    if reply is None:
        assert (resp, client.fallback_count) == (SCRIPTED_REVIEW, 1)
    else:
        assert (resp.raw, client.fallback_count) == (reply, 0)


def test_the_bearer_token_is_read_from_the_environment_at_post_time(monkeypatch):
    headers = []

    def post(*args, **kwargs):
        headers.append(kwargs["headers"])
        return FakeHttpResponse(REVIEW_OK)

    monkeypatch.setattr(requests, "post", post)
    client = http_reasoner()
    monkeypatch.setenv(reasoner_mod.API_KEY_ENV, "sk-first")
    client.complete(request("rules_review"))
    monkeypatch.setenv(reasoner_mod.API_KEY_ENV, "sk-second")
    client.complete(request("rules_review"))
    assert headers == [{"Authorization": "Bearer sk-first"}, {"Authorization": "Bearer sk-second"}]


def test_every_requests_failure_is_a_post_error():
    # The reasoner module does not import requests, so POST_ERRORS names
    # the base classes that requests' errors derive from.
    for error in (requests.RequestException, requests.HTTPError, requests.Timeout,
                  requests.JSONDecodeError):
        assert issubclass(error, reasoner_mod.POST_ERRORS), error


def test_a_dead_endpoint_costs_one_post_per_step(refuse_posts):
    # Only the first failure is retried after a pause; while the endpoint
    # stays down, each later step posts once and falls back at once.
    posts, sleeps = refuse_posts
    client = http_reasoner()
    for _ in range(3):
        assert client.complete(request("adaptive")) is None
    assert (len(posts), len(sleeps), client.fallback_count) == (4, 1, 3)


def test_a_post_that_answers_clears_the_dead_endpoint_mark(refuse_posts, monkeypatch):
    _, sleeps = refuse_posts
    client = http_reasoner()
    client.complete(request("rules_review"))  # two failed posts and a pause
    outcomes = iter([REVIEW_OK, requests.ConnectionError("down"), REVIEW_OK])

    def post(*args, **kwargs):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return FakeHttpResponse(outcome)

    monkeypatch.setattr(requests, "post", post)
    assert client.complete(request("rules_review")).raw == REVIEW_OK
    # The endpoint answered, so the next failed post is retried after a pause.
    assert client.complete(request("rules_review")).raw == REVIEW_OK
    assert (len(sleeps), client.fallback_count) == (2, 1)


def test_http_fallback_replays_the_scripted_episode(refuse_posts):
    posts, sleeps = refuse_posts
    base = dict(scenario="food_small", seeds=(1,), agents=2, mode="adaptive")
    scripted, _ = harness.run_episode(harness.RunConfig(**base), 1)
    cfg = harness.RunConfig(**base, backend="llm", base_url="http://localhost:9", model="stub")
    fallen_back, metrics = harness.run_episode(cfg, 1)
    # Only the first failed post is retried: the endpoint stays down.
    assert len(posts) == metrics.reasoner_fallbacks + 1 > 1
    assert len(sleeps) == 1

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


def test_http_reply_quoting_a_placeholder_does_not_stop_the_run(monkeypatch):
    # Only `communicate` parses this reply, so the text goes out as a
    # message and comes back as the MESSAGE var of the recipient's update.
    text = "Message: the bowl costs $USD$"
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeHttpResponse(text))
    cfg = harness.RunConfig(
        scenario="food_small", seeds=(1,), agents=2, mode="adaptive",
        backend="llm", base_url="http://localhost:9", model="stub",
    )
    log, _ = harness.run_episode(cfg, 1)
    assert log.records[-1]["kind"] == "done"
    assert any(
        r["kind"] == "message_sent" and "$USD$" in r["payload"]["text"] for r in log.records
    )


# ---------------------------------------------------------------------------
# Remote answers versus the engine's heuristics.
# ---------------------------------------------------------------------------


class RemoteDouble:
    """Stands in for a remote model: one fixed reply text per template."""

    fallback_count = 0

    def __init__(self, replies: dict[str, str]):
        self.replies = replies

    def complete(self, req: ReasonerRequest) -> ReasonerResponse:
        text = self.replies[req.template_id]
        return ReasonerResponse(sections=parse_sections(req.template_id, text), raw=text)


class RecordingRemote(RemoteDouble):
    """A remote double that keeps every request; a reply keyed by
    (template, OPPO_NAME) takes precedence over the template's reply."""

    def __init__(self, replies: dict):
        super().__init__(replies)
        self.requests: list[ReasonerRequest] = []

    def complete(self, req: ReasonerRequest) -> ReasonerResponse:
        self.requests.append(req)
        text = self.replies.get((req.template_id, req.vars["OPPO_NAME"]))
        if text is None:
            return super().complete(req)
        return ReasonerResponse(sections=parse_sections(req.template_id, text), raw=text)


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

# Replies in the right shape that are still unusable: the update replies
# name the wrong believers (Bob's beliefs offered as Alice's own, Carol's
# in a reply about Bob) and carry a fact the message does not, and the
# verdict is neither yes nor no.
MISADDRESSED = RemoteDouble({
    **MALFORMED.replies,
    "update_zero": (
        "Extracted Information: x\n"
        "Zero order beliefs: Bob BELIEVE <banana>(102) IN <office>(3000)"
    ),
    "update_first": (
        "Extracted Information: x\n"
        "First order beliefs: Alice BELIEVE Carol BELIEVE <banana>(102) IN <office>(3000)\n"
        "Bob's plan: run"
    ),
    "adaptive": "reasons: x\nanswer: maybe\nmisaligned information: None",
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
    mind = AgentMind(world=world, registry=registry, reasoner=reasoner)
    mind.adopt(best_plan(mind.view()))
    return mind


def site_update(mind):
    declared = mind.hear([("Bob", MESSAGE)])
    return mind.world.snapshot(), {k: str(v) for k, v in declared.items()}


def site_predict_self(mind):
    return mind.predict_self()


def site_predict_collaborator(mind):
    return mind.predict_collaborator("Bob")


def site_replan(mind):
    return mind.replan(parse_plan("go grasp <apple>(101)"), "Bob")


def site_next_action(mind):
    return mind.next_action()


def site_compose(mind):
    return mind.compose(list(mind.world.misalignment("Bob")), "Bob")


def site_judge(mind):
    candidates = plan_options(mind.view("Bob"))[: collab_engine.PREDICTED_PLANS]
    return mind.judge("Bob", candidates)


SITES = (
    site_update, site_predict_self, site_predict_collaborator, site_replan,
    site_next_action, site_compose, site_judge,
)


@pytest.mark.parametrize("site,remote", [
    *(pytest.param(site, MALFORMED, id=site.__name__) for site in SITES),
    *(pytest.param(site, MISADDRESSED, id=f"{site.__name__}-misaddressed") for site in SITES),
])
def test_malformed_remote_reply_falls_back_to_the_heuristic(site, remote, food_registry):
    heuristic = site(seeded_mind(food_registry, ScriptedReasoner()))
    assert site(seeded_mind(food_registry, remote)) == heuristic


def test_heuristic_message_ingest_drops_facts_with_variables(food_registry):
    mind = seeded_mind(food_registry, ScriptedReasoner())
    snapshot, declared = site_update(mind)
    assert "?x" not in snapshot
    assert mind.world.holds(parse_atomic("<kitchen>(2000) EXPLORED all"), about="Bob")
    assert declared == {"Bob": "go to <livingroom>(1000); explore current room <livingroom>(1000)"}


def test_heuristic_message_ingest_rejects_unknown_plan_entities(food_registry):
    mind = seeded_mind(food_registry, ScriptedReasoner())
    declared = mind.hear([("Bob", "FACTS: | PLAN: go grasp <ghost>(66666)")])
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


# The engine's own verdict here is heavy; only a yes or no word overturns it.
@pytest.mark.parametrize("answer,heavy", [
    ("yes", True), ("yes.", True), ("yes - because Bob is far", True),
    ("No", False), ("no.", False), ("No, nothing conflicts", False),
    ("not sure", True), ("none", True), ("nothing to add", True), ("maybe", True),
])
def test_judge_reads_yes_or_no_as_a_word(answer, heavy, food_registry):
    remote = RemoteDouble(
        {"adaptive": f"reasons: x\nanswer: {answer}\nmisaligned information: None"}
    )
    assert site_judge(seeded_mind(food_registry, remote)).heavy is heavy


# ---------------------------------------------------------------------------
# The reply memo: one request per distinct input per (template, collaborator).
# ---------------------------------------------------------------------------

PREDICT_FIRST_REPLY = (
    "reasoning: x\nplans:\nplan1: go grasp <apple>(101)\nplan2: None\nplan3: None"
)


def test_an_unchanged_input_is_asked_once(food_registry):
    remote = RecordingRemote({"predict_first": PREDICT_FIRST_REPLY})
    mind = seeded_mind(food_registry, remote)
    first = mind.predict_collaborator("Bob")
    assert mind.predict_collaborator("Bob") == first
    assert len(remote.requests) == 1
    mind.world.assert_fact(parse_atomic("<bowl>(201) IN <kitchen>(2000)"), about="Bob")
    mind.predict_collaborator("Bob")
    assert len(remote.requests) == 2
    assert "<bowl>(201)" in remote.requests[1].vars["FIRST_ORDER_BELIEF"]


def test_each_collaborator_is_its_own_slot(food_registry):
    remote = RecordingRemote({"predict_first": PREDICT_FIRST_REPLY})
    world = BeliefWorld(
        "Alice", canonical_rules(), ("Bob", "Carol"), food_registry.container_ids()
    )
    mind = AgentMind(world=world, registry=food_registry, reasoner=remote)
    for collab in ("Bob", "Carol", "Bob", "Carol"):
        mind.predict_collaborator(collab)
    sent = [(r.vars["OPPO_NAME"], r.vars["FIRST_ORDER_BELIEF"]) for r in remote.requests]
    assert sent == [("Bob", "None"), ("Carol", "None")]


def test_a_fallback_is_not_remembered(food_registry, refuse_posts):
    posts, _ = refuse_posts
    client = http_reasoner()
    mind = seeded_mind(food_registry, client)
    site_judge(mind)
    assert (len(posts), client.fallback_count) == (2, 1)  # the first try and its retry
    site_judge(mind)
    assert (len(posts), client.fallback_count) == (3, 2)  # no retry: the endpoint is down


# ---------------------------------------------------------------------------
# One tick's inbox as one batch.
# ---------------------------------------------------------------------------

BOB_FIRST = "FACTS: <kitchen>(2000) EXPLORED all | PLAN: None"
CAROL_ONLY = "FACTS: <orange>(103) IN <office>(3000) | PLAN: go grasp <orange>(103)"
BOB_SECOND = "FACTS: <banana>(102) IN <kitchen>(2000) | PLAN: None"
BATCH_INBOX = [("Bob", BOB_FIRST), ("Carol", CAROL_ONLY), ("Bob", BOB_SECOND)]

BATCH_REPLIES = {
    "update_zero": (
        "Extracted Information: x\n"
        "Zero order beliefs: Alice BELIEVE <apple>(101) IN <livingroom>(1000)"
    ),
    ("update_first", "Bob"): (
        "Extracted Information: x\n"
        "First order beliefs: Alice BELIEVE Bob BELIEVE <apple>(101) IN <kitchen>(2000)\n"
        "Bob's plan: go grasp <apple>(101)"
    ),
    ("update_first", "Carol"): (
        "Extracted Information: x\n"
        "First order beliefs: Alice BELIEVE Carol BELIEVE <bread>(104) IN <office>(3000)\n"
        "Carol's plan: None"
    ),
}


def batch_update(registry, replies):
    world = BeliefWorld("Alice", canonical_rules(), ("Bob", "Carol"), registry.container_ids())
    remote = RecordingRemote(replies)
    declared = AgentMind(world=world, registry=registry, reasoner=remote).hear(BATCH_INBOX)
    return world, remote.requests, {k: str(v) for k, v in declared.items()}


def test_one_update_zero_and_one_update_first_per_sender(food_registry):
    world, requests, declared = batch_update(food_registry, BATCH_REPLIES)
    assert [(r.template_id, r.vars["OPPO_NAME"]) for r in requests] == [
        ("update_zero", "Bob, Carol"), ("update_first", "Bob"), ("update_first", "Carol"),
    ]
    zero, bob, carol = (r.vars["MESSAGE"] for r in requests)
    assert zero == f"Bob: {BOB_FIRST}\nCarol: {CAROL_ONLY}\nBob: {BOB_SECOND}"
    assert bob == f"Bob: {BOB_FIRST}\nBob: {BOB_SECOND}"
    assert carol == f"Carol: {CAROL_ONLY}"
    # The remote facts, each in its own partition; nothing read off the messages.
    assert world.facts() == [parse_atomic("<apple>(101) IN <livingroom>(1000)")]
    assert world.facts(about="Bob") == [parse_atomic("<apple>(101) IN <kitchen>(2000)")]
    assert world.facts(about="Carol") == [parse_atomic("<bread>(104) IN <office>(3000)")]
    assert declared == {"Bob": "go grasp <apple>(101)"}


def test_malformed_update_first_falls_back_to_that_senders_messages_only(food_registry):
    replies = {**BATCH_REPLIES, ("update_first", "Carol"): MALFORMED.replies["update_first"]}
    world, _, declared = batch_update(food_registry, replies)
    assert world.facts(about="Bob") == [parse_atomic("<apple>(101) IN <kitchen>(2000)")]
    assert world.facts(about="Carol") == [parse_atomic("<orange>(103) IN <office>(3000)")]
    assert world.facts() == [parse_atomic("<apple>(101) IN <livingroom>(1000)")]
    assert declared == {"Bob": "go grasp <apple>(101)", "Carol": "go grasp <orange>(103)"}


def test_update_replies_in_the_prompts_spaced_entity_form_are_read(food_registry):
    # The update prompts' own example writes "<table> (712)".
    spaced = {
        **BATCH_REPLIES,
        "update_zero": (
            "Extracted Information: x\n"
            "Zero order beliefs: Alice BELIEVE <apple> (101) IN <livingroom> (1000)"
        ),
        ("update_first", "Bob"): (
            "Extracted Information: x\n"
            "First order beliefs: Alice BELIEVE Bob BELIEVE <apple> (101) IN <kitchen>  (2000)\n"
            "Bob's plan: go grasp <apple>(101)"
        ),
    }
    world, _, declared = batch_update(food_registry, spaced)
    assert world.facts() == [parse_atomic("<apple>(101) IN <livingroom>(1000)")]
    assert world.facts(about="Bob") == [parse_atomic("<apple>(101) IN <kitchen>(2000)")]
    assert declared == {"Bob": "go grasp <apple>(101)"}


class MisnamingRemote(ScriptedReasoner):
    """Answers ``update_zero`` with Alice holding object 101 under a name
    the registry does not give it; every other engine step gets None."""

    def complete(self, request: ReasonerRequest) -> ReasonerResponse | None:
        if request.template_id != "update_zero":
            return super().complete(request)
        text = (
            "Extracted Information: x\n"
            "Zero order beliefs: Alice BELIEVE Alice HOLD <red_apple>(101)"
        )
        return ReasonerResponse(sections=parse_sections("update_zero", text), raw=text)


def test_a_holding_the_model_misnames_gives_way_to_the_hands_seen(food_registry):
    world = BeliefWorld("Alice", canonical_rules(), ("Bob",), food_registry.container_ids())
    mind = AgentMind(world=world, registry=food_registry, reasoner=MisnamingRemote())
    apple, banana = ObjectRef("apple", 101), ObjectRef("banana", 102)

    def seen(*hands):
        return VisualObservation(
            room=food_registry.rooms_by_id[2000], exploration="part", items=(),
            hands=hands, contents=(), at_bed=(), colocated=(),
        )

    mind.decide(seen(), [("Bob", BOB_FIRST)])
    assert world.holds(parse_atomic("Alice HOLD <red_apple>(101)"))
    # Both hands are seen full: the misnamed holding is stale, not a third item.
    mind.decide(seen(apple, banana), [])
    assert mind.view().holdings() == [apple, banana]
