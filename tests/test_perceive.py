"""Belief revision's rules, stated as properties over real observations
and heard messages.

Each visual example starts a simulator episode, seeds every agent's
beliefs with random heard facts through ``ingest_facts``, then lets
random legal intents (``test_world_sim.random_intents``) play for some
frames, folding every agent's observation into its beliefs each frame.
Each inbox example folds one tick's random inbox of grammar messages,
some unparseable, into a fresh world of 2 to 4 agents, with replies to
the update requests or with none.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_world_sim import random_intents

from beliefworld import perceive, world_sim
from beliefworld.actions import ExploreCurrent, GoGrasp, GoTo, Plan, Put, Transport, plan_text
from beliefworld.belief_store import BeliefWorld, held_by, ingest_facts, slot
from beliefworld.perceive import registered_mail, update_from_messages, update_from_visual
from beliefworld.planner import PlannerView
from beliefworld.prompts import ReasonerResponse, parse_sections
from beliefworld.rule_consensus import canonical_rules
from beliefworld.scenario import CONTAINER, EntityRegistry, load_scenario, shared_registry
from beliefworld.sbl import (
    EXPLORED_STATES, AgentName, AtomicBelief, ObjectRef, StateAtom, parse_atomic,
)

SETTINGS = [(name, agents) for name in ("food_small", "stuff_small") for agents in (2, 4)]
INBOX_SETTINGS = [(name, agents) for name in ("food_small", "stuff_small") for agents in (2, 3, 4)]
SCENARIOS = {
    (name, agents): load_scenario(name).with_agents(agents) for name, agents in INBOX_SETTINGS
}
KITCHEN_UNEXPLORED = AtomicBelief(ObjectRef("kitchen", 2000), "EXPLORED", StateAtom("none"))
# A report that every object lies in the office; food_small/2 from seed 0
# explores the office fully at frame 51 and finds most of them elsewhere.
OFFICE_HOLDS_ALL = [
    AtomicBelief(ref, "IN", ObjectRef("office", 3000))
    for ref, _, _ in SCENARIOS[("food_small", 2)].objects
]


def heard_facts(setting) -> st.SearchStrategy[list[AtomicBelief]]:
    """Batches of facts a teammate could report about the scenario's
    entities, each relation of the consensus rules drawn alike."""
    scenario = SCENARIOS[setting]
    objects = st.sampled_from([ref for ref, _, _ in scenario.objects])
    containers = st.sampled_from([ref for ref, kind, _ in scenario.objects if kind == CONTAINER])
    rooms = st.sampled_from(scenario.rooms)
    agents = st.sampled_from([AgentName(name) for name, _ in scenario.agents])
    states = st.sampled_from(EXPLORED_STATES).map(StateAtom)
    fact = st.one_of(
        st.builds(AtomicBelief, objects, st.just("IN"), rooms),
        st.builds(AtomicBelief, agents, st.just("HOLD"), objects),
        st.builds(AtomicBelief, containers, st.just("CONTAIN"), objects),
        st.builds(AtomicBelief, objects, st.just("AT"), st.just(scenario.bed)),
        st.builds(AtomicBelief, rooms, st.just("EXPLORED"), states),
        st.builds(AtomicBelief, agents, st.just("AT"), rooms),
    )
    return st.lists(fact, max_size=8)


# A setting and a batch of heard facts about its entities.
HEARSAY = st.sampled_from(SETTINGS).flatmap(lambda s: st.tuples(st.just(s), heard_facts(s)))


def levels(world: BeliefWorld, registry: EntityRegistry) -> dict[int, int]:
    """Each room's believed exploration level, as its rank in EXPLORED_STATES."""
    view = PlannerView(world.owner, registry, world.partition())
    return {
        room: EXPLORED_STATES.index(view.explored_level(room)) for room in registry.rooms_by_id
    }


def episode(setting, seed: int, heard: list[AtomicBelief]):
    """A fresh episode and each agent's beliefs, seeded with ``heard``."""
    state = world_sim.init(SCENARIOS[setting], seed)
    registry = state.registry
    names = list(state.agents)
    worlds = {}
    for name in names:
        others = tuple(n for n in names if n != name)
        worlds[name] = BeliefWorld(name, canonical_rules(), others, registry)
        ingest_facts(worlds[name], heard, None)
    return state, worlds


def check_visual_update(world: BeliefWorld, obs, registry: EntityRegistry) -> None:
    """Fold ``obs`` into ``world`` and check every rule of the visual update."""
    before = levels(world, registry)
    update_from_visual(world, obs)
    once = list(world.partition().items())
    update_from_visual(world, obs)
    assert list(world.partition().items()) == once, "a second update changed the beliefs"
    after = levels(world, registry)
    assert all(after[room] >= before[room] for room in before), "an exploration level fell"
    for name, hands in ((world.owner, obs.hands), *obs.colocated):
        held = held_by(world.partition(), AgentName(name))
        assert set(held) == set(hands), f"{name}'s believed holdings are not the hands seen"
    if obs.exploration == world_sim.ALL:
        unseen = [
            f for f in world.partition().values()
            if f.relation == "IN" and f.object == obs.room and f.subject not in obs.items
        ]
        assert unseen == [], "a fully explored room keeps an object that was not seen in it"


@settings(max_examples=40, deadline=None)
@given(case=HEARSAY, seed=st.integers(0, 10**6), frames=st.integers(1, 120))
@example(case=(("food_small", 2), OFFICE_HOLDS_ALL), seed=0, frames=60)
def test_a_visual_update_keeps_its_rules(case, seed, frames):
    setting, heard = case
    state, worlds = episode(setting, seed, heard)
    rng = random.Random(seed)
    for _ in range(frames):
        for name, world in worlds.items():
            check_visual_update(world, world_sim.observe(state, name), state.registry)
        world_sim.apply(state, random_intents(state, rng))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a heard fact overrides a seen exploration level (ROADMAP item 2, provenance)",
)
@settings(max_examples=40, deadline=None)
@given(case=HEARSAY, seed=st.integers(0, 10**6), frames=st.integers(1, 60))
# Alice saw her start room, the kitchen, then hears that it is unexplored.
@example(case=(("food_small", 2), [KITCHEN_UNEXPLORED]), seed=1, frames=1)
def test_a_heard_fact_never_lowers_a_known_exploration_level(case, seed, frames):
    setting, heard = case
    state, worlds = episode(setting, seed, [])
    rng = random.Random(seed)
    for _ in range(frames):
        for name, world in worlds.items():
            update_from_visual(world, world_sim.observe(state, name))
        world_sim.apply(state, random_intents(state, rng))
    for world in worlds.values():
        before = levels(world, state.registry)
        ingest_facts(world, heard, None)
        after = levels(world, state.registry)
        assert all(after[room] >= before[room] for room in before)


# ---------------------------------------------------------------------------
# A broadcast is a public announcement.
# ---------------------------------------------------------------------------

GIBBERISH = "utter gibberish !!"


def grammar_text(facts: list[AtomicBelief] | None) -> str:
    """A message in the structured grammar; None gives unparseable text."""
    if facts is None:
        return GIBBERISH
    return f"FACTS: {'; '.join(map(str, facts))} | PLAN: None"


def inbox_case(setting):
    """One tick's mail: ``(sender, facts)`` messages, where None facts is
    unparseable text and ``Zed`` is not on the roster, and the facts some
    collaborators' update replies list."""
    names = [name for name, _ in SCENARIOS[setting].agents]
    facts = heard_facts(setting)
    message = st.tuples(st.sampled_from([*names[1:], "Zed"]), st.one_of(st.none(), facts, facts, facts))
    answers = st.dictionaries(st.sampled_from(names[1:]), facts, max_size=2)
    return st.tuples(st.just(setting), st.lists(message, max_size=6), answers)


INBOXES = st.sampled_from(INBOX_SETTINGS).flatmap(inbox_case)


def fresh_world(setting) -> BeliefWorld:
    names = [name for name, _ in SCENARIOS[setting].agents]
    return BeliefWorld(names[0], canonical_rules(), tuple(names[1:]), shared_registry(SCENARIOS[setting]))


def usable_replies(world: BeliefWorld, answers) -> dict[str, list[AtomicBelief]]:
    """Per collaborator, the reply facts its partition admits, where there is one."""
    admitted = {c: [f for f in facts if world.admits(f, c)] for c, facts in answers.items()}
    return {c: facts for c, facts in admitted.items() if facts}


def first_order_reply(world: BeliefWorld, replies) -> ReasonerResponse | None:
    """One combined first-order reply listing each collaborator's reply
    facts under its chain; None when no collaborator has any."""
    if not replies:
        return None
    text = "\n".join(
        f"{world.owner} BELIEVE {about} BELIEVE {f}" for about, facts in replies.items() for f in facts
    )
    return ReasonerResponse(sections={"First order beliefs": text}, raw=text)


def displaces(later: AtomicBelief, fact: AtomicBelief) -> bool:
    """Whether folding ``later`` after ``fact`` may leave ``fact`` out: it
    takes the slot, or it reports the same holder's hands, whose bound
    may displace or drop ``fact``."""
    if later == fact:
        return False
    same_hands = later.relation == fact.relation == "HOLD" and later.subject == fact.subject
    return slot(later) == slot(fact) or same_hands


def check_public_announcement(world: BeliefWorld, messages, replies) -> None:
    """Each collaborator's partition, after the fold, holds every admitted
    fact of each message it did not send, unless a fact folded into it
    later in the tick displaces that fact: a later message's, or one of
    its own pass (its reply, or else its own messages).  It holds nothing
    that none of those folds carried."""
    registered = [(s, facts) for s, facts in messages if s in world.collaborators and facts]
    for collab in world.collaborators:
        credited = [facts for s, facts in registered if s != collab]
        if collab in replies:
            own = [replies[collab]]
        else:
            own = [facts for s, facts in registered if s == collab]
        folded = [[f for f in batch if world.admits(f, collab)] for batch in credited + own]
        partition = world.partition(collab)
        for i, batch in enumerate(folded[: len(credited)]):
            later = [g for b in folded[i:] for g in b]
            for fact in batch:
                assert partition.get(slot(fact)) == fact or any(displaces(g, fact) for g in later), (
                    f"{collab} lacks {fact}"
                )
        carried = {f for batch in folded for f in batch}
        assert set(partition.values()) <= carried, f"{collab} holds a fact no fold carried"


def parent_fold(world: BeliefWorld, messages, replies) -> None:
    """The inbox fold that credits no third party: every registered
    message into the zero partition, then each sender's reply facts, or
    else its own messages, into its partition alone."""
    registered = [(s, facts or ()) for s, facts in messages if s in world.collaborators]
    for _, facts in registered:
        ingest_facts(world, facts, None)
    for sender in dict.fromkeys(s for s, _ in registered):
        if sender in replies:
            ingest_facts(world, replies[sender], sender)
        else:
            for s, facts in registered:
                if s == sender:
                    ingest_facts(world, facts, sender)


@settings(max_examples=80, deadline=None)
@given(case=INBOXES)
def test_a_heard_broadcast_is_credited_to_every_collaborator_but_its_sender(case):
    setting, messages, answers = case
    world = fresh_world(setting)
    replies = usable_replies(world, answers)
    inbox = [(sender, grammar_text(facts)) for sender, facts in messages]
    update_from_messages(
        world, registered_mail(world, inbox), None, first_order_reply(world, replies)
    )
    check_public_announcement(world, messages, replies)
    if len(world.collaborators) == 1:
        # Its only other collaborator is the sender: nothing to credit.
        before = fresh_world(setting)
        parent_fold(before, messages, replies)
        for about in (None, *world.collaborators):
            assert list(world.partition(about).items()) == list(before.partition(about).items())


BOB_SAYS = "FACTS: <apple>(101) IN <kitchen>(2000) | PLAN: None"


def test_a_hearer_credits_the_third_collaborator_with_a_broadcast(food_registry):
    world = BeliefWorld("Alice", canonical_rules(), ("Bob", "Carol"), food_registry)
    update_from_messages(world, registered_mail(world, [("Bob", BOB_SAYS)]), None, None)
    apple = parse_atomic("<apple>(101) IN <kitchen>(2000)")
    assert world.facts(about="Carol") == [apple]
    assert world.facts(about="Bob") == [apple]
    assert world.facts() == [apple]


def test_an_unparseable_broadcast_credits_no_third_party(food_registry):
    world = BeliefWorld("Alice", canonical_rules(), ("Bob", "Carol"), food_registry)
    update_from_messages(world, registered_mail(world, [("Bob", GIBBERISH)]), None, None)
    assert world.facts(about="Carol") == []
    assert world.facts(about="Bob") == []


# ---------------------------------------------------------------------------
# One batched update_first reply for every sender.
# ---------------------------------------------------------------------------


def plans(setting) -> st.SearchStrategy[Plan]:
    """1-3 step plans over the scenario's entities, some of the wrong
    kind for their steps (a grasped room, a put into a target)."""
    scenario = SCENARIOS[setting]
    entities = st.sampled_from([*scenario.rooms, *(ref for ref, _, _ in scenario.objects)])
    step = st.one_of(
        st.builds(GoTo, entities), st.builds(ExploreCurrent, entities),
        st.builds(GoGrasp, entities), st.builds(Put, entities, entities), st.just(Transport()),
    )
    return st.lists(step, min_size=1, max_size=3).map(lambda steps: Plan(tuple(steps)))


def mail_case(setting, unique: bool):
    """One tick's mail: ``(sender, facts, plan)`` messages, where None
    facts is unparseable text and ``Zed`` is not on the roster; with
    ``unique``, each sender sends one message at most."""
    names = [name for name, _ in SCENARIOS[setting].agents]
    message = st.tuples(
        st.sampled_from([*names[1:], "Zed"]),
        st.one_of(st.none(), heard_facts(setting), heard_facts(setting)),
        st.one_of(st.none(), plans(setting)),
    )
    mail = st.lists(message, max_size=6, unique_by=(lambda m: m[0]) if unique else None)
    return st.tuples(st.just(setting), mail)


def mail_text(facts: list[AtomicBelief] | None, plan: Plan | None) -> str:
    if facts is None:
        return GIBBERISH
    return f"FACTS: {'; '.join(map(str, facts))} | PLAN: {plan_text(plan)}"


def perfect_update_first(world: BeliefWorld, messages, declared) -> ReasonerResponse:
    """The batched update_first reply a perfect model gives: each parseable
    message's facts under its sender's believer chain, in arrival order,
    then the plan the message grammar declares for each sender: one
    ``<sender>: <plan>`` line each, or the bare plan for a lone sender."""
    senders = list(dict.fromkeys(s for s, _, _ in messages if s in world.collaborators))
    lines = [
        f"{world.owner} BELIEVE {sender} BELIEVE {fact}"
        for sender, facts, _ in messages if sender in world.collaborators
        for fact in facts or ()
    ]
    plans = [f"{s}: {plan_text(declared.get(s))}" for s in senders]
    if len(senders) == 1:
        plans = [plan_text(declared.get(senders[0]))]
    text = (
        "Extracted Information: the messages\n"
        f"First order beliefs:\n{chr(10).join(lines) or 'None'}\n"
        f"{', '.join(senders)}'s plan:\n" + "\n".join(plans)
    )
    return ReasonerResponse(sections=parse_sections("update_first", text), raw=text)


def check_perfect_batched_reply(setting, messages) -> None:
    """A perfect batched ``update_first`` reply folds into the partitions
    and declared plans that the message grammar alone (no reply) gives."""
    inbox = [(sender, mail_text(facts, plan)) for sender, facts, plan in messages]
    grammar = fresh_world(setting)
    declared = update_from_messages(grammar, registered_mail(grammar, inbox), None, None)
    world = fresh_world(setting)
    mail = registered_mail(world, inbox)
    senders = tuple(dict.fromkeys(sender for sender, _ in mail))
    reply = perfect_update_first(world, messages, declared)
    plans = perceive._reply_plans(reply, senders)
    assert list(plans) == list(senders)
    for sender in senders:  # each plan is read off the reply, not the grammar
        fallback = lambda: pytest.fail(f"{sender}'s plan line was not read")  # noqa: E731
        perceive.plan_reply(plans[sender], world.registry, fallback)
    replied = update_from_messages(world, mail, None, reply)
    assert list(replied.items()) == list(declared.items())
    # The same fact in each slot; a reply's facts fold as one batch, the
    # messages' one message at a time, so the slots' insertion order may
    # differ, and every reader of a partition sorts it.
    for about in (None, *world.collaborators):
        assert world.partition(about) == grammar.partition(about)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(INBOX_SETTINGS).flatmap(lambda s: mail_case(s, unique=True)))
def test_a_perfect_batched_reply_folds_as_the_message_grammar_does(case):
    check_perfect_batched_reply(*case)


def apple_in(room: str, room_id: int) -> AtomicBelief:
    return AtomicBelief(ObjectRef("apple", 101), "IN", ObjectRef(room, room_id))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "a reply's facts fold as one batch, ordered by text with holdings last, "
        "while a sender's messages fold one at a time in arrival order"
    ),
)
@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(INBOX_SETTINGS).flatmap(lambda s: mail_case(s, unique=False)))
# Bob puts the apple in the living room, then in the kitchen: the grammar
# keeps the later report, the batch the one whose text sorts last.
@example(case=(("food_small", 2), [
    ("Bob", [apple_in("livingroom", 1000)], None), ("Bob", [apple_in("kitchen", 2000)], None),
]))
def test_a_perfect_batched_reply_folds_several_messages_of_a_sender_as_the_grammar_does(case):
    check_perfect_batched_reply(*case)
