"""Collaboration engine: heuristics, conflict detection, updates, decide."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefworld import harness, perceive, sbl, world_sim
from beliefworld.actions import (
    ExploreCurrent,
    GoGrasp,
    GoTo,
    Plan,
    Put,
    SendMessage,
    Transport,
    parse_plan,
)
from beliefworld.belief_store import BeliefWorld, RuleViolation, slot
from beliefworld.collab_engine import AgentMind
from beliefworld.perceive import (
    CorruptObservation,
    compose_message,
    inbox_batches,
    note_sent,
    parse_message,
    update_from_messages,
    update_from_visual,
)
from beliefworld.planner import (
    SUBPLAN_DONE,
    PlannerView,
    StalePlan,
    best_plan,
    detect_miscoordination,
    next_step,
    plan_conflicts,
    plan_options,
)
from beliefworld.prompts import ReasonerResponse, parse_sections
from beliefworld.reasoner import ScriptedReasoner
from beliefworld.rule_consensus import canonical_rules
from beliefworld.scenario import EntityRegistry, load_scenario, scenario_from_dict
from beliefworld.sbl import AgentName, AtomicBelief, ObjectRef, StateAtom
from beliefworld.world_sim import VisualObservation
from universe import (
    STALE,
    conflict_oracle,
    planner_view,
    reference_next_step,
    reference_plan_ranking,
    reference_update_from_messages,
)

LIVING = ObjectRef("livingroom", 1000)
KITCHEN = ObjectRef("kitchen", 2000)
OFFICE = ObjectRef("office", 3000)
BEDROOM = ObjectRef("bedroom", 4000)
BED = ObjectRef("bed", 9000)


def fact(text: str) -> AtomicBelief:
    return sbl.parse_atomic(text)


def make_world(registry, owner="Alice", collaborators=("Bob",)) -> BeliefWorld:
    return BeliefWorld(owner, canonical_rules(), tuple(collaborators), registry.container_ids())


# ---------------------------------------------------------------------------
# Planning heuristic vs the reference ranking.
# ---------------------------------------------------------------------------


def random_view(rng: random.Random, registry) -> PlannerView:
    facts = set()
    rooms = sorted(registry.rooms_by_id)
    owner = "Alice"
    if rng.random() < 0.9:
        facts.add(AtomicBelief(AgentName(owner), "AT", registry.rooms_by_id[rng.choice(rooms)]))
    for room_id in rooms:
        level = rng.choice(("none", "none", "part", "all", None))
        if level:
            facts.add(AtomicBelief(registry.rooms_by_id[room_id], "EXPLORED", StateAtom(level)))
    hands = 0
    held_container = None
    containers = sorted(registry.container_ids())
    if containers and rng.random() < 0.45:
        held_container = registry.objects_by_id[containers[0]][0]
        facts.add(AtomicBelief(AgentName(owner), "HOLD", held_container))
        hands += 1
    load = 0
    for target_id in sorted(registry.target_ids()):
        ref = registry.objects_by_id[target_id][0]
        roll = rng.random()
        if roll < 0.25:
            continue  # location unknown
        if roll < 0.60:
            facts.add(AtomicBelief(ref, "IN", registry.rooms_by_id[rng.choice(rooms)]))
        elif roll < 0.72:
            facts.add(AtomicBelief(ref, "AT", BED))
        elif roll < 0.82 and hands < 2:
            facts.add(AtomicBelief(AgentName(owner), "HOLD", ref))
            hands += 1
        elif roll < 0.9 and held_container is not None and load < 3:
            facts.add(AtomicBelief(held_container, "CONTAIN", ref))
            load += 1
        else:
            facts.add(AtomicBelief(AgentName("Bob"), "HOLD", ref))
    return planner_view(owner, registry, facts)


def test_plan_ranking_matches_reference_oracle(food_registry):
    rng = random.Random(4242)
    for case in range(200):
        view = random_view(rng, food_registry)
        expected = reference_plan_ranking(view)
        actual = [str(p) for p in plan_options(view)]
        assert actual == expected, f"case {case}"


def test_best_plan_grasps_target_in_current_room(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(ObjectRef("apple", 101), "IN", KITCHEN),
    }
    view = planner_view("Alice", food_registry, facts)
    assert str(best_plan(view)) == "go grasp <apple>(101)"


def test_best_plan_done_when_everything_exhausted(food_registry):
    facts = {AtomicBelief(AgentName("Alice"), "AT", KITCHEN)}
    for room in (LIVING, KITCHEN, OFFICE, BEDROOM):
        facts.add(AtomicBelief(room, "EXPLORED", StateAtom("all")))
    view = planner_view("Alice", food_registry, facts)
    assert best_plan(view) is None


def test_container_fill_priority(food_registry):
    bowl = ObjectRef("bowl", 201)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Alice"), "HOLD", bowl),
        AtomicBelief(ObjectRef("apple", 101), "IN", KITCHEN),
    }
    view = planner_view("Alice", food_registry, facts)
    assert str(best_plan(view)) == "go grasp <apple>(101); put <apple>(101) <bowl>(201)"


def test_transport_when_full(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Alice"), "HOLD", ObjectRef("apple", 101)),
        AtomicBelief(AgentName("Alice"), "HOLD", ObjectRef("banana", 102)),
        AtomicBelief(ObjectRef("orange", 103), "IN", KITCHEN),
    }
    view = planner_view("Alice", food_registry, facts)
    assert str(best_plan(view)) == "transport"


def test_explore_prefers_unexplored_nearest(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(KITCHEN, "EXPLORED", StateAtom("part")),
    }
    view = planner_view("Alice", food_registry, facts)
    # all other rooms are unexplored (none); nearest is livingroom at 100
    assert str(best_plan(view)) == "go to <livingroom>(1000); explore current room <livingroom>(1000)"


# ---------------------------------------------------------------------------
# Replanning around the collaborator.
# ---------------------------------------------------------------------------


def test_replan_avoids_collaborator_room(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(KITCHEN, "EXPLORED", StateAtom("all")),
        AtomicBelief(BEDROOM, "EXPLORED", StateAtom("all")),
    }
    view = planner_view("Alice", food_registry, facts)
    assert str(best_plan(view)).endswith("explore current room <livingroom>(1000)")
    avoid = Plan((GoTo(LIVING), ExploreCurrent(LIVING)))
    assert str(best_plan(view, avoid)).endswith("explore current room <office>(3000)")


def test_replan_fallback_without_collaborator_plan(food_registry):
    rng = random.Random(11)
    for _ in range(100):
        view = random_view(rng, food_registry)
        expected = reference_plan_ranking(view)
        assert str(best_plan(view, None)) == (expected[0] if expected else "None")


def test_avoid_moves_conflicting_options_back_in_order(food_registry):
    def explored(plan):
        return {s.room.id for s in plan.steps if isinstance(s, ExploreCurrent)}

    def grasped(plan):
        return {s.object.id for s in plan.steps if isinstance(s, GoGrasp)}

    rng = random.Random(31)
    moved = 0
    for case in range(200):
        view = random_view(rng, food_registry)
        theirs = plan_options(random_view(rng, food_registry))
        if not theirs:
            continue
        avoid = rng.choice(theirs)
        ranking = plan_options(view)
        clash = [
            bool(explored(p) & explored(avoid) or grasped(p) & grasped(avoid)) for p in ranking
        ]
        expected = [p for p, c in zip(ranking, clash) if not c] + [
            p for p, c in zip(ranking, clash) if c
        ]
        assert plan_options(view, avoid) == expected, f"case {case}"
        moved += expected != ranking
    assert moved > 20


def test_replan_returns_conflicting_room_when_no_alternative():
    scn = scenario_from_dict({
        "name": "oneroom",
        "rooms": [{"name": "kitchen", "id": 1}, {"name": "bedroom", "id": 2}],
        "edges": [[1, 2, 100]],
        "bed": {"name": "bed", "id": 9, "room": 2},
        "objects": [{"name": "apple", "id": 10, "kind": "target", "room": 1}],
        "agents": [{"name": "Alice", "room": 1}, {"name": "Bob", "room": 1}],
    })
    registry = EntityRegistry(scn)
    room1 = ObjectRef("kitchen", 1)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", room1),
        AtomicBelief(ObjectRef("bedroom", 2), "EXPLORED", StateAtom("all")),
    }
    view = planner_view("Alice", registry, facts)
    avoid = Plan((ExploreCurrent(room1),))
    assert str(best_plan(view, avoid)) == "explore current room <kitchen>(1)"


# ---------------------------------------------------------------------------
# Plan stepping: completion, skipping, staleness.
# ---------------------------------------------------------------------------


def test_next_step_first_incomplete(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(apple, "IN", KITCHEN),
    }
    view = planner_view("Alice", food_registry, facts)
    plan = Plan((GoTo(KITCHEN), GoGrasp(apple)))
    assert next_step(view, plan, []) == GoGrasp(apple)


def test_next_step_subplan_done(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Alice"), "HOLD", apple),
    }
    view = planner_view("Alice", food_registry, facts)
    plan = Plan((GoTo(KITCHEN), GoGrasp(apple)))
    assert next_step(view, plan, [GoGrasp(apple)]) == SUBPLAN_DONE


def test_next_step_stale_when_target_transported(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(apple, "AT", BED),
    }
    view = planner_view("Alice", food_registry, facts)
    with pytest.raises(StalePlan, match="AT <bed>"):
        next_step(view, Plan((GoGrasp(apple),)), [])


def test_next_step_stale_when_target_taken(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Bob"), "HOLD", apple),
    }
    view = planner_view("Alice", food_registry, facts)
    with pytest.raises(StalePlan, match="Bob HOLD"):
        next_step(view, Plan((GoGrasp(apple),)), [])


def test_next_step_skips_steps_with_effects_already_true(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", OFFICE),
        AtomicBelief(OFFICE, "EXPLORED", StateAtom("all")),
    }
    view = planner_view("Alice", food_registry, facts)
    plan = Plan((GoTo(OFFICE), ExploreCurrent(OFFICE)))
    assert next_step(view, plan, []) == SUBPLAN_DONE


def random_step(rng: random.Random, registry):
    rooms = list(registry.rooms_by_id.values())
    targets = [registry.objects_by_id[i][0] for i in sorted(registry.target_ids())]
    containers = [registry.objects_by_id[i][0] for i in sorted(registry.container_ids())]
    roll = rng.random()
    if roll < 0.25:
        # A remote plan may go to a known id that is not a room.
        return GoTo(rng.choice(rooms) if rng.random() < 0.8 else BED)
    if roll < 0.4:
        return ExploreCurrent(rng.choice(rooms))
    if roll < 0.75:
        return GoGrasp(rng.choice(targets + containers))
    if roll < 0.9:
        return Put(rng.choice(targets), rng.choice(containers))
    return Transport()


def test_next_step_matches_reference_stepping(food_registry):
    """Steps, SUBPLAN_DONE and StalePlan as the documented rule has them,
    over random views, ill-sorted facts, plans and history prefixes."""
    rng = random.Random(3030)
    targets = [food_registry.objects_by_id[i][0] for i in sorted(food_registry.target_ids())]
    bowl = food_registry.objects_by_id[min(food_registry.container_ids())][0]
    outcomes = set()
    for case in range(3000):
        view = random_view(rng, food_registry)
        plan = Plan(tuple(random_step(rng, food_registry) for _ in range(rng.randint(1, 3))))
        history = [step for step in plan.steps[: rng.randint(0, len(plan.steps))] if rng.random() < 0.7]
        grasped = [step.object for step in plan.steps if isinstance(step, GoGrasp)]
        # Facts the slot reads must see through, often about an object the
        # plan grasps: an object AT a place other than the bed, an object as
        # holder, the owner AT a non-room, an object IN a non-room, an
        # object IN a known room id under another name.
        for _ in range(rng.randint(0, 3)):
            ref = rng.choice(grasped if grasped and rng.random() < 0.5 else targets + [bowl])
            odd = rng.choice((
                AtomicBelief(ref, "AT", KITCHEN),
                AtomicBelief(bowl, "HOLD", ref),
                AtomicBelief(AgentName("Alice"), "AT", BED),
                AtomicBelief(ref, "IN", BED),
                AtomicBelief(ref, "IN", ObjectRef("galley", KITCHEN.id)),
                AtomicBelief(bowl, "CONTAIN", ref),
            ))
            view.slots[slot(odd)] = odd
        try:
            actual = next_step(view, plan, history)
        except StalePlan:
            actual = STALE
        expected = reference_next_step(view, plan, history)
        assert actual == expected, f"case {case}: {plan} after {history}"
        outcomes.add(type(expected).__name__ if expected not in (STALE, SUBPLAN_DONE) else expected)
    assert outcomes == {"GoTo", "ExploreCurrent", "GoGrasp", "Put", "Transport", STALE, SUBPLAN_DONE}


# ---------------------------------------------------------------------------
# Miscoordination detection.
# ---------------------------------------------------------------------------


def test_same_room_explore_conflict_is_heavy(food_registry):
    plan = Plan((GoTo(LIVING), ExploreCurrent(LIVING)))
    report = detect_miscoordination(plan, [plan], (), "Bob", food_registry)
    assert report.heavy
    assert report.conflicts[0].kind == "same-room-explore"


def test_disjoint_plans_not_heavy(food_registry):
    mine = Plan((GoTo(LIVING), ExploreCurrent(LIVING)))
    theirs = Plan((GoTo(OFFICE), ExploreCurrent(OFFICE)))
    report = detect_miscoordination(mine, [theirs], (), "Bob", food_registry)
    assert not report.heavy
    assert report.conflicts == ()


def test_late_conflict_not_heavy(food_registry):
    apple = ObjectRef("apple", 101)
    mine = Plan((GoGrasp(apple), Put(apple, ObjectRef("bowl", 201)), Transport()))
    theirs = Plan((Transport(), ExploreCurrent(KITCHEN), GoGrasp(apple)))
    report = detect_miscoordination(mine, [theirs], (), "Bob", food_registry)
    assert report.conflicts and report.conflicts[0].kind == "same-grasp-target"
    assert not report.heavy  # their grasp sits outside the opening move


def test_conflicts_match_entities_by_id(food_registry):
    # A remote reply may name a known id under another name.
    mine = Plan((GoGrasp(ObjectRef("apple", 101)),))
    theirs = Plan((GoGrasp(ObjectRef("pomme", 101)),))
    report = detect_miscoordination(mine, [theirs], (), "Bob", food_registry)
    assert [c.kind for c in report.conflicts] == ["same-grasp-target"]
    salle = Plan((ExploreCurrent(ObjectRef("salle", 1000)),))
    assert detect_miscoordination(
        Plan((ExploreCurrent(LIVING),)), [salle], (), "Bob", food_registry
    ).conflicts


FOOD = EntityRegistry(load_scenario("food_small"))
FOOD_ROOMS = st.sampled_from(sorted(FOOD.rooms_by_id.values()))
FOOD_TARGETS = st.sampled_from(sorted(FOOD.objects_by_id[i][0] for i in FOOD.target_ids()))
FOOD_CONTAINERS = st.sampled_from(sorted(FOOD.objects_by_id[i][0] for i in FOOD.container_ids()))
FOOD_PLANS = st.lists(
    st.one_of(
        st.builds(GoTo, FOOD_ROOMS),
        st.builds(ExploreCurrent, FOOD_ROOMS),
        st.builds(GoGrasp, st.one_of(FOOD_TARGETS, FOOD_CONTAINERS)),
        st.builds(Put, FOOD_TARGETS, FOOD_CONTAINERS),
        st.just(Transport()),
    ),
    min_size=1,
    max_size=3,
).map(lambda steps: Plan(tuple(steps)))
BOWL_GRAB = Plan((GoTo(KITCHEN), GoGrasp(ObjectRef("bowl", 201))))


@settings(max_examples=400, deadline=None)
@given(mine=FOOD_PLANS, theirs=FOOD_PLANS)
@example(mine=BOWL_GRAB, theirs=BOWL_GRAB)
def test_conflict_scan_matches_the_exhaustive_oracle(mine, theirs):
    pairs, heavy = conflict_oracle(mine, theirs, FOOD.container_ids())
    report = detect_miscoordination(mine, [theirs], (), "Bob", FOOD)
    assert plan_conflicts(mine, theirs, FOOD) == bool(pairs)
    assert [(c.my_index, c.their_index, c.kind) for c in report.conflicts] == pairs
    assert report.heavy == heavy


@settings(max_examples=200, deadline=None)
@given(plan=FOOD_PLANS)
def test_plan_text_parses_back_to_the_plan(plan):
    assert parse_plan(str(plan)) == plan
    assert parse_plan(str(plan).replace(" ", "  ")) == plan  # spacing is free


def test_plan_step_entity_must_be_an_object_reference():
    with pytest.raises(sbl.ParseError, match=r"expected <name>\(id\), got 'apple'"):
        parse_plan("go grasp apple")


def test_goal_relevant_misalignment_is_heavy(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    mine = Plan((GoTo(OFFICE),))
    theirs = Plan((GoTo(BEDROOM),))
    report = detect_miscoordination(mine, [theirs], world.misalignment("Bob"), "Bob", food_registry)
    assert report.heavy
    assert [str(f) for f in report.misaligned] == ["<apple>(101) IN <kitchen>(2000)"]


def test_explored_all_misalignment_is_heavy(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<kitchen>(2000) EXPLORED all"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED none"), about="Bob")
    report = detect_miscoordination(None, [], world.misalignment("Bob"), "Bob", food_registry)
    assert report.heavy


def test_plain_misalignment_not_heavy(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("Alice AT <kitchen>(2000)"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED part"))
    report = detect_miscoordination(None, [], world.misalignment("Bob"), "Bob", food_registry)
    assert not report.heavy


# ---------------------------------------------------------------------------
# Messages.
# ---------------------------------------------------------------------------


def test_compose_message_exact_format(food_registry):
    mis = [fact("<kitchen>(2000) EXPLORED all"), fact("<apple>(123) IN <kitchen>(2000)")]
    plan = Plan((GoGrasp(ObjectRef("apple", 123)), Transport()))
    assert compose_message(mis, plan, food_registry) == (
        "FACTS: <apple>(123) IN <kitchen>(2000); <kitchen>(2000) EXPLORED all"
        " | PLAN: go grasp <apple>(123); transport"
    )


def test_compose_message_empty_facts(food_registry):
    assert compose_message([], Plan((Transport(),)), food_registry) == "FACTS: | PLAN: transport"


def test_compose_message_budget_keeps_goal_relevant(food_registry):
    mis = []
    for i in range(60):
        mis.append(fact(f"<thing_{i:02d}>({500 + i}) IN <kitchen>(2000)"))
    mis.append(fact("<apple>(101) IN <kitchen>(2000)"))  # a real target
    plan = Plan((Transport(),))
    text = compose_message(mis, plan, food_registry)
    assert len(text) <= 500
    assert "<apple>(101) IN <kitchen>(2000)" in text
    # reference greedy drop: remove least relevant (non-target) facts from
    # the back until the rendered text fits
    facts = sorted(set(mis), key=str)
    def render(kept):
        parts = ["FACTS:"]
        if kept:
            parts.append("; ".join(str(f) for f in kept))
        parts.extend(["|", "PLAN:", "transport"])
        return " ".join(parts)
    while len(render(facts)) > 500:
        for i in range(len(facts) - 1, -1, -1):
            if facts[i].subject.id != 101:
                del facts[i]
                break
    assert text == render(facts)


def test_parse_message_round_trip(food_registry):
    mis = [fact("<kitchen>(2000) EXPLORED all"), fact("<apple>(101) IN <kitchen>(2000)")]
    plan = Plan((GoGrasp(ObjectRef("apple", 101)), Transport()))
    text = compose_message(mis, plan, food_registry)
    facts, parsed_plan = parse_message(text)
    assert set(facts) == set(mis)
    assert parsed_plan == plan
    # Memoized: every recipient shares one immutable result.
    assert isinstance(facts, tuple)
    assert parse_message(text) is parse_message(text)


def test_parse_message_rejects_free_text():
    with pytest.raises(sbl.ParseError):
        parse_message("hey, the kitchen is clear, meet me at the bed")


# ---------------------------------------------------------------------------
# Visual updates.
# ---------------------------------------------------------------------------


def obs(room=KITCHEN, exploration="all", items=(), hands=(),
        contents=(), at_bed=(), colocated=()):
    return VisualObservation(
        room=room, exploration=exploration,
        items=tuple(items), hands=tuple(hands), contents=tuple(contents),
        at_bed=tuple(at_bed), colocated=tuple(colocated),
    )


def test_update_from_visual_basic(food_registry):
    world = make_world(food_registry)
    apple, bowl = ObjectRef("apple", 101), ObjectRef("bowl", 201)
    update_from_visual(world, obs(items=[apple, bowl]), food_registry)
    assert world.holds(fact("Alice AT <kitchen>(2000)"))
    assert world.holds(fact("<kitchen>(2000) EXPLORED all"))
    assert world.holds(fact("<apple>(101) IN <kitchen>(2000)"))
    assert world.holds(fact("<bowl>(201) IN <kitchen>(2000)"))


def test_update_from_visual_idempotent(food_registry):
    world = make_world(food_registry)
    observation = obs(items=[ObjectRef("apple", 101)])
    update_from_visual(world, observation, food_registry)
    before = world.snapshot()
    update_from_visual(world, observation, food_registry)
    assert world.snapshot() == before


def test_update_from_visual_collaborator_holdings(food_registry):
    world = make_world(food_registry)
    banana = ObjectRef("banana", 102)
    update_from_visual(
        world, obs(colocated=[("Bob", (banana,))]), food_registry
    )
    assert world.holds(fact("Bob HOLD <banana>(102)"))
    assert world.holds(fact("Bob AT <kitchen>(2000)"))


def test_update_from_visual_retracts_contradicted_room_contents(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    update_from_visual(world, obs(exploration="all", items=[]), food_registry)
    assert not world.holds(fact("<apple>(101) IN <kitchen>(2000)"))


def test_update_from_visual_partial_view_keeps_beliefs(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    update_from_visual(world, obs(exploration="part", items=[]), food_registry)
    assert world.holds(fact("<apple>(101) IN <kitchen>(2000)"))


def test_update_from_visual_never_downgrades_exploration(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<kitchen>(2000) EXPLORED all"))
    update_from_visual(world, obs(exploration="part"), food_registry)
    assert world.holds(fact("<kitchen>(2000) EXPLORED all"))


def test_update_from_visual_hand_sync_after_delivery(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("Alice HOLD <apple>(101)"))
    update_from_visual(
        world,
        obs(room=BEDROOM, exploration="part", hands=(), at_bed=[ObjectRef("apple", 101)]),
        food_registry,
    )
    assert not world.holds(fact("Alice HOLD <apple>(101)"))
    assert world.holds(fact("<apple>(101) AT <bed>(9000)"))


def test_update_from_visual_rejects_unknown_entity(food_registry):
    world = make_world(food_registry)
    with pytest.raises(CorruptObservation):
        update_from_visual(
            world, obs(items=[ObjectRef("ghost", 66666)]), food_registry
        )


GHOST, APPLE, BOWL = ObjectRef("ghost", 66666), ObjectRef("apple", 101), ObjectRef("bowl", 201)


@pytest.mark.parametrize("seen", [
    dict(colocated=[("Bob", (GHOST,))]),
    dict(contents=[(BOWL, GHOST)]),
    dict(contents=[(GHOST, APPLE)]),
    dict(room=BEDROOM, at_bed=[GHOST]),
], ids=["colocated hands", "contents object", "contents container", "at_bed"])
def test_update_from_visual_checks_every_reference(food_registry, seen):
    world = make_world(food_registry)
    before = world.snapshot()
    with pytest.raises(CorruptObservation, match="66666"):
        update_from_visual(world, obs(**seen), food_registry)
    assert world.snapshot() == before


def test_a_full_view_retracts_a_location_believed_under_another_name(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<red_apple>(101) IN <kitchen>(2000)"))
    update_from_visual(world, obs(exploration="all", items=[APPLE]), food_registry)
    assert not world.holds(fact("<red_apple>(101) IN <kitchen>(2000)"))
    assert world.holds(fact("<apple>(101) IN <kitchen>(2000)"))


# ---------------------------------------------------------------------------
# Message updates (the message grammar alone: no reply to any request).
# ---------------------------------------------------------------------------


def fold_inbox(world, inbox, registry):
    """The pure inbox fold with no remote reply, as on the scripted backend."""
    return update_from_messages(world, inbox_batches(world, inbox), {}, registry)


def test_inbox_batches_hold_all_mail_then_each_senders_own(food_registry):
    world = make_world(food_registry, collaborators=("Bob", "Carol"))
    inbox = [("Carol", "c1"), ("Bob", "b1"), ("Carol", "c2"), ("Bob", "b2")]
    batches = inbox_batches(world, inbox)
    assert list(batches) == [None, "Carol", "Bob"]
    assert batches[None] == inbox
    assert batches["Carol"] == [("Carol", "c1"), ("Carol", "c2")]
    assert batches["Bob"] == [("Bob", "b1"), ("Bob", "b2")]


def test_inbox_batches_ignore_an_unregistered_sender_with_a_warning(food_registry, caplog):
    world = make_world(food_registry)
    with caplog.at_level("WARNING"):
        batches = inbox_batches(world, [("Mallory", "m1"), ("Bob", "b1"), ("Mallory", "m2")])
    assert batches == {None: [("Bob", "b1")], "Bob": [("Bob", "b1")]}
    assert caplog.text.count("unregistered sender 'Mallory' ignored") == 2


def test_inbox_batches_of_no_registered_mail_are_empty(food_registry):
    world = make_world(food_registry)
    assert inbox_batches(world, []) == {}
    assert inbox_batches(world, [("Mallory", "m1")]) == {}


def test_update_from_messages_spec_example(food_registry):
    world = make_world(food_registry)
    text = (
        "FACTS: <kitchen>(2000) EXPLORED all; <apple>(101) IN <kitchen>(2000)"
        " | PLAN: go grasp <apple>(101); transport"
    )
    declared = fold_inbox(world, [("Bob", text)], food_registry)
    for about in (None, "Bob"):
        assert world.holds(fact("<kitchen>(2000) EXPLORED all"), about=about)
        assert world.holds(fact("<apple>(101) IN <kitchen>(2000)"), about=about)
    assert len(declared["Bob"].steps) == 2


def test_update_from_messages_empty_inbox(food_registry):
    world = make_world(food_registry)
    before = world.snapshot()
    declared = fold_inbox(world, [], food_registry)
    assert declared == {}
    assert world.snapshot() == before


def test_update_from_messages_plan_none(food_registry):
    world = make_world(food_registry)
    text = "FACTS: <kitchen>(2000) EXPLORED all | PLAN: None"
    declared = fold_inbox(world, [("Bob", text)], food_registry)
    assert declared == {}
    assert world.holds(fact("<kitchen>(2000) EXPLORED all"), about="Bob")


def test_update_from_messages_unparseable_ignored(food_registry):
    world = make_world(food_registry)
    before = world.snapshot()
    declared = fold_inbox(world, [("Bob", "utter gibberish !!")], food_registry)
    assert declared == {}
    assert world.snapshot() == before


def test_a_reply_section_is_read_for_its_belief_lines_only(food_registry, caplog):
    # A prose line is no belief line: it is skipped without a warning,
    # and a bulleted belief line is read.
    world = make_world(food_registry)
    section = "Here is what Alice now believes:\n- Alice BELIEVE <apple>(101) IN <kitchen>(2000)"
    reply = ReasonerResponse(sections={"Zero order beliefs": section}, raw=section)
    with caplog.at_level("WARNING"):
        facts = perceive._reply_facts(reply, world, None, food_registry)
    assert facts == [fact("<apple>(101) IN <kitchen>(2000)")]
    assert "unparseable" not in caplog.text


def test_update_from_messages_ignores_a_message_with_an_overlong_plan(food_registry):
    # Plan() rejects a fourth step; the message is unparseable, not fatal.
    world = make_world(food_registry)
    before = world.snapshot()
    text = "FACTS: <kitchen>(2000) EXPLORED all | PLAN: transport; transport; transport; transport"
    declared = fold_inbox(world, [("Bob", text)], food_registry)
    assert declared == {}
    assert world.snapshot() == before


def test_a_heard_fact_naming_an_unknown_id_is_dropped(food_registry):
    # Neither the unknown object nor the unknown room reaches a partition,
    # and the owner's own sighting of the apple stays where it was.
    world = make_world(food_registry)
    seen = fact("<apple>(101) IN <kitchen>(2000)")
    world.assert_fact(seen)
    text = "FACTS: <ghost>(66666) IN <kitchen>(2000); <apple>(101) IN <nowhere>(5) | PLAN: None"
    fold_inbox(world, [("Bob", text)], food_registry)
    assert world.facts() == [seen]
    assert world.facts(about="Bob") == []


def test_a_replied_fact_naming_an_unknown_entity_is_dropped(food_registry):
    world = make_world(food_registry)
    section = "Alice BELIEVE <ghost>(77777) HOLD <apple>(101)\nAlice BELIEVE Zed AT <kitchen>(2000)"
    reply = ReasonerResponse(sections={"Zero order beliefs": section}, raw=section)
    inbox = [("Bob", "FACTS: | PLAN: None")]
    update_from_messages(world, inbox_batches(world, inbox), {None: reply}, food_registry)
    assert world.facts() == []


SEEN = (
    "Alice AT <livingroom>(1000)",
    "<kitchen>(2000) EXPLORED all",
    "<apple>(101) IN <kitchen>(2000)",
)


@pytest.mark.parametrize("wrong", [
    "Alice AT <apple>(101)",  # an agent AT an object, not a room
    "<kitchen>(2000) EXPLORED <apple>(101)",  # a level that is an object
    "<apple>(101) AT <kitchen>(2000)",  # a target AT a room, not the bed
])
def test_a_heard_fact_of_the_wrong_sort_displaces_no_seen_belief(food_registry, wrong):
    world = make_world(food_registry)
    for line in SEEN:
        world.assert_fact(fact(line))
    before = world.facts()
    fold_inbox(world, [("Bob", f"FACTS: {wrong} | PLAN: None")], food_registry)
    assert world.facts() == before
    assert world.facts(about="Bob") == []
    view = PlannerView("Alice", food_registry, world.partition())
    assert str(best_plan(view)) == "go to <kitchen>(2000); go grasp <apple>(101)"


def test_a_replied_fact_of_the_wrong_sort_is_dropped(food_registry):
    world = make_world(food_registry)
    for line in SEEN:
        world.assert_fact(fact(line))
    before = world.facts()
    section = "Alice BELIEVE <apple>(101) AT <kitchen>(2000)"
    reply = ReasonerResponse(sections={"Zero order beliefs": section}, raw=section)
    inbox = [("Bob", "FACTS: | PLAN: None")]
    update_from_messages(world, inbox_batches(world, inbox), {None: reply}, food_registry)
    assert world.facts() == before


def test_an_own_broadcast_with_a_variable_keeps_the_model_of_its_reader(food_registry):
    # The fact is no belief: it neither lands nor clears Bob's view of Alice's hands.
    world = make_world(food_registry)
    held = fact("Alice HOLD <apple>(101)")
    world.assert_fact(held, about="Bob")
    note_sent(world, "FACTS: Alice HOLD ?x | PLAN: None", [], food_registry)
    assert world.facts(about="Bob") == [held]


# Pools for random inboxes: conflicting locations, a third held item, a
# fact with a variable, a fact that does not parse, and plans that are
# None, unknown or over-long.
INBOX_FACTS = (
    "<kitchen>(2000) EXPLORED all",
    "<kitchen>(2000) EXPLORED part",
    "<apple>(101) IN <kitchen>(2000)",
    "<apple>(101) IN <office>(3000)",
    "<apple>(101) AT <bed>(9000)",
    "<bowl>(201) CONTAIN <apple>(101)",
    "Bob HOLD <apple>(101)",
    "Bob HOLD <banana>(102)",
    "Bob HOLD <orange>(103)",
    "Carol HOLD <apple>(101)",
    "Bob AT <office>(3000)",
    "Alice AT <kitchen>(2000)",
    "?x IN <office>(3000)",
    "<kitchen EXPLORED",
)
INBOX_PLANS = (
    "None",
    "go grasp <apple>(101); transport",
    "go to <office>(3000); explore current room <office>(3000)",
    "go grasp <banana>(102)",
    "go grasp <ghost>(66666)",
    "transport; transport; transport; transport",
)
INBOX_SENDERS = ("Bob", "Carol", "Dave", "Mallory")  # Mallory is not registered


@settings(max_examples=400, deadline=None)
@given(
    texts=st.lists(
        st.builds(
            lambda facts, plan: f"FACTS: {'; '.join(facts)} | PLAN: {plan}",
            st.lists(st.sampled_from(INBOX_FACTS), max_size=4),
            st.sampled_from(INBOX_PLANS),
        ),
        min_size=1, max_size=4,
    ),
    picks=st.lists(
        st.tuples(st.sampled_from(INBOX_SENDERS), st.integers(0, 4)), max_size=12
    ),
    known=st.lists(st.sampled_from(INBOX_FACTS[:-2]), max_size=4),
)
def test_batched_scripted_update_matches_the_per_message_loop(food_registry, texts, picks, known):
    # Few texts for many messages, so texts repeat; one pick in
    # len(texts) + 1 is free text.
    texts = texts + ["utter gibberish !!"]
    inbox = [(sender, texts[i % len(texts)]) for sender, i in picks]
    worlds = []
    for _ in range(2):
        world = make_world(food_registry, collaborators=("Bob", "Carol", "Dave"))
        for about in (None, "Bob", "Carol"):
            for f in known:
                try:
                    world.assert_fact(fact(f), about=about)
                except RuleViolation:  # a third held item
                    pass
        worlds.append(world)
    expected = reference_update_from_messages(worlds[0], inbox, food_registry)
    declared = fold_inbox(worlds[1], inbox, food_registry)
    assert list(declared.items()) == list(expected.items())
    assert worlds[1].snapshot() == worlds[0].snapshot()
    for about in (None, "Bob", "Carol", "Dave"):
        assert list(worlds[1].partition(about).items()) == list(worlds[0].partition(about).items())


def test_stale_holdings_displaced_by_fresh_report(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("Bob HOLD <apple>(101)"), about="Bob")
    world.assert_fact(fact("Bob HOLD <banana>(102)"), about="Bob")
    text = "FACTS: Bob HOLD <orange>(103) | PLAN: None"
    fold_inbox(world, [("Bob", text)], food_registry)
    assert world.holds(fact("Bob HOLD <orange>(103)"), about="Bob")
    # the stale pair was displaced rather than blocking the fresh report
    held = [f for f in world.facts(about="Bob") if f.relation == "HOLD"]
    assert len(held) <= 2


# ---------------------------------------------------------------------------
# Prediction source separation.
# ---------------------------------------------------------------------------


def make_mind(registry, world) -> AgentMind:
    return AgentMind(world=world, registry=registry, reasoner=ScriptedReasoner())


def test_predict_collaborator_reads_first_order_only(food_registry):
    world = make_world(food_registry)
    mind = make_mind(food_registry, world)
    world.assert_fact(fact("<livingroom>(1000) EXPLORED none"), about="Bob")
    world.assert_fact(fact("Bob AT <kitchen>(2000)"), about="Bob")
    before = mind.predict_collaborator("Bob")
    # mutate zero heavily; predictions must not move
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED all"))
    world.assert_fact(fact("Alice AT <office>(3000)"))
    after = mind.predict_collaborator("Bob")
    assert before == after
    assert any("explore" in str(p) for p in before)


def test_predict_collaborator_empty_first_order_explores(food_registry):
    plans = make_mind(food_registry, make_world(food_registry)).predict_collaborator("Bob")
    assert len(plans) == 3
    assert all("explore current room" in str(p) for p in plans)


def test_predict_matches_self_when_views_coincide(food_registry):
    world = make_world(food_registry)
    mind = make_mind(food_registry, world)
    shared = [
        fact("<apple>(101) IN <kitchen>(2000)"),
        fact("<kitchen>(2000) EXPLORED all"),
    ]
    for f in shared:
        world.assert_fact(f)
        world.assert_fact(f, about="Bob")
    world.assert_fact(fact("Alice AT <kitchen>(2000)"))
    world.assert_fact(fact("Bob AT <kitchen>(2000)"), about="Bob")
    mine = mind.predict_self()
    theirs = mind.predict_collaborator("Bob")
    assert str(mine) == str(theirs[0])


# ---------------------------------------------------------------------------
# The decision pipeline.
# ---------------------------------------------------------------------------


def fresh_minds(scenario_name="food_small", mode="adaptive", seed=42, agents=2, reasoner=None):
    from beliefworld.scenario import load_scenario

    scn = load_scenario(scenario_name).with_agents(agents)
    registry = EntityRegistry(scn)
    state = world_sim.init(scn, seed)
    reasoner = reasoner or ScriptedReasoner()
    minds = []
    names = [n for n, _ in scn.agents]
    for name in names:
        world = BeliefWorld(name, canonical_rules(), tuple(n for n in names if n != name),
                            registry.container_ids())
        minds.append(AgentMind(world=world, registry=registry, reasoner=reasoner, mode=mode))
    return state, minds


def asked_about(reasoner, template_id: str) -> list[str]:
    """The collaborators named by the ``template_id`` requests recorded so far."""
    return [r.vars["OPPO_NAME"] for r in reasoner.requests if r.template_id == template_id]


def test_decide_communicates_on_heavy_then_acts(food_registry):
    reasoner = RecordingScripted()
    state, minds = fresh_minds(reasoner=reasoner)
    alice = minds[0]
    observation = world_sim.observe(state, "Alice")
    intent, payload = alice.decide(observation, [])
    assert isinstance(intent, SendMessage)
    assert any(r["heavy"] for r in payload["reports"])
    assert len(intent.text) <= 500
    # cooldown: the very next tick must act even if still heavy, and no
    # collaborator is predicted or judged by the reasoner, because no
    # answer could make it send
    reasoner.requests.clear()
    intent2, payload2 = alice.decide(observation, [])
    assert payload2["comm_allowed"] is False
    assert not isinstance(intent2, SendMessage)
    assert payload2["reports"] and asked_about(reasoner, "adaptive") == []
    assert asked_about(reasoner, "predict_first") == []


def test_decide_acts_when_nothing_heavy(food_registry):
    state, minds = fresh_minds()
    alice = minds[0]
    # pre-align both sides: empty misalignment, no conflicts
    observation = obs(exploration="part", items=[])
    alice.world.assert_fact(fact("Alice AT <kitchen>(2000)"), about="Bob")
    alice.world.assert_fact(fact("<kitchen>(2000) EXPLORED part"), about="Bob")
    # give Bob's model a distinct activity so predictions do not collide:
    # he sits in the goal room believing the room Alice will pick is done
    alice.world.assert_fact(fact("Bob AT <bedroom>(4000)"), about="Bob")
    alice.world.assert_fact(fact("<livingroom>(1000) EXPLORED all"), about="Bob")
    intent, payload = alice.decide(observation, [])
    assert intent is not None and not isinstance(intent, SendMessage)
    assert not any(r["heavy"] for r in payload["reports"])


def test_decide_never_mode_never_communicates():
    state, minds = fresh_minds(mode="never")
    for mind in minds:
        for _ in range(4):
            observation = world_sim.observe(state, mind.name)
            intent, _ = mind.decide(observation, [])
            assert not isinstance(intent, SendMessage)


def test_decide_always_mode_alternates():
    state, minds = fresh_minds(mode="always")
    alice = minds[0]
    observation = world_sim.observe(state, "Alice")
    kinds = []
    for _ in range(6):
        _, payload = alice.decide(observation, [])
        kinds.append(payload["decision"]["type"])
    assert kinds[0] == "communicate"
    assert all(kinds[i] != "communicate" or kinds[i + 1] != "communicate"
               for i in range(len(kinds) - 1))
    assert "communicate" in kinds[1:]


def only_third_heavy(reasoner, third: str):
    """Alice with collaborators Bob and ``third``, and her observation:
    only Bob was told the apple's room, so only the report on ``third``
    is heavy."""
    from beliefworld.scenario import load_scenario

    scn = load_scenario("food_small").with_agents(3)
    registry = EntityRegistry(scn)
    world = BeliefWorld("Alice", canonical_rules(), ("Bob", third),
                        registry.container_ids())
    mind = AgentMind(world=world, registry=registry, reasoner=reasoner)
    banana, orange = ObjectRef("banana", 102), ObjectRef("orange", 103)
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"), about="Bob")
    for collab in ("Bob", third):
        world.assert_fact(fact("Alice AT <kitchen>(2000)"), about=collab)
        world.assert_fact(fact("Alice HOLD <banana>(102)"), about=collab)
        world.assert_fact(fact("Alice HOLD <orange>(103)"), about=collab)
        world.assert_fact(fact("<kitchen>(2000) EXPLORED part"), about=collab)
        world.assert_fact(fact("<livingroom>(1000) EXPLORED all"), about=collab)
        world.assert_fact(fact(f"{collab} AT <bedroom>(4000)"), about=collab)
    # hands full, so the plan is a conflict-free transport
    observation = obs(exploration="part", items=[], hands=(banana, orange))
    return mind, observation


def test_three_agent_pairwise_heaviness():
    mind, observation = only_third_heavy(ScriptedReasoner(), "Charlie")
    intent, payload = mind.decide(observation, [])
    assert payload["plan"] == "transport"
    heavy_by = {r["collaborator"]: r["heavy"] for r in payload["reports"]}
    assert heavy_by["Charlie"] and not heavy_by["Bob"]
    assert isinstance(intent, SendMessage)


def test_message_names_the_heavy_collaborator():
    # Bob comes first among Alice's collaborators, but only the report on
    # Carol is heavy, so the message is drafted for Carol.
    reasoner = RecordingScripted()
    mind, observation = only_third_heavy(reasoner, "Carol")
    intent, _ = mind.decide(observation, [])
    assert isinstance(intent, SendMessage)
    [composed] = [r.vars for r in reasoner.requests if r.template_id == "communicate"]
    assert composed["OPPO_NAME"] == "Carol"


class RecordingScripted(ScriptedReasoner):
    """The scripted backend, keeping every request it was sent."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


class Remote(RecordingScripted):
    """A remote double that answers each template in ``replies`` with its
    fixed text and leaves every other step to the engine."""

    def __init__(self, **replies: str):
        super().__init__()
        self.replies = replies

    def complete(self, request):
        text = self.replies.get(request.template_id)
        if text is None:
            return super().complete(request)
        self.requests.append(request)
        return ReasonerResponse(sections=parse_sections(request.template_id, text), raw=text)


def verdict(answer: str) -> Remote:
    """A remote double that answers every ``adaptive`` request with one
    verdict word."""
    return Remote(adaptive=f"reasons: x\nanswer: {answer}\nmisaligned information: None")


@pytest.mark.parametrize("answer,asked", [("yes", 1), ("no", 3)])
def test_the_verdict_is_asked_until_one_report_is_heavy(answer, asked):
    # After a heavy verdict the tick's message and addressee are settled,
    # so the later collaborators' reports are mechanical.
    reasoner = verdict(answer)
    state, minds = fresh_minds("stuff_small", agents=4, reasoner=reasoner)
    mind = minds[0]
    intent, payload = mind.decide(world_sim.observe(state, mind.name), [])
    assert payload["comm_allowed"] and len(payload["reports"]) == 3
    assert asked_about(reasoner, "adaptive") == list(mind.collaborators[:asked])
    assert isinstance(intent, SendMessage) is (answer == "yes")


@pytest.mark.parametrize("mode", ["never", "always"])
def test_a_baseline_episode_asks_no_verdict(mode, monkeypatch):
    asked = []
    complete = ScriptedReasoner.complete

    def recording(reasoner, request):
        asked.append(request.template_id)
        return complete(reasoner, request)

    monkeypatch.setattr(ScriptedReasoner, "complete", recording)
    cfg = harness.RunConfig(scenario="food_small", seeds=(1,), mode=mode)
    episode, _ = harness.run_episode(cfg, 1)
    assert episode.of_kind("decision") and {"predict_zero", "plan_next"} & set(asked)
    assert "adaptive" not in asked
    # In never mode no prediction can change the intent either.
    assert ("predict_first" in asked) is (mode == "always")


def test_collaborators_are_predicted_where_the_verdict_is_asked():
    # Plan, then infer and judge: after the agent's own plan, each
    # collaborator is predicted just before its verdict is asked, and
    # neither is asked once a report is heavy.
    for answer, asked in (("yes", 1), ("no", 3)):
        reasoner = verdict(answer)
        state, minds = fresh_minds("stuff_small", agents=4, reasoner=reasoner)
        mind = minds[0]
        mind.decide(world_sim.observe(state, mind.name), [])
        order = [(r.template_id, r.vars["OPPO_NAME"]) for r in reasoner.requests]
        own = [i for i, (t, _) in enumerate(order) if t in ("predict_zero", "plan_next")]
        predicted = [i for i, (t, _) in enumerate(order) if t == "predict_first"]
        collaborators = list(mind.collaborators[:asked])
        assert [order[i][1] for i in predicted] == collaborators
        assert [order[i + 1] for i in predicted] == [("adaptive", c) for c in collaborators]
        assert own and max(own) < min(predicted)


def test_a_predicted_plan_heads_the_candidates_only_where_it_was_asked(monkeypatch):
    # On an asked tick the remote plan heads the judged candidates; on the
    # cooldown tick after the message the mechanical candidates do.
    remote = "go to <office>(3000); explore current room <office>(3000)"
    reasoner = Remote(
        predict_first=f"reasoning: x\nplans:\nplan1: {remote}\nplan2: None\nplan3: None"
    )
    state, minds = fresh_minds(reasoner=reasoner)
    alice = minds[0]
    judged = []
    judge = AgentMind.judge

    def recording(mind, collab, candidates, ask=True):
        mechanical = str(plan_options(mind.view(collab))[0])
        judged.append((str(candidates[0]), mechanical))
        return judge(mind, collab, candidates, ask)

    monkeypatch.setattr(AgentMind, "judge", recording)
    observation = world_sim.observe(state, "Alice")
    allowed = [alice.decide(observation, [])[1]["comm_allowed"] for _ in range(2)]
    assert allowed == [True, False]
    (asked, _), (skipped, mechanical) = judged
    assert asked == remote
    assert skipped == mechanical != remote
    assert asked_about(reasoner, "predict_first") == ["Bob"]


def test_stale_replan_names_the_declaring_collaborator(food_registry):
    # Carol, not the first collaborator Bob, declares a plan and takes the
    # apple Alice meant to grasp: the stale-plan replan avoids Carol's plan
    # and must name Carol as its owner.
    world = make_world(food_registry, collaborators=("Bob", "Carol"))
    reasoner = RecordingScripted()
    mind = AgentMind(world=world, registry=food_registry, reasoner=reasoner)
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    world.assert_fact(fact("Carol AT <office>(3000)"), about="Carol")
    mind.adopt(Plan((GoGrasp(ObjectRef("apple", 101)),)))
    carol_plan = "go to <office>(3000); explore current room <office>(3000)"
    inbox = [("Carol", f"FACTS: Carol HOLD <apple>(101) | PLAN: {carol_plan}")]
    mind.decide(obs(exploration="part"), inbox)
    replans = [r.vars for r in reasoner.requests if r.template_id == "replan"]
    assert replans[0]["OPPO_NAME"] == "Carol"
    assert replans[0]["OPPO_PLAN"] == carol_plan


def test_only_a_plan_carried_over_asks_for_its_next_step():
    # The plan chosen on the first tick takes the planner's first pending
    # step; on the next tick the same plan is carried over, and the
    # remote model's legal step becomes the intent.
    remote = "go to <office>(3000)"
    reasoner = Remote(plan_next=f"reasons: x\nanswer: {remote}")
    state, minds = fresh_minds(mode="never", reasoner=reasoner)
    alice = minds[0]
    observation = world_sim.observe(state, "Alice")
    intent, _ = alice.decide(observation, [])
    assert asked_about(reasoner, "predict_zero") == ["Bob"]
    assert asked_about(reasoner, "plan_next") == []
    assert intent == alice.plan.steps[0] != parse_plan(remote).steps[0]
    plan = alice.plan
    intent, _ = alice.decide(observation, [])
    assert alice.plan == plan
    assert asked_about(reasoner, "plan_next") == ["Bob"]
    assert intent == parse_plan(remote).steps[0]


def test_a_model_that_calls_every_plan_done_does_not_stall_the_agents(monkeypatch):
    # Each tick's "SUBPLAN DONE" replaces the carried plan with a fresh one,
    # whose first step the planner takes without asking again.
    reasoner = Remote(plan_next="reasons: x\nanswer: SUBPLAN DONE")
    monkeypatch.setattr(harness, "_build_reasoner", lambda cfg: reasoner)
    cfg = harness.RunConfig(scenario="food_small", seeds=(1,), mode="never")
    _, metrics = harness.run_episode(cfg, 1)
    assert asked_about(reasoner, "plan_next")
    assert metrics.transport_rate == 1.0
