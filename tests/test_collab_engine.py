"""Collaboration engine: heuristics, conflict detection, updates, decide."""

import random

import pytest

from beliefworld import sbl, world_sim
from beliefworld.actions import ExploreCurrent, GoGrasp, GoTo, Plan, Put, Transport
from beliefworld.belief_store import BeliefWorld
from beliefworld.collab_engine import (
    SUBPLAN_DONE,
    AgentMind,
    CorruptObservation,
    PlannerView,
    StalePlan,
    avoiding_plan,
    best_plan,
    candidate_plans,
    compose_message,
    detect_miscoordination,
    next_step,
    parse_message,
    predict_collaborator,
    predict_self,
    replan,
    update_from_messages,
    update_from_visual,
    zero_view,
)
from beliefworld.reasoner import ScriptedReasoner
from beliefworld.rule_consensus import canonical_rules
from beliefworld.scenario import EntityRegistry, scenario_from_dict
from beliefworld.sbl import AgentName, AtomicBelief, ObjectRef, StateAtom
from beliefworld.world_sim import VisualObservation
from universe import reference_plan_ranking

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
    return PlannerView.from_facts(owner, registry, facts)


def test_plan_ranking_matches_reference_oracle(food_registry):
    from beliefworld.collab_engine import plan_options

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
    view = PlannerView.from_facts("Alice", food_registry, facts)
    assert str(best_plan(view)) == "go grasp <apple>(101)"


def test_best_plan_done_when_everything_exhausted(food_registry):
    facts = {AtomicBelief(AgentName("Alice"), "AT", KITCHEN)}
    for room in (LIVING, KITCHEN, OFFICE, BEDROOM):
        facts.add(AtomicBelief(room, "EXPLORED", StateAtom("all")))
    view = PlannerView.from_facts("Alice", food_registry, facts)
    assert best_plan(view) is None


def test_container_fill_priority(food_registry):
    bowl = ObjectRef("bowl", 201)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Alice"), "HOLD", bowl),
        AtomicBelief(ObjectRef("apple", 101), "IN", KITCHEN),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
    assert str(best_plan(view)) == "go grasp <apple>(101); put <apple>(101) <bowl>(201)"


def test_transport_when_full(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Alice"), "HOLD", ObjectRef("apple", 101)),
        AtomicBelief(AgentName("Alice"), "HOLD", ObjectRef("banana", 102)),
        AtomicBelief(ObjectRef("orange", 103), "IN", KITCHEN),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
    assert str(best_plan(view)) == "transport"


def test_explore_prefers_unexplored_nearest(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(KITCHEN, "EXPLORED", StateAtom("part")),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
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
    view = PlannerView.from_facts("Alice", food_registry, facts)
    assert str(best_plan(view)).endswith("explore current room <livingroom>(1000)")
    avoid = Plan((GoTo(LIVING), ExploreCurrent(LIVING)))
    assert str(avoiding_plan(view, avoid)).endswith("explore current room <office>(3000)")


def test_replan_fallback_without_collaborator_plan(food_registry):
    rng = random.Random(11)
    for _ in range(100):
        view = random_view(rng, food_registry)
        assert avoiding_plan(view, None) == best_plan(view)


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
    view = PlannerView.from_facts("Alice", registry, facts)
    avoid = Plan((ExploreCurrent(room1),))
    assert str(avoiding_plan(view, avoid)) == "explore current room <kitchen>(1)"


# ---------------------------------------------------------------------------
# Plan stepping: completion, skipping, staleness.
# ---------------------------------------------------------------------------


def test_next_step_first_incomplete(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(apple, "IN", KITCHEN),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
    plan = Plan((GoTo(KITCHEN), GoGrasp(apple)))
    assert next_step(view, plan, []) == GoGrasp(apple)


def test_next_step_subplan_done(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Alice"), "HOLD", apple),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
    plan = Plan((GoTo(KITCHEN), GoGrasp(apple)))
    assert next_step(view, plan, [GoGrasp(apple)]) == SUBPLAN_DONE


def test_next_step_stale_when_target_transported(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(apple, "AT", BED),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
    with pytest.raises(StalePlan, match="transported"):
        next_step(view, Plan((GoGrasp(apple),)), [])


def test_next_step_stale_when_target_taken(food_registry):
    apple = ObjectRef("apple", 101)
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", KITCHEN),
        AtomicBelief(AgentName("Bob"), "HOLD", apple),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
    with pytest.raises(StalePlan, match="held by Bob"):
        next_step(view, Plan((GoGrasp(apple),)), [])


def test_next_step_skips_steps_with_effects_already_true(food_registry):
    facts = {
        AtomicBelief(AgentName("Alice"), "AT", OFFICE),
        AtomicBelief(OFFICE, "EXPLORED", StateAtom("all")),
    }
    view = PlannerView.from_facts("Alice", food_registry, facts)
    plan = Plan((GoTo(OFFICE), ExploreCurrent(OFFICE)))
    assert next_step(view, plan, []) == SUBPLAN_DONE


# ---------------------------------------------------------------------------
# Miscoordination detection.
# ---------------------------------------------------------------------------


def test_same_room_explore_conflict_is_heavy(food_registry):
    world = make_world(food_registry)
    plan = Plan((GoTo(LIVING), ExploreCurrent(LIVING)))
    report = detect_miscoordination(plan, [plan], world, "Bob", food_registry)
    assert report.heavy
    assert report.conflicts[0].kind == "same-room-explore"


def test_disjoint_plans_not_heavy(food_registry):
    world = make_world(food_registry)
    mine = Plan((GoTo(LIVING), ExploreCurrent(LIVING)))
    theirs = Plan((GoTo(OFFICE), ExploreCurrent(OFFICE)))
    report = detect_miscoordination(mine, [theirs], world, "Bob", food_registry)
    assert not report.heavy
    assert report.conflicts == ()


def test_late_conflict_not_heavy(food_registry):
    world = make_world(food_registry)
    apple = ObjectRef("apple", 101)
    mine = Plan((GoGrasp(apple), Put(apple, ObjectRef("bowl", 201)), Transport()))
    theirs = Plan((Transport(), ExploreCurrent(KITCHEN), GoGrasp(apple)))
    report = detect_miscoordination(mine, [theirs], world, "Bob", food_registry)
    assert report.conflicts and report.conflicts[0].kind == "same-grasp-target"
    assert not report.heavy  # their grasp sits outside the opening move


def test_goal_relevant_misalignment_is_heavy(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    mine = Plan((GoTo(OFFICE),))
    theirs = Plan((GoTo(BEDROOM),))
    report = detect_miscoordination(mine, [theirs], world, "Bob", food_registry)
    assert report.heavy
    assert [str(f) for f in report.misaligned.facts] == ["<apple>(101) IN <kitchen>(2000)"]


def test_explored_all_misalignment_is_heavy(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("<kitchen>(2000) EXPLORED all"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED none"), about="Bob")
    report = detect_miscoordination(None, [], world, "Bob", food_registry)
    assert report.heavy


def test_plain_misalignment_not_heavy(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("Alice AT <kitchen>(2000)"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED part"))
    report = detect_miscoordination(None, [], world, "Bob", food_registry)
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


def test_parse_message_rejects_free_text():
    with pytest.raises(sbl.ParseError):
        parse_message("hey, the kitchen is clear, meet me at the bed")


# ---------------------------------------------------------------------------
# Visual updates.
# ---------------------------------------------------------------------------


def obs(agent="Alice", room=KITCHEN, exploration="all", items=(), hands=(),
        contents=(), at_bed=(), colocated=(), frame=0):
    return VisualObservation(
        agent=agent, frame=frame, room=room, exploration=exploration,
        items=tuple(items), hands=tuple(hands), contents=tuple(contents),
        at_bed=tuple(at_bed), colocated=tuple(colocated),
    )


def test_update_from_visual_basic(food_registry):
    world = make_world(food_registry)
    apple, bowl = ObjectRef("apple", 101), ObjectRef("bowl", 201)
    update_from_visual(world, obs(items=[(apple, "target"), (bowl, "container")]), food_registry)
    assert world.holds(fact("Alice AT <kitchen>(2000)"))
    assert world.holds(fact("<kitchen>(2000) EXPLORED all"))
    assert world.holds(fact("<apple>(101) IN <kitchen>(2000)"))
    assert world.holds(fact("<bowl>(201) IN <kitchen>(2000)"))


def test_update_from_visual_idempotent(food_registry):
    world = make_world(food_registry)
    observation = obs(items=[(ObjectRef("apple", 101), "target")])
    update_from_visual(world, observation, food_registry)
    before = world.snapshot()
    update_from_visual(world, observation, food_registry)
    assert world.snapshot() == before


def test_update_from_visual_collaborator_holdings(food_registry):
    world = make_world(food_registry)
    banana = ObjectRef("banana", 102)
    update_from_visual(
        world, obs(colocated=[("Bob", ((banana, "target"),))]), food_registry
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
            world, obs(items=[(ObjectRef("ghost", 66666), "target")]), food_registry
        )


# ---------------------------------------------------------------------------
# Message updates (through the scripted backend).
# ---------------------------------------------------------------------------


def test_update_from_messages_spec_example(food_registry):
    world = make_world(food_registry)
    reasoner = ScriptedReasoner()
    text = (
        "FACTS: <kitchen>(2000) EXPLORED all; <apple>(101) IN <kitchen>(2000)"
        " | PLAN: go grasp <apple>(101); transport"
    )
    declared = update_from_messages(world, [("Bob", text)], reasoner, food_registry)
    for about in (None, "Bob"):
        assert world.holds(fact("<kitchen>(2000) EXPLORED all"), about=about)
        assert world.holds(fact("<apple>(101) IN <kitchen>(2000)"), about=about)
    assert len(declared["Bob"].steps) == 2


def test_update_from_messages_empty_inbox(food_registry):
    world = make_world(food_registry)
    before = world.snapshot()
    declared = update_from_messages(world, [], ScriptedReasoner(), food_registry)
    assert declared == {}
    assert world.snapshot() == before


def test_update_from_messages_plan_none(food_registry):
    world = make_world(food_registry)
    text = "FACTS: <kitchen>(2000) EXPLORED all | PLAN: None"
    declared = update_from_messages(world, [("Bob", text)], ScriptedReasoner(), food_registry)
    assert declared == {}
    assert world.holds(fact("<kitchen>(2000) EXPLORED all"), about="Bob")


def test_update_from_messages_unparseable_ignored(food_registry):
    world = make_world(food_registry)
    before = world.snapshot()
    declared = update_from_messages(
        world, [("Bob", "utter gibberish !!")], ScriptedReasoner(), food_registry
    )
    assert declared == {}
    assert world.snapshot() == before


def test_stale_holdings_displaced_by_fresh_report(food_registry):
    world = make_world(food_registry)
    world.assert_fact(fact("Bob HOLD <apple>(101)"), about="Bob")
    world.assert_fact(fact("Bob HOLD <banana>(102)"), about="Bob")
    text = "FACTS: Bob HOLD <orange>(103) | PLAN: None"
    update_from_messages(world, [("Bob", text)], ScriptedReasoner(), food_registry)
    assert world.holds(fact("Bob HOLD <orange>(103)"), about="Bob")
    # the stale pair was displaced rather than blocking the fresh report
    held = [f for f in world.facts(about="Bob") if f.relation == "HOLD"]
    assert len(held) <= 2


# ---------------------------------------------------------------------------
# Prediction source separation.
# ---------------------------------------------------------------------------


def test_predict_collaborator_reads_first_order_only(food_registry):
    world = make_world(food_registry)
    reasoner = ScriptedReasoner()
    world.assert_fact(fact("<livingroom>(1000) EXPLORED none"), about="Bob")
    world.assert_fact(fact("Bob AT <kitchen>(2000)"), about="Bob")
    before = predict_collaborator(world, "Bob", food_registry.goal, reasoner, food_registry)
    # mutate zero heavily; predictions must not move
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED all"))
    world.assert_fact(fact("Alice AT <office>(3000)"))
    after = predict_collaborator(world, "Bob", food_registry.goal, reasoner, food_registry)
    assert before == after
    assert any("explore" in str(p) for p in before)


def test_predict_collaborator_empty_first_order_explores(food_registry):
    world = make_world(food_registry)
    plans = predict_collaborator(
        world, "Bob", food_registry.goal, ScriptedReasoner(), food_registry
    )
    assert len(plans) == 3
    assert all("explore current room" in str(p) for p in plans)


def test_predict_matches_self_when_views_coincide(food_registry):
    world = make_world(food_registry)
    reasoner = ScriptedReasoner()
    shared = [
        fact("<apple>(101) IN <kitchen>(2000)"),
        fact("<kitchen>(2000) EXPLORED all"),
    ]
    for f in shared:
        world.assert_fact(f)
        world.assert_fact(f, about="Bob")
    world.assert_fact(fact("Alice AT <kitchen>(2000)"))
    world.assert_fact(fact("Bob AT <kitchen>(2000)"), about="Bob")
    mine = predict_self(world, food_registry.goal, reasoner, food_registry, "Bob")
    theirs = predict_collaborator(world, "Bob", food_registry.goal, reasoner, food_registry)
    assert str(mine) == str(theirs[0])


# ---------------------------------------------------------------------------
# The decision pipeline.
# ---------------------------------------------------------------------------


def fresh_minds(scenario_name="food_small", mode="adaptive", seed=42):
    from beliefworld.scenario import load_scenario

    scn = load_scenario(scenario_name)
    registry = EntityRegistry(scn)
    state = world_sim.init(scn, seed)
    reasoner = ScriptedReasoner()
    minds = []
    names = [n for n, _ in scn.agents]
    for name in names:
        world = BeliefWorld(name, canonical_rules(), tuple(n for n in names if n != name),
                            registry.container_ids())
        minds.append(AgentMind(name=name, world=world, registry=registry,
                               reasoner=reasoner, goal=scn.goal, mode=mode))
    return state, minds


def test_decide_communicates_on_heavy_then_acts(food_registry):
    state, minds = fresh_minds()
    alice = minds[0]
    observation = world_sim.observe(state, "Alice")
    decision, payload = alice.decide(observation, [])
    assert decision is not None
    if decision.kind == "communicate":
        assert any(r["heavy"] for r in payload["reports"])
        assert len(decision.message) <= 500
        # cooldown: the very next tick must act even if still heavy
        decision2, payload2 = alice.decide(observation, [])
        assert payload2["comm_allowed"] is False
        assert decision2 is None or decision2.kind == "act"


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
    decision, payload = alice.decide(observation, [])
    assert decision is not None and decision.kind == "act"
    assert not any(r["heavy"] for r in payload["reports"])


def test_decide_never_mode_never_communicates():
    state, minds = fresh_minds(mode="never")
    for mind in minds:
        for _ in range(4):
            observation = world_sim.observe(state, mind.name)
            decision, _ = mind.decide(observation, [])
            assert decision is None or decision.kind == "act"


def test_decide_always_mode_alternates():
    state, minds = fresh_minds(mode="always")
    alice = minds[0]
    observation = world_sim.observe(state, "Alice")
    kinds = []
    for _ in range(6):
        decision, _ = alice.decide(observation, [])
        kinds.append(decision.kind if decision else "idle")
    assert kinds[0] == "communicate"
    assert all(kinds[i] != "communicate" or kinds[i + 1] != "communicate"
               for i in range(len(kinds) - 1))
    assert "communicate" in kinds[1:]


def test_three_agent_pairwise_heaviness():
    from beliefworld.scenario import load_scenario

    scn = load_scenario("food_small").with_agents(3)
    registry = EntityRegistry(scn)
    # heavy misalignment against Charlie only: only Bob was told the fact
    world = BeliefWorld("Alice", canonical_rules(), ("Bob", "Charlie"),
                        registry.container_ids())
    mind = AgentMind(name="Alice", world=world, registry=registry,
                     reasoner=ScriptedReasoner(), goal=registry.goal)
    banana, orange = ObjectRef("banana", 102), ObjectRef("orange", 103)
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"))
    world.assert_fact(fact("<apple>(101) IN <kitchen>(2000)"), about="Bob")
    for collab in ("Bob", "Charlie"):
        world.assert_fact(fact("Alice AT <kitchen>(2000)"), about=collab)
        world.assert_fact(fact("Alice HOLD <banana>(102)"), about=collab)
        world.assert_fact(fact("Alice HOLD <orange>(103)"), about=collab)
        world.assert_fact(fact("<kitchen>(2000) EXPLORED part"), about=collab)
        world.assert_fact(fact("<livingroom>(1000) EXPLORED all"), about=collab)
        world.assert_fact(fact(f"{collab} AT <bedroom>(4000)"), about=collab)
    # hands full, so the plan is a conflict-free transport
    observation = obs(exploration="part", items=[],
                      hands=((banana, "target"), (orange, "target")))
    decision, payload = mind.decide(observation, [])
    assert payload["plan"] == "transport"
    heavy_by = {r["collaborator"]: r["heavy"] for r in payload["reports"]}
    assert heavy_by["Charlie"] and not heavy_by["Bob"]
    assert decision.kind == "communicate"
