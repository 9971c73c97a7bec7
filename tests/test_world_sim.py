"""Simulator: determinism, frame accounting, capacities, observability."""

import copy
import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefworld import world_sim
from beliefworld.actions import ExploreCurrent, GoGrasp, GoTo, Put, SendMessage, Transport
from beliefworld.belief_store import BeliefWorld
from beliefworld.perceive import update_from_visual
from beliefworld.rule_consensus import canonical_rules
from beliefworld.scenario import ScenarioError, load_scenario, scenario_from_dict
from beliefworld.sbl import AtomicBelief, ObjectRef
from universe import reference_invariant_violation, reference_observe


def tiny_scenario(reveal=0.5, **overrides):
    data = {
        "name": "tiny",
        "rooms": [
            {"name": "kitchen", "id": 2000},
            {"name": "office", "id": 3000},
            {"name": "bedroom", "id": 4000},
        ],
        "edges": [[2000, 3000, 100], [3000, 4000, 100]],
        "bed": {"name": "bed", "id": 9000, "room": 4000},
        "objects": [
            {"name": "apple", "id": 1, "kind": "target", "room": 2000},
            {"name": "pen", "id": 2, "kind": "target", "room": 3000},
            {"name": "banana", "id": 3, "kind": "target", "room": 2000},
            {"name": "orange", "id": 4, "kind": "target", "room": 2000},
            {"name": "bread", "id": 5, "kind": "target", "room": 2000},
            {"name": "bowl", "id": 9, "kind": "container", "room": 2000},
        ],
        "agents": [
            {"name": "Alice", "room": 2000},
            {"name": "Bob", "room": 2000},
        ],
        "frame_budget": 3000,
        "reveal_fraction": reveal,
    }
    data.update(overrides)
    return scenario_from_dict(data)


def run_until_idle(state, agent, action):
    """Submit an action and apply frames until that agent completes it."""
    results = world_sim.apply(state, {agent: action})
    result = results[agent]
    while result.status == "in_progress":
        results = world_sim.apply(state, {})
        result = results[agent]
    return result


KITCHEN = ObjectRef("kitchen", 2000)
OFFICE = ObjectRef("office", 3000)
BEDROOM = ObjectRef("bedroom", 4000)
APPLE = ObjectRef("apple", 1)
PEN = ObjectRef("pen", 2)
BANANA = ObjectRef("banana", 3)
ORANGE = ObjectRef("orange", 4)
BREAD = ObjectRef("bread", 5)
BOWL = ObjectRef("bowl", 9)
PLATE = ObjectRef("plate", 8)


def test_init_deterministic():
    scn = load_scenario("food_small")
    a = world_sim.init(scn, 42)
    b = world_sim.init(scn, 42)
    assert a.locations == b.locations
    for x, y in zip(a.agents.values(), b.agents.values()):
        assert (x.revealed, x.explored) == (y.revealed, y.explored)
    assert a.frame == 0
    assert len(a.locations) == 12  # 10 targets + 2 containers placed


def test_init_validation_rejects_disconnected_graph():
    with pytest.raises(ScenarioError, match="not connected"):
        tiny_scenario(edges=[[2000, 3000, 100]])


def test_scenario_validation_collects_violations():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"rooms": [], "objects": [], "agents": []})
    text = str(err.value)
    assert "room" in text and "target" in text and "two agents" in text


def test_goto_costs_edge_distance_frames():
    state = world_sim.init(tiny_scenario(), 1)
    start = state.frame
    result = run_until_idle(state, "Alice", GoTo(OFFICE))
    assert result.status == "completed"
    assert state.frame - start == 100
    assert state.agents["Alice"].room_id == 3000


def test_goto_multi_hop_path_cost():
    state = world_sim.init(tiny_scenario(), 1)
    start = state.frame
    result = run_until_idle(state, "Alice", GoTo(BEDROOM))
    assert result.status == "completed"
    assert state.frame - start == 200


def test_explore_reveals_all_and_costs_50():
    state = world_sim.init(tiny_scenario(reveal=0.0), 1)
    start = state.frame
    result = run_until_idle(state, "Alice", ExploreCurrent(KITCHEN))
    assert result.status == "completed"
    assert state.frame - start == 50
    assert state.agents["Alice"].explored[2000] == "all"
    obs = world_sim.observe(state, "Alice")
    assert {ref.id for ref in obs.items} == {1, 3, 4, 5, 9}


def test_entry_reveal_zero_fraction_sets_part():
    state = world_sim.init(tiny_scenario(reveal=0.0), 1)
    obs = world_sim.observe(state, "Alice")
    assert obs.exploration == "part"
    assert obs.items == ()


def test_entry_reveal_full_fraction():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    obs = world_sim.observe(state, "Alice")
    assert {ref.id for ref in obs.items} == {1, 3, 4, 5, 9}


def test_an_agents_reveals_and_exploration_are_its_own():
    # Bob's explore and moves draw from his reveal stream alone and raise
    # his levels alone.  Alice's colocated teammates differ between the
    # runs, so whole observations are not compared.
    def alice_tour(bob_explores):
        state = world_sim.init(tiny_scenario(reveal=0.5), 3)
        if bob_explores:
            run_until_idle(state, "Bob", ExploreCurrent(KITCHEN))
            assert state.agents["Alice"].explored[2000] == "part"
            run_until_idle(state, "Bob", GoTo(OFFICE))
        seen = []
        for room in (OFFICE, BEDROOM, KITCHEN):
            run_until_idle(state, "Alice", GoTo(room))
            obs = world_sim.observe(state, "Alice")
            seen.append((obs.room, obs.exploration, obs.items))
        return seen

    assert alice_tour(bob_explores=True) == alice_tour(bob_explores=False)


def test_entry_reveal_seeded_replay():
    scn = tiny_scenario(reveal=0.5)
    sets = {frozenset(world_sim.init(scn, 7).agents["Alice"].revealed) for _ in range(3)}
    assert len(sets) == 1


def test_grasp_and_capacity_limits():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    assert run_until_idle(state, "Alice", GoGrasp(APPLE)).status == "completed"
    assert run_until_idle(state, "Alice", GoGrasp(BANANA)).status == "completed"
    results = world_sim.apply(state, {"Alice": GoGrasp(ORANGE)})
    assert results["Alice"].status == "rejected"
    assert "full" in results["Alice"].detail


def test_put_and_container_capacity():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    run_until_idle(state, "Alice", GoGrasp(BOWL))
    for item in (APPLE, BANANA, ORANGE):
        run_until_idle(state, "Alice", GoGrasp(item))
        result = run_until_idle(state, "Alice", Put(item, BOWL))
        assert result.status == "completed"
    run_until_idle(state, "Alice", GoGrasp(BREAD))
    results = world_sim.apply(state, {"Alice": Put(BREAD, BOWL)})
    assert results["Alice"].status == "rejected"
    assert "full" in results["Alice"].detail


# (objects grasped first, the intent, what the rejection says); Alice
# starts in the kitchen with everything but the pen in view.  Hands hold
# one container at most, so only the bowl put into itself reaches the
# container-in-container check.
REJECTIONS = {
    "unknown room": ((), GoTo(ObjectRef("attic", 7000)), "unknown room <attic>(7000)"),
    "same room": ((), GoTo(KITCHEN), "already in that room"),
    "not graspable": ((), GoGrasp(KITCHEN), "not a graspable object: <kitchen>(2000)"),
    "second container": ((BOWL,), GoGrasp(PLATE), "already holding a container"),
    "object not held": ((BOWL,), Put(APPLE, BOWL), "not holding <apple>(1)"),
    "container not held": ((APPLE,), Put(APPLE, BOWL), "not holding <bowl>(9)"),
    "not a container": ((APPLE, BANANA), Put(APPLE, BANANA), "<banana>(3) is not a container"),
    "container in container": (
        (BOWL,), Put(BOWL, BOWL), "cannot put a container inside a container"
    ),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_illegal_intent_is_rejected_with_its_reason(case):
    grasped, intent, reason = REJECTIONS[case]
    scenario = tiny_scenario(reveal=1.0)
    scenario = replace(scenario, objects=scenario.objects + ((PLATE, "container", 2000),))
    state = world_sim.init(scenario, 1)
    for ref in grasped:
        assert run_until_idle(state, "Alice", GoGrasp(ref)).status == "completed"
    results = world_sim.apply(state, {"Alice": intent})
    assert (results["Alice"].status, results["Alice"].detail) == ("rejected", reason)
    assert state.agents["Alice"].busy is None


# (location changes that corrupt a fresh state, what the violation says);
# the plate is a second container in the kitchen, beside the bowl.
CORRUPTIONS = {
    "no location": ({1: None}, "object 1 has no location"),
    "unknown room": ({1: ("room", 7000)}, "object 1 in unknown room 7000"),
    "unknown holder": ({1: ("held", "Zed")}, "object 1 held by unknown agent Zed"),
    "inside a non-container": ({1: ("inside", 3)}, "object 1 inside non-container 3"),
    "unknown tag": ({1: ("floor", 2000)}, "object 1 in unknown location"),
    "three held": (dict.fromkeys((1, 3, 4), ("held", "Alice")), "Alice holds more than 2"),
    "two containers held": (dict.fromkeys((8, 9), ("held", "Alice")), "more than one container"),
    "over capacity": (dict.fromkeys((1, 3, 4, 5), ("inside", 9)), "container 9 over capacity"),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_every_invariant_fires_on_a_corrupted_state(case):
    changes, message = CORRUPTIONS[case]
    scenario = tiny_scenario()
    scenario = replace(scenario, objects=scenario.objects + ((PLATE, "container", 2000),))
    state = world_sim.init(scenario, 1)
    for oid, loc in changes.items():
        if loc is None:
            del state.locations[oid]
        else:
            state.locations[oid] = loc
    with pytest.raises(world_sim.InvariantViolation, match=message) as caught:
        world_sim.apply(state, {})
    assert str(caught.value) == reference_invariant_violation(state)


def test_held_container_contents_are_seen_and_believed():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    for intent in (GoGrasp(BOWL), GoGrasp(APPLE), Put(APPLE, BOWL)):
        assert run_until_idle(state, "Alice", intent).status == "completed"
    obs = world_sim.observe(state, "Bob")  # Bob shares Alice's room
    assert obs.contents == ((BOWL, APPLE),)
    registry = state.registry
    world = BeliefWorld("Bob", canonical_rules(), ("Alice",), registry)
    update_from_visual(world, obs)
    assert world.holds(AtomicBelief(BOWL, "CONTAIN", APPLE))


def test_transport_four_items_container_lost():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    run_until_idle(state, "Alice", GoGrasp(BOWL))
    for item in (APPLE, BANANA, ORANGE):
        run_until_idle(state, "Alice", GoGrasp(item))
        run_until_idle(state, "Alice", Put(item, BOWL))
    run_until_idle(state, "Alice", GoGrasp(BREAD))
    start = state.frame
    result = run_until_idle(state, "Alice", Transport())
    assert result.status == "completed"
    assert state.frame - start == 200 + 20  # path to goal room + drop
    assert state.transported_ids() == [1, 3, 4, 5]
    assert state.locations[9] == ("bed",)
    # the lost container can never be grasped again
    results = world_sim.apply(state, {"Alice": GoGrasp(BOWL)})
    assert results["Alice"].status == "rejected"


def test_send_message_costs_one_frame_and_delivers_next_tick():
    state = world_sim.init(tiny_scenario(), 1)
    start = state.frame
    results = world_sim.apply(state, {"Alice": SendMessage("hello")})
    assert results["Alice"].status == "completed"
    assert state.frame - start == 1
    assert world_sim.drain_inbox(state, "Bob") == [("Alice", "hello")]
    assert world_sim.drain_inbox(state, "Bob") == []
    assert world_sim.drain_inbox(state, "Alice") == []


def test_messages_sent_on_one_frame_reach_the_others_in_agent_order():
    agents = [{"name": name, "room": 2000} for name in ("Alice", "Bob", "Carol")]
    state = world_sim.init(tiny_scenario(agents=agents), 1)
    sent = {"Bob": SendMessage("from Bob"), "Alice": SendMessage("from Alice")}
    results = world_sim.apply(state, sent)
    assert results["Alice"].status == results["Bob"].status == "completed"
    assert world_sim.drain_inbox(state, "Carol") == [("Alice", "from Alice"), ("Bob", "from Bob")]
    assert world_sim.drain_inbox(state, "Alice") == [("Bob", "from Bob")]
    assert world_sim.drain_inbox(state, "Bob") == [("Alice", "from Alice")]


def test_busy_agent_must_continue():
    state = world_sim.init(tiny_scenario(), 1)
    world_sim.apply(state, {"Alice": GoTo(OFFICE)})
    results = world_sim.apply(state, {"Alice": GoTo(BEDROOM)})
    assert results["Alice"].status == "rejected"
    assert "busy" in results["Alice"].detail
    results = world_sim.apply(state, {})
    assert results["Alice"].status == "in_progress"


def test_grasp_race_lower_index_wins():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    results = world_sim.apply(state, {"Alice": GoGrasp(APPLE), "Bob": GoGrasp(APPLE)})
    assert results["Alice"].status == "in_progress"
    for _ in range(19):
        results = world_sim.apply(state, {})
    assert results["Alice"].status == "completed"
    assert results["Bob"].status == "rejected"
    assert state.locations[1] == ("held", "Alice")
    assert state.objects_at("held", "Bob") == []


def test_frame_advances_exactly_one_per_apply():
    state = world_sim.init(tiny_scenario(), 1)
    for expected in range(1, 30):
        world_sim.apply(state, {})
        assert state.frame == expected


def test_is_done_boundaries():
    scn = tiny_scenario(frame_budget=10)
    state = world_sim.init(scn, 1)
    done, _ = world_sim.is_done(state)
    assert not done
    for _ in range(9):
        world_sim.apply(state, {})
    assert world_sim.is_done(state) == (False, "")
    world_sim.apply(state, {})
    assert world_sim.is_done(state) == (True, "timeout")


def test_is_done_complete():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    for agent, items in (("Alice", (APPLE, BANANA)), ("Bob", (ORANGE, BREAD))):
        for item in items:
            run_until_idle(state, agent, GoGrasp(item))
        run_until_idle(state, agent, Transport())
    run_until_idle(state, "Alice", GoTo(OFFICE))
    run_until_idle(state, "Alice", GoGrasp(PEN))
    run_until_idle(state, "Alice", Transport())
    done, reason = world_sim.is_done(state)
    assert done and reason == "complete"


def test_observation_invariant_to_unrevealed_items_elsewhere():
    # Moving a never-revealed object between the *other* rooms must not
    # change what an agent observes where it stands.
    base = tiny_scenario(reveal=0.0)
    objects = list(base.objects)
    objects[1] = (PEN, "target", 4000)  # pen moves office -> goal room
    swapped = replace(base, objects=tuple(objects))
    a = world_sim.init(base, 3)
    b = world_sim.init(swapped, 3)
    assert world_sim.observe(a, "Alice") == world_sim.observe(b, "Alice")


def test_observation_unchanged_by_an_idle_frame():
    # Nothing happened, so a finished agent sees nothing new and may sleep.
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    before = world_sim.observe(state, "Alice")
    world_sim.apply(state, {})
    assert world_sim.observe(state, "Alice") == before


def test_colocated_hands_visible():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    run_until_idle(state, "Bob", GoGrasp(BANANA))
    obs = world_sim.observe(state, "Alice")
    assert obs.colocated == (("Bob", (BANANA,)),)


def test_at_bed_pile_visible_in_goal_room():
    state = world_sim.init(tiny_scenario(reveal=1.0), 1)
    run_until_idle(state, "Alice", GoGrasp(APPLE))
    run_until_idle(state, "Alice", Transport())
    obs = world_sim.observe(state, "Alice")
    assert obs.at_bed == (APPLE,)
    assert ObjectRef("bed", 9000) in obs.items


def test_trajectory_determinism_bitwise():
    scn = load_scenario("food_small")
    def trajectory(seed):
        state = world_sim.init(scn, seed)
        rng = random.Random(seed)
        snapshot = []
        for _ in range(300):
            intents = {}
            for agent in state.agents.values():
                if agent.busy is None:
                    options = world_sim.legal_intents(state, agent.name)
                    if options:
                        intents[agent.name] = rng.choice(options)
            world_sim.apply(state, intents)
            snapshot.append((state.frame, tuple(sorted(state.locations.items()))))
        return snapshot
    assert trajectory(11) == trajectory(11)


# sha256 of a whole episode of random legal intents: every frame, every
# object's location and every agent's ActionResult.  The seeds make puts
# and same-frame grasp races happen, which no scripted workload does, so
# any change to legal_intents' list or order or to a start or completion
# rule shows here.
FUZZ_DIGESTS = {
    ("food_small", 11): "3bd8bacc41fd6c1f3a6305deb5f95c427ce84ad5629e347ebe4942b82fe8a8bf",
    ("food_small", 17): "0429b0df62d1b6644b9e50b95b2217d8dd810ca8c7eb9dc5a1a6ced3862267ab",
    ("food_small", 20): "c8db334c0c9be8278b3db3d238810579842d4f8e587d7323f59d541e27fb710d",
    ("stuff_small", 1): "8346c7d0bdaa71b9e3d9a4b84f07825c41dd87fc07b9e9695f78dd4c70728382",
    ("stuff_small", 2): "ab7bde2cf67ea885cba0855f7a5070b67bd7ce452edc9e119ce2397c42f68330",
    ("stuff_small", 23): "e8e5a4e8eea149563a3f1c92b697af72faf4e8887a5c342d9cf99b2dfa516420",
}


def fuzz_frames(scenario, seed):
    """The state and every agent's result after each frame of one episode
    of random legal intents (the state is the same object each time)."""
    state = world_sim.init(load_scenario(scenario), seed)
    rng = random.Random(seed)
    while not world_sim.is_done(state)[0]:
        intents = {}
        for agent in state.agents.values():
            options = world_sim.legal_intents(state, agent.name)
            if options:
                intents[agent.name] = rng.choice(options)
        yield state, world_sim.apply(state, intents)


@pytest.mark.parametrize("scenario, seed", FUZZ_DIGESTS)
def test_fuzz_trajectory_digest(scenario, seed):
    digest = hashlib.sha256()
    for state, results in fuzz_frames(scenario, seed):
        frame = (state.frame, sorted(state.locations.items()), sorted(results.items()))
        digest.update(repr(frame).encode())
    assert digest.hexdigest() == FUZZ_DIGESTS[scenario, seed]


@pytest.mark.parametrize("scenario, seed", FUZZ_DIGESTS)
def test_grouped_reads_match_per_location_scans(scenario, seed):
    # The fuzz trajectories put, fill containers and race grasps, which no
    # scripted episode does; every frame is checked, for every agent.
    frames = 0
    for state, _ in fuzz_frames(scenario, seed):
        frames += 1
        for name in state.agents:
            assert world_sim.observe(state, name) == reference_observe(state, name)
        assert reference_invariant_violation(state) is None
    assert frames > 100


def test_a_put_still_starts_when_it_completes(monkeypatch):
    # Completing a put does not check it again: only the agent's own actions
    # change its hands or fill the container it holds, and the agent is busy
    # until the put completes.  Random legal intents, biased toward puts and
    # grasps, over both scenarios and teams of 2 to 4, check that at every
    # put completion the start rule still accepts the put.
    complete = world_sim._complete
    puts = []

    def checked(state, agent, action):
        if isinstance(action, Put):
            assert world_sim._start(state, agent, action) == (None, world_sim.PUT_COST)
            puts.append(action)
        return complete(state, agent, action)

    monkeypatch.setattr(world_sim, "_complete", checked)
    rng = random.Random(1529)
    for _ in range(40):
        scenario = load_scenario(rng.choice(("food_small", "stuff_small")))
        scn = scenario.with_agents(rng.randint(2, 4))
        state = world_sim.init(scn, rng.randint(0, 10**6))
        while not world_sim.is_done(state)[0]:
            intents = {}
            for agent in state.agents.values():
                options = world_sim.legal_intents(state, agent.name) if agent.busy is None else []
                for kind in (Put, GoGrasp):
                    preferred = [o for o in options if isinstance(o, kind)]
                    if preferred and rng.random() < 0.8:
                        options = preferred
                        break
                if options:
                    intents[agent.name] = rng.choice(options)
            world_sim.apply(state, intents)
    assert len(puts) > 80


def random_intents(state, rng):
    """Fuzz intents: each idle agent starts a random legal intent 80% of the time."""
    intents = {}
    for agent in state.agents.values():
        if agent.busy is None and rng.random() < 0.8:
            options = world_sim.legal_intents(state, agent.name)
            if options:
                intents[agent.name] = rng.choice(options)
    return intents


def test_conservation_fuzz():
    scn = load_scenario("food_small")
    rng = random.Random(999)
    applies = 0
    while applies < 2000:
        state = world_sim.init(scn, rng.randint(0, 10**6))
        for _ in range(400):
            world_sim.apply(state, random_intents(state, rng))  # invariants checked inside
            applies += 1
            done, _ = world_sim.is_done(state)
            if done:
                break


def observable(state):
    """Everything a quiet frame could change, as one comparable value."""
    return (
        state.frame,
        sorted(state.locations.items()),
        [
            (a.name, a.busy, a.room_id, a.inbox, a.explored, sorted(a.revealed))
            for a in state.agents.values()
        ],
    )


def frames_left(state):
    return [a.busy[1] - state.frame for a in state.agents.values() if a.busy is not None]


@settings(max_examples=150, deadline=None)
@given(
    world_seed=st.integers(0, 10**6),
    intent_seed=st.integers(0, 10**6),
    steps=st.integers(0, 300),
    budget=st.integers(1, 1500),
    message=st.booleans(),
    to_edge=st.booleans(),
)
def test_skip_quiet_frames_matches_frame_by_frame(
    world_seed, intent_seed, steps, budget, message, to_edge
):
    scn = replace(load_scenario("food_small"), frame_budget=budget)
    rng = random.Random(intent_seed)
    state = world_sim.init(scn, world_seed)
    for _ in range(steps):
        if world_sim.is_done(state)[0]:
            break
        world_sim.apply(state, random_intents(state, rng))
    if message and not world_sim.is_done(state)[0]:
        # Leave an undrained message in an inbox: the skip must keep it.
        idle = [a.name for a in state.agents.values() if a.busy is None]
        if idle:
            world_sim.apply(state, {idle[0]: SendMessage("hello")})
    while to_edge and min(frames_left(state), default=1) > 1 and not world_sim.is_done(state)[0]:
        world_sim.apply(state, {})  # up to the frame before a completion
    assume(not world_sim.is_done(state)[0])

    stepped = copy.deepcopy(state)
    completes_next = 1 in frames_left(state)
    before = observable(state)
    world_sim.skip_quiet_frames(state)
    if completes_next:
        assert observable(state) == before
    assert state.frame < budget
    results = world_sim.apply(state, {})

    while stepped.frame < state.frame - 1:
        quiet = world_sim.apply(stepped, {})
        assert {r.status for r in quiet.values()} <= {"idle", "in_progress"}
    stepped_results = world_sim.apply(stepped, {})
    assert observable(state) == observable(stepped)
    assert results == stepped_results
    assert world_sim.is_done(state) == world_sim.is_done(stepped)
