"""Belief revision's rules, stated as properties over real observations.

Each example starts a simulator episode, seeds every agent's beliefs with
random heard facts through ``ingest_facts``, then lets random legal
intents (``test_world_sim.random_intents``) play for some frames, folding
every agent's observation into its beliefs each frame.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_world_sim import random_intents

from beliefworld import world_sim
from beliefworld.belief_store import BeliefWorld, held_by, ingest_facts
from beliefworld.perceive import update_from_visual
from beliefworld.planner import PlannerView
from beliefworld.rule_consensus import canonical_rules
from beliefworld.scenario import CONTAINER, EntityRegistry, load_scenario
from beliefworld.sbl import EXPLORED_STATES, AgentName, AtomicBelief, ObjectRef, StateAtom

SETTINGS = [(name, agents) for name in ("food_small", "stuff_small") for agents in (2, 4)]
SCENARIOS = {(name, agents): load_scenario(name).with_agents(agents) for name, agents in SETTINGS}
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
