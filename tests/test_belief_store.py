"""Belief world: assertion semantics, misalignment, snapshots."""

import random

import pytest

from beliefworld import sbl
from beliefworld.belief_store import (
    BeliefWorld,
    RuleViolation,
    UnknownCollaborator,
)
from beliefworld.collab_engine import belief_text
from beliefworld.perceive import ingest_facts
from beliefworld.planner import PlannerView
from beliefworld.rule_consensus import canonical_rules
from beliefworld.sbl import AgentName, AtomicBelief, ObjectRef, StateAtom, Variable
from universe import (
    misalignment_oracle,
    scan_explored_level,
    scan_holdings,
    scan_room_of,
    scan_snapshot,
)

KITCHEN = ObjectRef("kitchen", 2000)
BOWL = ObjectRef("bowl", 9)
PLATE = ObjectRef("plate", 11)
BED = ObjectRef("bed", 9000)

CONTAINERS = frozenset({9, 11})


def fact(text: str) -> AtomicBelief:
    return sbl.parse_atomic(text)


@pytest.fixture
def world():
    return BeliefWorld("Alice", canonical_rules(), ("Bob",), CONTAINERS)


def test_assert_and_holds(world):
    world.assert_fact(fact("<apple>(123) IN <kitchen>(2000)"))
    assert world.holds(fact("<apple>(123) IN <kitchen>(2000)"))
    assert not world.holds(fact("<apple>(123) IN <office>(3000)"))


def test_assert_idempotent(world):
    f = fact("<kitchen>(2000) EXPLORED part")
    world.assert_fact(f)
    before = world.snapshot()
    world.assert_fact(f)
    assert world.snapshot() == before


def test_functional_explored_newest_wins(world):
    world.assert_fact(fact("<kitchen>(2000) EXPLORED part"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED all"))
    explored = [f for f in world.facts() if f.relation == "EXPLORED"]
    assert explored == [fact("<kitchen>(2000) EXPLORED all")]


def test_functional_agent_position(world):
    world.assert_fact(fact("Alice AT <kitchen>(2000)"))
    world.assert_fact(fact("Alice AT <office>(3000)"))
    assert world.facts() == [fact("Alice AT <office>(3000)")]


def test_location_exclusive_across_relations(world):
    world.assert_fact(fact("<apple>(123) IN <kitchen>(2000)"))
    world.assert_fact(fact("Alice HOLD <apple>(123)"))
    assert world.facts() == [fact("Alice HOLD <apple>(123)")]
    world.assert_fact(fact("<bowl>(9) CONTAIN <apple>(123)"))
    assert not world.holds(fact("Alice HOLD <apple>(123)"))
    world.assert_fact(fact("<apple>(123) AT <bed>(9000)"))
    assert world.facts() == [fact("<apple>(123) AT <bed>(9000)")]


def test_hold_bound_two_items(world):
    world.assert_fact(fact("Alice HOLD <apple>(123)"))
    world.assert_fact(fact("Alice HOLD <pen>(7)"))
    with pytest.raises(RuleViolation, match="2 items"):
        world.assert_fact(fact("Alice HOLD <banana>(55)"))


def test_hold_bound_single_container(world):
    world.assert_fact(fact("Alice HOLD <bowl>(9)"))
    with pytest.raises(RuleViolation, match="container"):
        world.assert_fact(fact("Alice HOLD <plate>(11)"))


def test_non_conforming_fact_rejected(world):
    bad = AtomicBelief(AgentName("Alice"), "LIKES", AgentName("Bob"))
    with pytest.raises(RuleViolation, match="no consensus rule"):
        world.assert_fact(bad)


def test_non_ground_fact_rejected(world):
    with pytest.raises(RuleViolation, match="ground"):
        world.assert_fact(AtomicBelief(Variable("x"), "IN", KITCHEN))


def test_collaborator_partition_and_unknown(world):
    world.assert_fact(fact("<pen>(7) IN <office>(3000)"), about="Bob")
    assert world.facts(about="Bob") == [fact("<pen>(7) IN <office>(3000)")]
    with pytest.raises(UnknownCollaborator):
        world.assert_fact(fact("<pen>(7) IN <office>(3000)"), about="Mallory")


def test_observed_collaborator_holdings_conform(world):
    # The canonical rule repeats ?agent across believer and subject, but a
    # co-observed teammate holding must still be storable as a zero fact.
    world.assert_fact(fact("Bob HOLD <pen>(7)"))
    assert world.holds(fact("Bob HOLD <pen>(7)"))


WORLD_OBJECTS = [
    ObjectRef(n, i) for n, i in (("apple", 1), ("pen", 7), ("banana", 12), ("bowl", 9), ("plate", 11))
]


def _random_fact(rng: random.Random) -> AtomicBelief:
    agents = ("Alice", "Bob")
    objects = WORLD_OBJECTS
    rooms = [ObjectRef(n, i) for n, i in (("kitchen", 2000), ("office", 3000), ("livingroom", 1000))]
    kind = rng.random()
    if kind < 0.3:
        return AtomicBelief(rng.choice(objects), "IN", rng.choice(rooms))
    if kind < 0.5:
        return AtomicBelief(rng.choice(rooms), "EXPLORED", StateAtom(rng.choice(("none", "part", "all"))))
    if kind < 0.65:
        return AtomicBelief(AgentName(rng.choice(agents)), "AT", rng.choice(rooms))
    if kind < 0.8:
        return AtomicBelief(AgentName(rng.choice(agents)), "HOLD", rng.choice(objects))
    if kind < 0.9:
        return AtomicBelief(ObjectRef("bowl", 9), "CONTAIN", rng.choice(objects[:3]))
    return AtomicBelief(rng.choice(objects), "AT", BED)


def _random_world(rng: random.Random) -> BeliefWorld:
    world = BeliefWorld("Alice", canonical_rules(), ("Bob",), CONTAINERS)
    for _ in range(rng.randint(0, 30)):
        about = rng.choice((None, "Bob"))
        try:
            world.assert_fact(_random_fact(rng), about=about)
        except RuleViolation:
            pass
    return world


def test_misalignment_functional_contradiction(world):
    world.assert_fact(fact("<kitchen>(2000) EXPLORED all"))
    world.assert_fact(fact("<kitchen>(2000) EXPLORED none"), about="Bob")
    report = world.misalignment("Bob")
    assert [str(f) for f in report] == ["<kitchen>(2000) EXPLORED all"]


def test_misalignment_identical_sets_empty(world):
    f = fact("<apple>(123) IN <kitchen>(2000)")
    world.assert_fact(f)
    world.assert_fact(f, about="Bob")
    assert world.misalignment("Bob") == ()


def test_misalignment_unknown_collaborator(world):
    with pytest.raises(UnknownCollaborator):
        world.misalignment("Mallory")


def test_misalignment_matches_reference_diff():
    rng = random.Random(777)
    for case in range(300):
        world = _random_world(rng)
        report = world.misalignment("Bob")
        assert [str(f) for f in report] == misalignment_oracle(world, "Bob"), f"case {case}"


def test_misalignment_monotone_under_sync():
    rng = random.Random(888)
    for _ in range(50):
        world = _random_world(rng)
        for f in world.misalignment("Bob"):
            world.assert_fact(f, about="Bob")
        assert world.misalignment("Bob") == ()


def test_slot_reads_match_reference_scans(food_registry):
    rng = random.Random(2024)
    objects = WORLD_OBJECTS
    for case in range(300):
        world = _random_world(rng)
        # Facts the reads' guards must see through: an object AT a place
        # other than the bed, an object as holder, an agent AT a non-room.
        for _ in range(rng.randint(0, 3)):
            odd = rng.choice((
                AtomicBelief(rng.choice(objects), "AT", KITCHEN),
                AtomicBelief(ObjectRef("bowl", 9), "HOLD", rng.choice(objects[:3])),
                AtomicBelief(AgentName(rng.choice(("Alice", "Bob"))), "AT", BED),
            ))
            try:
                world.assert_fact(odd, about=rng.choice((None, "Bob")))
            except RuleViolation:
                pass
        for about in (None, "Bob"):
            view = PlannerView(about or world.owner, food_registry, world.partition(about))
            facts = world.facts(about=about)
            for agent in ("Alice", "Bob"):
                expected_at = scan_room_of(facts, food_registry, agent)
                assert view.room_of(agent) == expected_at, f"case {case}"
                assert view.holdings(agent) == scan_holdings(facts, agent), f"case {case}"
            for room_id in food_registry.rooms_by_id:
                expected = scan_explored_level(facts, food_registry, room_id)
                assert view.explored_level(room_id) == expected, f"case {case}"


def test_cached_text_follows_every_change():
    """After each store, retraction, re-assert or ingested batch, the
    cached partition text, the prompt renderings and the snapshot equal
    the same text rebuilt from ``facts()``."""
    rng = random.Random(4242)
    absent = ObjectRef("ghost", 99)
    for case in range(150):
        world = _random_world(rng)
        for step in range(25):
            about = rng.choice((None, "Bob"))
            held = list(world.partition(about).values())
            op = rng.random()
            if op < 0.2 and held:
                world.assert_fact(rng.choice(held), about=about)
            elif op < 0.4:
                world.retract_location(rng.choice(WORLD_OBJECTS + [absent]), about=about)
            elif op < 0.6:
                ingest_facts(world, [_random_fact(rng) for _ in range(rng.randint(1, 4))], about)
            else:
                try:
                    world.assert_fact(_random_fact(rng), about=about)
                except RuleViolation:
                    pass
            where = f"case {case} step {step}"
            for part in (None, "Bob"):
                assert world.lines(part) == tuple(str(f) for f in world.facts(part)), where
            zero = [f"Alice BELIEVE {f}" for f in world.facts()]
            first = [f"Alice BELIEVE Bob BELIEVE {f}" for f in world.facts(about="Bob")]
            assert belief_text(world) == ("\n".join(zero) if zero else "None"), where
            assert belief_text(world, "Bob") == ("\n".join(first) if first else "None"), where
            assert world.snapshot() == scan_snapshot(world), where


def test_snapshot_empty_world_header_only(world):
    lines = world.snapshot().splitlines()
    assert lines[0] == "world: Alice"
    assert all(l.startswith(("world:", "collaborator:", "rule:")) for l in lines)


def test_snapshot_sorted_fact_lines(world):
    world.assert_fact(fact("<pen>(7) IN <office>(3000)"))
    world.assert_fact(fact("<apple>(123) IN <kitchen>(2000)"))
    world.assert_fact(fact("Alice AT <kitchen>(2000)"))
    zero_lines = [l for l in world.snapshot().splitlines() if l.startswith("zero: ")]
    assert zero_lines == sorted(zero_lines)
    assert len(zero_lines) == 3

