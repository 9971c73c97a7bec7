"""Belief world: assertion semantics, the batch fold, misalignment, snapshots."""

import logging
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefworld import sbl
from beliefworld.belief_store import (
    BeliefWorld,
    RuleViolation,
    UnknownCollaborator,
    held_by,
    ingest_facts,
)
from beliefworld.collab_engine import belief_text
from beliefworld.planner import PlannerView
from beliefworld.rule_consensus import canonical_rules
from beliefworld.scenario import MAX_HANDS, EntityRegistry, scenario_from_dict
from beliefworld.sbl import AgentName, AtomicBelief, ObjectRef, StateAtom, Variable
from universe import (
    EXPLORED_STATES,
    OTHER_STATES,
    RELATION_SORTS,
    RELATIONS,
    misalignment_oracle,
    random_ground,
    reference_ingest_facts,
    scan_explored_level,
    scan_holdings,
    scan_room_of,
    scan_snapshot,
    table_admits,
)

KITCHEN = ObjectRef("kitchen", 2000)
BOWL = ObjectRef("bowl", 9)
PLATE = ObjectRef("plate", 11)
BED = ObjectRef("bed", 9000)

# The made-up entities these tests name; bowl and plate are the containers.
REGISTRY = EntityRegistry(scenario_from_dict({
    "rooms": [
        {"name": n, "id": i} for n, i in (("livingroom", 1000), ("kitchen", 2000), ("office", 3000))
    ],
    "edges": [[1000, 2000, 1], [2000, 3000, 1]],
    "bed": {"name": "bed", "id": 9000, "room": 3000},
    "objects": [
        {"name": n, "id": i, "kind": kind, "room": 2000}
        for n, i, kind in (
            ("apple", 1, "target"), ("pen", 7, "target"), ("bowl", 9, "container"),
            ("plate", 11, "container"), ("banana", 12, "target"), ("apple", 123, "target"),
            ("banana", 55, "target"),
        )
    ],
    "agents": [{"name": "Alice", "room": 2000}, {"name": "Bob", "room": 3000}],
}))


def fact(text: str) -> AtomicBelief:
    return sbl.parse_atomic(text)


@pytest.fixture
def world():
    return BeliefWorld("Alice", canonical_rules(), ("Bob",), REGISTRY)


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
    with pytest.raises(UnknownCollaborator):  # even with nothing to store
        ingest_facts(world, [], "Mallory")


def test_observed_collaborator_holdings_conform(world):
    # The canonical rule repeats ?agent across believer and subject, but a
    # co-observed teammate holding must still be storable as a zero fact.
    world.assert_fact(fact("Bob HOLD <pen>(7)"))
    assert world.holds(fact("Bob HOLD <pen>(7)"))


@pytest.mark.parametrize("bad, why", [
    (AtomicBelief(AgentName("Alice"), "LIKES", AgentName("Bob")), "no consensus rule"),
    (AtomicBelief(KITCHEN, "HOLD", ObjectRef("apple", 123)), "well-sorted"),
])
def test_a_refused_fact_is_refused_again_with_the_same_text(world, bad, why):
    texts = []
    for _ in range(2):
        with pytest.raises(RuleViolation, match=why) as refused:
            world.assert_fact(bad)
        texts.append(str(refused.value))
    assert texts[0] == texts[1]
    assert world.facts() == []


def test_a_fact_admitted_before_still_meets_the_hand_bound(world):
    """The store remembers that these facts were admitted, but the hand
    bound depends on what the partition holds, so it is checked again."""
    banana, plate = fact("Alice HOLD <banana>(55)"), fact("Alice HOLD <plate>(11)")
    for held in (banana, plate):
        world.assert_fact(held)
        world.retract_location(held.object)
    world.assert_fact(fact("Alice HOLD <apple>(123)"))
    world.assert_fact(fact("Alice HOLD <bowl>(9)"))
    with pytest.raises(RuleViolation, match="2 items"):
        world.assert_fact(banana)
    world.retract_location(ObjectRef("apple", 123))
    with pytest.raises(RuleViolation, match="container"):
        world.assert_fact(plate)


@pytest.mark.parametrize("order", [0, 1])
def test_a_verdict_at_one_belief_order_does_not_answer_the_other(order):
    """The only rule is of one order, so a fact conforms at that order alone."""
    chain = "?a BELIEVE " * (order + 1)
    world = BeliefWorld("Alice", (sbl.parse(f"{chain}?x IN ?room"),), ("Bob",), REGISTRY)
    f = fact("<apple>(123) IN <kitchen>(2000)")
    conforming, other = (None, "Bob") if order == 0 else ("Bob", None)
    world.assert_fact(f, about=conforming)
    with pytest.raises(RuleViolation, match="no consensus rule"):
        world.assert_fact(f, about=other)
    assert world.facts(about=conforming) == [f] and world.facts(about=other) == []


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
    world = BeliefWorld("Alice", canonical_rules(), ("Bob",), REGISTRY)
    for _ in range(rng.randint(0, 30)):
        about = rng.choice((None, "Bob"))
        try:
            world.assert_fact(_random_fact(rng), about=about)
        except RuleViolation:
            pass
    return world


# ---------------------------------------------------------------------------
# The batch fold of reported facts.
# ---------------------------------------------------------------------------

# Facts a teammate or a remote model might report about the test registry:
# holdings of three targets and both containers by either agent, so that a
# batch or a partition can reach a third held item or a second container;
# locations, loads, positions and levels; and facts the rules refuse (an
# unknown agent or id, wrong sorts, variables).
FOLD_FACTS = (
    [AtomicBelief(AgentName(a), "HOLD", o) for a in ("Alice", "Bob") for o in WORLD_OBJECTS]
    + [AtomicBelief(o, "IN", room) for o in WORLD_OBJECTS[:4] for room in (KITCHEN, ObjectRef("office", 3000))]
    + [fact(t) for t in (
        "<bowl>(9) CONTAIN <apple>(1)", "<plate>(11) CONTAIN <pen>(7)", "<banana>(12) AT <bed>(9000)",
        "Alice AT <kitchen>(2000)", "Bob AT <office>(3000)",
        "<kitchen>(2000) EXPLORED all", "<kitchen>(2000) EXPLORED part",
        "Carol HOLD <apple>(1)", "Alice HOLD <box>(3)", "Alice HOLD <kitchen>(2000)",
        "Alice IN <kitchen>(2000)", "<apple>(1) EXPLORED all", "?agent HOLD <pen>(7)",
        "Bob HOLD ?object", "<pen>(7) IN ?room",
    )]
)
ABOUTS = st.sampled_from((None, "Bob"))


def _seeded(seed) -> BeliefWorld:
    world = BeliefWorld("Alice", canonical_rules(), ("Bob",), REGISTRY)
    for about, f in seed:
        try:
            world.assert_fact(f, about=about)
        except RuleViolation:
            pass
    return world


@settings(max_examples=300, deadline=None)
@given(
    seed=st.lists(st.tuples(ABOUTS, st.sampled_from(FOLD_FACTS)), max_size=16),
    batch=st.lists(st.sampled_from(FOLD_FACTS), max_size=8),
    about=ABOUTS,
)
# A third holding displaces the holdings the batch does not report.
@example(seed=[(None, fact("Alice HOLD <apple>(1)")), (None, fact("Alice HOLD <pen>(7)"))],
         batch=[fact("Alice HOLD <banana>(12)"), fact("Alice HOLD <pen>(7)")], about=None)
# A second container displaces the first.
@example(seed=[("Bob", fact("Bob HOLD <bowl>(9)"))], batch=[fact("Bob HOLD <plate>(11)")], about="Bob")
# Another holder's report of a displaced holding: the holding goes and
# comes back last in partition order.
@example(seed=[(None, fact("Alice HOLD <apple>(1)")), (None, fact("Alice HOLD <pen>(7)"))],
         batch=[fact("Alice HOLD <banana>(12)"), fact("Bob HOLD <pen>(7)")], about=None)
# Locations land before holdings, whatever their text's order.
@example(seed=[], batch=[fact("Bob AT <office>(3000)"), fact("Alice HOLD <apple>(1)")], about=None)
# Three reported holdings: the third is dropped.
@example(seed=[], batch=[fact(f"Bob HOLD {o}") for o in ("<apple>(1)", "<pen>(7)", "<banana>(12)")],
         about=None)
def test_the_fold_matches_the_former_per_fact_loop(seed, batch, about):
    """The store's one-pass fold leaves every partition as the former loop
    over ``assert_fact`` did, in the same ``items()`` order."""
    expected, folded = _seeded(seed), _seeded(seed)
    reference_ingest_facts(expected, batch, about)
    ingest_facts(folded, batch, about)
    for part in (None, "Bob"):
        assert list(folded.partition(part).items()) == list(expected.partition(part).items())
        assert folded.lines(part) == expected.lines(part)


def test_the_fold_judges_each_fact_once_and_asserts_none(world, monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(BeliefWorld, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return counted

    for name in ("admits", "assert_fact"):
        monkeypatch.setattr(BeliefWorld, name, counting(name))
    batch = FOLD_FACTS[:12] + FOLD_FACTS[-8:]
    for about in (None, "Bob"):
        ingest_facts(world, batch, about)
    assert calls == {"admits": 2 * len(batch)}


@pytest.mark.parametrize("about", [None, "Bob"])
def test_a_report_that_still_overflows_is_dropped_with_a_warning(alice_world, caplog, about):
    """A batch that reports more holdings than the bound allows keeps the
    first in canonical order, and each dropped fact logs one warning."""
    cases = [
        ("Bob", ("<apple>(101)", "<banana>(102)", "<orange>(103)"), MAX_HANDS, f"{MAX_HANDS} items"),
        ("Alice", ("<bowl>(201)", "<plate>(202)"), 1, "a container"),
    ]
    for holder, refs, kept, why in cases:
        batch = [fact(f"{holder} HOLD {ref}") for ref in refs]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="beliefworld.belief_store"):
            ingest_facts(alice_world, batch, about)
        assert held_by(alice_world.partition(about), AgentName(holder)) == [f.object for f in batch[:kept]]
        assert [r.getMessage() for r in caplog.records] == [
            f"dropping a reported fact: {holder} already holds {why}: {f}" for f in batch[kept:]
        ]
    assert alice_world.partition("Bob" if about is None else None) == {}


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
        # Ill-sorted facts the store refuses: an object AT a place other
        # than the bed, an object as holder, an agent AT a non-room.
        for _ in range(rng.randint(0, 3)):
            odd = rng.choice((
                AtomicBelief(rng.choice(objects), "AT", KITCHEN),
                AtomicBelief(ObjectRef("bowl", 9), "HOLD", rng.choice(objects[:3])),
                AtomicBelief(AgentName(rng.choice(("Alice", "Bob"))), "AT", BED),
            ))
            with pytest.raises(RuleViolation):
                world.assert_fact(odd, about=rng.choice((None, "Bob")))
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


def test_the_store_keeps_a_fact_only_when_the_world_admits_it():
    """Random facts over the shared test universe, which names agents, ids
    and kinds the registry lacks: a fact is stored only when ``admits``
    holds, and a refused fact leaves its partition as it was."""
    rng = random.Random(3535)
    stored = refused = 0
    for case in range(200):
        world = _random_world(rng)
        for _ in range(20):
            about = rng.choice((None, "Bob"))
            f = random_ground(rng).body
            admitted = world.admits(f, about)
            before, lines = dict(world.partition(about)), world.lines(about)
            try:
                world.assert_fact(f, about=about)
            except RuleViolation:
                assert world.partition(about) == before, f"case {case}: {f}"
                assert world.lines(about) == lines, f"case {case}: {f}"
                refused += 1
            else:
                assert admitted and world.holds(f, about=about), f"case {case}: {f}"
                stored += 1
    assert stored > 50 and refused > 50


def test_the_rules_admit_what_the_former_relation_table_admitted(food_registry):
    """Under the canonical rules, a fact is admitted at either belief
    order exactly when the store's former relation table admitted it.
    The facts are random ground bodies over the shared test universe, or
    triples over the food registry's rooms, targets, containers and bed,
    an unknown id, the two agents and an unknown one, variables and
    states, under the five relations and one the rules do not state; a
    third of them are a row of the table with one term redrawn half the
    time, so that both verdicts are well represented."""
    rng = random.Random(3939)
    world = BeliefWorld("Alice", canonical_rules(), ("Bob",), food_registry)
    by_kind = {
        "agent": (AgentName("Alice"), AgentName("Bob")),
        "state": EXPLORED_STATES,
        "room": tuple(food_registry.rooms_by_id.values()),
    }
    for ref, kind in food_registry.objects_by_id.values():
        by_kind[kind] = (*by_kind.get(kind, ()), ref)
    entities = (
        *by_kind["room"], *(ref for ref, _ in food_registry.objects_by_id.values()),
        ObjectRef("ghost", 77), AgentName("Alice"), AgentName("Bob"), AgentName("Mallory"),
        Variable("agent"), Variable("x"),
    )
    objects = entities + EXPLORED_STATES + OTHER_STATES
    admitted = 0
    for case in range(3000):
        if case % 3 == 0:
            f = random_ground(rng).body
        elif case % 3 == 1:
            relation = rng.choice(RELATIONS + ("NEAR",))
            f = AtomicBelief(rng.choice(entities), relation, rng.choice(objects))
        else:
            relation = rng.choice(sorted(RELATION_SORTS))
            s, o = rng.choice(sorted(RELATION_SORTS[relation]))
            subject, obj = rng.choice(by_kind[s]), rng.choice(by_kind[o])
            if rng.random() < 0.5:
                subject = rng.choice(entities)
            elif rng.random() < 0.5:
                obj = rng.choice(objects)
            f = AtomicBelief(subject, relation, obj)
        expected = table_admits(world, f)
        for about in (None, "Bob"):
            assert world.admits(f, about) == expected, f"case {case}: {f} about {about}"
        admitted += expected
    assert 300 < admitted < 2700  # both verdicts well represented


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

