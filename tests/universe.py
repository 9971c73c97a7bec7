"""Shared test universe: generators and independent brute-force oracles.

Everything here deliberately avoids the library's own matching and diff
code paths: the admission oracle is the belief store's former relation
table, stated apart from the rules, the misalignment oracle diffs
snapshot text, the snapshot oracle rebuilds that text from the sorted
facts, the slot-read oracles scan every fact instead of looking up one
slot, the planner oracle is a separate translation of the documented
priority rules over the slot-read scans, using networkx for distances,
and the plan-stepping oracle translates the documented done/pending/stale
rule over the slot-read scans, and the simulator references read every
location with its own ``objects_at`` scan instead of one grouping pass.
The exceptions are the two belief-revision references.  The
message-update reference is the engine's former per-message inbox loop
with no remote reply, over the library's own message reader: the
batched fold must leave the same beliefs and declare the same plans.
The ingest reference is the former per-fact loop over
``BeliefWorld.assert_fact``, which recovered from a refused holding
report by clearing the holder's holdings and asserting once more: the
store's one-pass fold must leave the same partition.
"""

from __future__ import annotations

import logging
import random

import networkx as nx

from beliefworld import perceive, world_sim
from beliefworld.belief_store import RuleViolation, slot
from beliefworld.planner import PlannerView
from beliefworld.scenario import BED, CONTAINER, CONTAINER_CAPACITY, MAX_HANDS, ROOM, TARGET
from beliefworld.sbl import (
    AgentName,
    AtomicBelief,
    BeliefExpr,
    ObjectRef,
    StateAtom,
    Variable,
)

AGENTS = tuple(AgentName(n) for n in ("Alice", "Bob", "Carol", "Dave", "Eve"))
OBJECTS = (
    ObjectRef("apple", 1),
    ObjectRef("pen", 7),
    ObjectRef("bowl", 9),
    ObjectRef("banana", 12),
    ObjectRef("box", 3),
)
ROOMS = (
    ObjectRef("livingroom", 1000),
    ObjectRef("kitchen", 2000),
    ObjectRef("office", 3000),
    ObjectRef("bedroom", 4000),
)
EXPLORED_STATES = (StateAtom("none"), StateAtom("part"), StateAtom("all"))
OTHER_STATES = (StateAtom("opened"), StateAtom("closed"))
RELATIONS = ("IN", "HOLD", "AT", "CONTAIN", "EXPLORED")
VAR_POOL = ("x", "y", "z", "agent", "room")

ENTITIES = AGENTS + OBJECTS + ROOMS


def random_ground(rng: random.Random) -> BeliefExpr:
    """A random well-formed ground expression over the small universe."""
    order = rng.choice((0, 1))
    believers = tuple(rng.choice(AGENTS) for _ in range(order + 1))
    relation = rng.choice(RELATIONS)
    subject = rng.choice(ENTITIES)
    if relation == "EXPLORED" and rng.random() < 0.7:
        obj = rng.choice(EXPLORED_STATES)
    elif rng.random() < 0.3:
        obj = rng.choice(EXPLORED_STATES + OTHER_STATES if relation != "EXPLORED" else EXPLORED_STATES)
    else:
        obj = rng.choice(ENTITIES)
    return BeliefExpr(believers, AtomicBelief(subject, relation, obj))


def random_rule(rng: random.Random, ground: BeliefExpr | None = None) -> BeliefExpr:
    """A random rule; when ``ground`` is given, derived from it so that a
    match is likely (repeated variables included)."""
    base = ground if ground is not None else random_ground(rng)
    positions = [*base.believers, base.body.subject, base.body.object]
    n = len(positions)
    var_count = rng.randint(1, min(3, n))
    names = [rng.choice(VAR_POOL) for _ in range(var_count)]
    slots = rng.sample(range(n), var_count)
    new_positions = list(positions)
    for slot, name in zip(slots, names):
        new_positions[slot] = Variable(name)
    believers = tuple(new_positions[: len(base.believers)])
    if any(isinstance(b, (ObjectRef, StateAtom)) for b in believers):
        believers = tuple(
            b if isinstance(b, (AgentName, Variable)) else Variable("agent")
            for b in believers
        )
    subject, obj = new_positions[-2], new_positions[-1]
    if isinstance(subject, StateAtom):
        subject = Variable("x")
    return BeliefExpr(believers, AtomicBelief(subject, base.body.relation, obj))


# The belief store's former gate: the kinds each relation the engine
# reads may relate, subject to object, in a table of its own.  A term's
# kind is its registry kind, "agent" (the owner or a collaborator) or
# "state"; an unknown id or agent, or a variable, has none.
RELATION_SORTS = {
    "AT": {("agent", ROOM), (TARGET, BED), (CONTAINER, BED)},
    "IN": {(TARGET, ROOM), (CONTAINER, ROOM), (BED, ROOM)},
    "HOLD": {("agent", TARGET), ("agent", CONTAINER)},
    "CONTAIN": {(CONTAINER, TARGET)},
    "EXPLORED": {(ROOM, "state")},
}


def table_admits(world, fact) -> bool:
    """The former gate's verdict under the canonical rules, which state no
    relation the table lacks: the fact's kinds are in its relation's row."""
    def kind(term):
        if isinstance(term, ObjectRef):
            return world.registry.kind_of(term.id)
        if isinstance(term, AgentName):
            return "agent" if term.name in (world.owner, *world.collaborators) else None
        return "state" if isinstance(term, StateAtom) else None

    return (kind(fact.subject), kind(fact.object)) in RELATION_SORTS.get(fact.relation, ())


def misalignment_oracle(world, collaborator: str) -> list[str]:
    """Diff the snapshot text: zero-partition lines the first-order
    partition lacks, in canonical order."""
    zero, first = [], set()
    for line in world.snapshot().splitlines():
        if line.startswith("zero: "):
            zero.append(line[len("zero: "):])
        elif line.startswith(f"first[{collaborator}]: "):
            first.add(line.split(": ", 1)[1])
    return [fact for fact in zero if fact not in first]


def scan_snapshot(world) -> str:
    """The snapshot text rebuilt from ``facts()`` and the rules sorted by
    their text, without the world's cached partition text."""
    lines = [f"world: {world.owner}"]
    lines += [f"collaborator: {c}" for c in sorted(world.collaborators)]
    lines += [f"rule: {r}" for r in sorted(world.rules, key=str)]
    lines += [f"zero: {f}" for f in world.facts()]
    for c in sorted(world.collaborators):
        lines += [f"first[{c}]: {f}" for f in world.facts(about=c)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference slot reads: the planner's one-slot questions answered by
# scanning every fact of a partition.
# ---------------------------------------------------------------------------


def scan_room_of(facts, registry, agent: str):
    for f in facts:
        if (
            f.relation == "AT"
            and f.subject == AgentName(agent)
            and isinstance(f.object, ObjectRef)
            and registry.kind_of(f.object.id) == ROOM
        ):
            return f.object.id
    return None


def scan_explored_level(facts, registry, room_id: int) -> str:
    room = registry.rooms_by_id[room_id]
    for f in facts:
        if f.relation == "EXPLORED" and f.subject == room and isinstance(f.object, StateAtom):
            return f.object.value
    return "none"


def scan_room_of_object(facts, registry, ref: ObjectRef):
    for f in facts:
        if f.relation == "IN" and f.subject == ref and isinstance(f.object, ObjectRef):
            if registry.kind_of(f.object.id) == ROOM:
                return f.object.id
    return None


def scan_transported(facts, registry, ref: ObjectRef) -> bool:
    return any(
        f.relation == "AT" and f.subject == ref and f.object == registry.bed for f in facts
    )


def scan_holdings(facts, agent: str) -> list[ObjectRef]:
    who = AgentName(agent)
    held = [
        f.object
        for f in facts
        if f.relation == "HOLD" and f.subject == who and isinstance(f.object, ObjectRef)
    ]
    return sorted(held, key=lambda r: r.id)


def scan_located_targets(facts, registry) -> list[tuple[ObjectRef, int]]:
    """Each IN fact's target and room, when no HOLD fact holds that id under
    any name, in ascending target id."""
    held_ids = {f.object.id for f in facts if f.relation == "HOLD"}
    located = [
        (f.subject, f.object.id)
        for f in facts
        if f.relation == "IN" and registry.is_target(f.subject.id) and f.subject.id not in held_ids
    ]
    return sorted(located, key=lambda pair: pair[0].id)


def scan_holder(facts, ref: ObjectRef):
    for f in facts:
        if f.relation == "HOLD" and f.object == ref and isinstance(f.subject, AgentName):
            return f.subject.name
    return None


# ---------------------------------------------------------------------------
# Reference planner: an independent translation of the priority rules.
# ---------------------------------------------------------------------------


def planner_view(owner: str, registry, facts) -> PlannerView:
    """A planner view over a partition holding ``facts``."""
    return PlannerView(owner, registry, {slot(f): f for f in facts})


def _graph(registry) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(registry.rooms_by_id)
    for a, b, cost in registry.scenario.edges:
        g.add_edge(a, b, weight=cost)
    return g


def reference_plan_ranking(view) -> list[str]:
    """Ranked plan texts per the documented priority rules.

    Written against the rule list, not the implementation: distances come
    from networkx, candidates are collected per rule in explicit loops,
    and ordering uses the documented sort keys.
    """
    facts = list(view.slots.values())
    reg = view.registry
    graph = _graph(reg)
    here = scan_room_of(facts, reg, view.owner)
    if here is None:
        here = dict(reg.scenario.agents)[view.owner]

    def dist(room_id: int) -> int:
        return nx.shortest_path_length(graph, here, room_id, weight="weight")

    held = scan_holdings(facts, view.owner)
    container = None
    for ref in held:
        if reg.is_container(ref.id):
            container = ref
    load = [f for f in facts if f.relation == "CONTAIN" and f.subject == container]
    space = CONTAINER_CAPACITY - len(load) if container else 0
    free_hand = 2 - len(held)
    held_targets = [r for r in held if reg.is_target(r.id)]
    known = scan_located_targets(facts, reg)

    entries: list[tuple[tuple, str]] = []
    if container is not None and space > 0:
        for t in held_targets:
            entries.append(((1, 0, 0, t.id), f"put {t} {container}"))
        if free_hand >= 1:
            for t, room_id in known:
                if room_id == here:
                    entries.append(((1, 1, 0, t.id), f"go grasp {t}; put {t} {container}"))
    if (held_targets or load) and ((free_hand == 0 and space == 0) or not known):
        entries.append(((2, 0, 0, 0), "transport"))
    if free_hand >= 1:
        for t, room_id in known:
            if room_id == here:
                text = f"go grasp {t}"
            else:
                text = f"go to {reg.rooms_by_id[room_id]}; go grasp {t}"
            entries.append(((3, dist(room_id), room_id, t.id), text))
    for room_id in sorted(reg.rooms_by_id):
        level = scan_explored_level(facts, reg, room_id)
        if level == "all":
            continue
        room = reg.rooms_by_id[room_id]
        pref = 0 if level == "none" else 1
        if room_id == here:
            text = f"explore current room {room}"
        else:
            text = f"go to {room}; explore current room {room}"
        entries.append(((4, pref, dist(room_id), room_id), text))
    entries.sort(key=lambda e: e[0])
    return [text for _, text in entries]


# ---------------------------------------------------------------------------
# Reference plan stepping: the documented done/pending/stale rule over the
# slot-read scans.
# ---------------------------------------------------------------------------

STALE = "STALE"


def reference_next_step(view, plan, history):
    """The first step of ``plan`` neither in ``history`` (matched in
    order) nor already in effect; ``"SUBPLAN_DONE"`` when there is none,
    :data:`STALE` when that step's premise is gone.

    Written against the rule list over a scan of every fact: a go-to is in
    effect when the owner is in its room; an explore when the room is fully
    explored; a grasp when the owner holds the object, and its premise is
    that the object is neither at the bed nor held by anyone and lies IN
    the room of the plan's last earlier go-to (else the owner's room, else
    its start room); a put is in effect when the container contains the
    object, and its premise is that the owner holds both; a transport is
    never in effect, and its premise is that the owner holds anything.
    """
    facts = list(view.slots.values())
    reg, owner = view.registry, view.owner
    # History is matched greedily, in order, against the plan's steps.
    matched, h = [], 0
    for step in plan.steps:
        if h < len(history) and history[h] == step:
            matched.append(True)
            h += 1
        else:
            matched.append(False)
    for index, step in enumerate(plan.steps):
        if matched[index]:
            continue
        text = str(step)
        if text.startswith("go to "):
            if scan_room_of(facts, reg, owner) == step.room.id:
                continue
            return step
        if text.startswith("explore current room "):
            if scan_explored_level(facts, reg, step.room.id) == "all":
                continue
            return step
        if text.startswith("go grasp "):
            obj = step.object
            if scan_holder(facts, obj) == owner:
                continue
            if scan_transported(facts, reg, obj) or scan_holder(facts, obj) is not None:
                return STALE
            room = None
            for earlier in plan.steps[:index]:
                if str(earlier).startswith("go to "):
                    room = earlier.room.id
            if room is None:
                room = scan_room_of(facts, reg, owner)
            if room is None:
                room = dict(reg.scenario.agents)[owner]
            if scan_room_of_object(facts, reg, obj) != room:
                return STALE
            return step
        if text.startswith("put "):
            if AtomicBelief(step.container, "CONTAIN", step.object) in facts:
                continue
            if scan_holder(facts, step.container) != owner or scan_holder(facts, step.object) != owner:
                return STALE
            return step
        if not scan_holdings(facts, owner):
            return STALE
        return step
    return "SUBPLAN_DONE"


def conflict_oracle(my_plan, their_plan, container_ids: set[int]):
    """Exhaustive pairwise step scan with the documented conflict kinds
    and the opening-move heaviness rule, written over step strings."""
    def describe(step) -> tuple[str, int | None]:
        text = str(step)
        if text.startswith("explore current room "):
            return "explore", step.room.id
        if text.startswith("go grasp "):
            return "grasp", step.object.id
        return "other", None

    def head(plan) -> set[int]:
        indexes = {0}
        if len(plan.steps) > 1 and str(plan.steps[0]).startswith("go to "):
            indexes.add(1)
        return indexes

    pairs = []
    heavy = False
    for i, a in enumerate(my_plan.steps):
        for j, b in enumerate(their_plan.steps):
            kind_a, ref_a = describe(a)
            kind_b, ref_b = describe(b)
            if kind_a == kind_b == "explore" and ref_a == ref_b:
                kind = "same-room-explore"
            elif kind_a == kind_b == "grasp" and ref_a == ref_b:
                kind = "same-container-grab" if ref_a in container_ids else "same-grasp-target"
            else:
                continue
            pairs.append((i, j, kind))
            if i in head(my_plan) and j in head(their_plan):
                heavy = True
    return pairs, heavy


# ---------------------------------------------------------------------------
# Reference inbox update: one message at a time, one fact at a time.
# ---------------------------------------------------------------------------


def reference_ingest_facts(world, facts, about):
    """The former fold of a batch of heard facts: each admitted fact,
    locations before holdings, through ``assert_fact``; a refused holding
    clears the holder's holdings the batch does not report, and a second
    refusal drops the fact with a warning."""
    admitted = [f for f in facts if world.admits(f, about)]
    ordered = sorted(admitted, key=lambda f: (f.relation == "HOLD", str(f)))
    for fact in ordered:
        try:
            world.assert_fact(fact, about=about)
        except RuleViolation:
            if fact.relation == "HOLD":
                fresh = {
                    f.object for f in ordered
                    if f.relation == "HOLD" and f.subject == fact.subject
                }
                world.clear_holdings(fact.subject, keep=fresh, about=about)
            try:
                world.assert_fact(fact, about=about)
            except RuleViolation as exc:
                logging.getLogger("universe").warning("dropping a reported fact: %s", exc)


def reference_update_from_messages(world, inbox):
    """The inbox update with no remote reply, one message at a time, in
    arrival order.  First each registered message's parsed facts are
    credited, on their own (:func:`reference_ingest_facts`), to every
    collaborator but the sender, in roster order (a broadcast is public);
    then each message's facts are ingested into the zero partition, then
    into the sender's."""
    for sender, text in inbox:
        if sender in world.collaborators:
            facts, _ = perceive._heard(text, world)
            for collab in world.collaborators:
                if collab != sender:
                    reference_ingest_facts(world, facts, collab)
    declared = {}
    for sender, text in inbox:
        if sender not in world.collaborators:
            continue
        facts, plan = perceive._heard(text, world)
        reference_ingest_facts(world, facts, None)
        reference_ingest_facts(world, facts, sender)
        if plan is not None:
            declared[sender] = plan
    return declared


def reference_observe(state, agent_name: str) -> world_sim.VisualObservation:
    """An agent's view, with one ``objects_at`` scan per location read."""
    reg = state.registry
    agent = state.agents[agent_name]

    def refs(ids) -> tuple[ObjectRef, ...]:
        return tuple(reg.objects_by_id[oid][0] for oid in ids)

    items = [
        ref for ref in refs(state.objects_at(world_sim.AT_ROOM, agent.room_id))
        if ref.id in agent.revealed
    ]
    at_bed = ()
    if agent.room_id == reg.scenario.bed_room_id:
        items.append(reg.bed)
        at_bed = refs(state.transported_ids())
    here = [a for a in state.agents.values() if a.room_id == agent.room_id]
    hands = {a.name: refs(state.objects_at(world_sim.HELD, a.name)) for a in here}
    contents = tuple(
        (held, inner)
        for a in here
        for held in hands[a.name]
        for inner in refs(state.objects_at(world_sim.INSIDE, held.id))
    )
    return world_sim.VisualObservation(
        room=reg.rooms_by_id[agent.room_id],
        exploration=agent.explored.get(agent.room_id, world_sim.NONE),
        items=tuple(items),
        hands=hands[agent_name],
        contents=contents,
        at_bed=at_bed,
        colocated=tuple((a.name, hands[a.name]) for a in here if a is not agent),
    )


def reference_invariant_violation(state) -> str | None:
    """The first conservation or capacity violation, object by object,
    then agent by agent and container by container, each with its own
    ``objects_at`` scan; None when the state is sound."""
    reg = state.registry
    for oid, (_, kind) in reg.objects_by_id.items():
        if kind == BED:
            continue
        loc = state.locations.get(oid)
        if loc is None:
            return f"object {oid} has no location"
        tag = loc[0]
        if tag == world_sim.AT_ROOM:
            if loc[1] not in reg.rooms_by_id:
                return f"object {oid} in unknown room {loc[1]}"
        elif tag == world_sim.HELD:
            if loc[1] not in state.agents:
                return f"object {oid} held by unknown agent {loc[1]}"
        elif tag == world_sim.INSIDE:
            if not reg.is_container(loc[1]):
                return f"object {oid} inside non-container {loc[1]}"
        elif tag != world_sim.AT_BED:
            return f"object {oid} in unknown location {loc!r}"
    for agent in state.agents.values():
        held = state.objects_at(world_sim.HELD, agent.name)
        if len(held) > MAX_HANDS:
            return f"{agent.name} holds more than {MAX_HANDS} items"
        if sum(map(reg.is_container, held)) > 1:
            return f"{agent.name} holds more than one container"
    for cid in sorted(oid for oid in reg.objects_by_id if reg.is_container(oid)):
        load = state.objects_at(world_sim.INSIDE, cid)
        if len(load) > CONTAINER_CAPACITY:
            return f"container {cid} over capacity: {load}"
    return None
