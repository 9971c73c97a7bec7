"""Deterministic lockstep transport environment.

The world advances one frame per :func:`apply` call.  An idle agent
submits an intent to start an action, and a busy agent goes on without
one; actions occupy a fixed number of frames and mutate state atomically
on their final frame.  ``WorldState.frame`` is the one clock: a busy
agent holds the frame its action completes on, not a count of frames
left.  A frame without intents or completions therefore changes nothing
but the clock, and :func:`skip_quiet_frames` moves it over such frames up
to the next completion or the frame budget.  All randomness comes from
per-agent streams derived from the episode seed, so a (scenario, seed,
intent sequence) triple replays to a bit-identical trajectory.

Per-agent state lives on the agent's :class:`AgentState`, and
``WorldState.agents`` maps each name to it in agent-index order: its
room, busy action and inbox, and what it alone has seen (its reveal
stream, the ids revealed to it and its exploration level per room).

:func:`_start` is the one rule for whether an action may start and how
many frames it takes: :func:`apply` asks it, and :func:`legal_intents`
only filters candidates through it.

``WorldState.locations`` is the one record of where every object is,
held ones included: an agent's hands are the objects at ``(HELD, name)``,
a container's load the objects at ``(INSIDE, id)``.
:meth:`WorldState.objects_at` scans it for one location, and
:meth:`WorldState.grouped` groups it by location in one pass, rebuilt on
each call, so a reader of many locations (:func:`observe`, the invariant
check after each frame) scans it once per frame.

Every episode of one scenario shares the scenario's read-only
:class:`EntityRegistry` (:func:`scenario.shared_registry`).

Frame costs:

==================  =============================================
go to               room-graph shortest-path cost (100 per edge in
                    the bundled scenarios)
explore current     50
go grasp            20 (target must be in the agent's room)
put                 10
transport           path cost to the goal room + 20
send message        1
==================  =============================================

Observability is per agent.  Entering a room reveals each object there
independently with probability ``reveal_fraction`` and raises that agent's
exploration level to ``part``; completing an explore reveals everything
and raises it to ``all``.  Exploration levels never decrease and are not
shared between agents.

Carrying rules: two hands, at most one held container, up to three objects
inside a container (so a full container plus a loose object delivers four
targets in one trip).  Containers dropped at the goal are lost: they lie
at the bed, in no room, so they can never be picked up again.  When two
agents' grasps of the same object complete on the same frame, the
lower-indexed agent wins and the loser's action is rejected.  A message
goes straight into the other agents' inboxes on the frame it completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .actions import (
    AtomicAction,
    ExploreCurrent,
    GoGrasp,
    GoTo,
    Put,
    SendMessage,
    Transport,
)
from .scenario import (
    BED,
    CONTAINER,
    CONTAINER_CAPACITY,
    MAX_HANDS,
    TARGET,
    EntityRegistry,
    Scenario,
    shared_registry,
)
from .sbl import EXPLORED_STATES, ObjectRef

EXPLORE_COST = 50
GRASP_COST = 20
PUT_COST = 10
TRANSPORT_DROP_COST = 20
MESSAGE_COST = 1

NONE, PART, ALL = EXPLORED_STATES

# Object locations: exactly one of these per object at every frame.
AT_ROOM = "room"
HELD = "held"
INSIDE = "inside"
AT_BED = "bed"

Location = tuple  # (AT_ROOM, room_id) | (HELD, agent) | (INSIDE, container_id) | (AT_BED,)


class InvariantViolation(RuntimeError):
    pass


@dataclass
class AgentState:
    """One agent's simulator state, its view of the world included:
    ``rng`` draws its room-entry reveals, ``revealed`` holds the ids it
    has seen and ``explored`` maps a room id to its level (a room absent
    from it is at ``none``)."""

    name: str
    room_id: int
    rng: random.Random = field(compare=False, repr=False)
    busy: tuple[AtomicAction, int] | None = None  # (action, the frame it completes on)
    inbox: list[tuple[str, str]] = field(default_factory=list)
    explored: dict[int, str] = field(default_factory=dict)
    revealed: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class ActionResult:
    status: str  # idle | in_progress | completed | rejected
    action: AtomicAction | None = None
    detail: str = ""


@dataclass(frozen=True)
class VisualObservation:
    """What one agent can see from where it stands this frame.

    Nothing outside the current room and nothing unrevealed ever appears
    here; every entity is an :class:`ObjectRef` (the registry knows its
    kind).  ``items`` lists the revealed objects lying in the room (and
    the bed in the goal room), ``hands`` the agent's held items by
    ascending id, ``at_bed`` is only populated in the goal room, and
    ``colocated`` carries same-room teammates with their held items.
    """

    room: ObjectRef
    exploration: str
    items: tuple[ObjectRef, ...]
    hands: tuple[ObjectRef, ...]
    contents: tuple[tuple[ObjectRef, ObjectRef], ...]  # (container, object) pairs
    at_bed: tuple[ObjectRef, ...]
    colocated: tuple[tuple[str, tuple[ObjectRef, ...]], ...]


@dataclass
class WorldState:
    registry: EntityRegistry
    frame: int = 0
    locations: dict[int, Location] = field(default_factory=dict)
    agents: dict[str, AgentState] = field(default_factory=dict)  # in agent-index order

    def objects_at(self, *location) -> list[int]:
        """The ids of the objects at one location, ascending."""
        return sorted(oid for oid, loc in self.locations.items() if loc == location)

    def grouped(self) -> dict[Location, list[int]]:
        """Each occupied location's object ids, ascending: one pass over
        ``locations``, rebuilt on every call, so it is no second record."""
        groups: dict[Location, list[int]] = {}
        for oid in sorted(self.locations):
            groups.setdefault(self.locations[oid], []).append(oid)
        return groups

    def transported_ids(self) -> list[int]:
        return [oid for oid in self.objects_at(AT_BED) if self.registry.is_target(oid)]


def init(scenario: Scenario, seed: int) -> WorldState:
    """Build the deterministic initial state for an episode."""
    state = WorldState(registry=shared_registry(scenario))
    for ref, _, home in scenario.objects:
        state.locations[ref.id] = (AT_ROOM, home)
    for index, (name, room_id) in enumerate(scenario.agents):
        rng = random.Random(seed * 100003 + index * 7919)
        state.agents[name] = AgentState(name=name, room_id=room_id, rng=rng)
    for agent in state.agents.values():
        _enter_room(state, agent, agent.room_id)
    _check_invariants(state)
    return state


def _enter_room(state: WorldState, agent: AgentState, room_id: int) -> None:
    """Room-entry side effects: partial reveal and exploration >= part."""
    agent.room_id = room_id
    fraction = state.registry.scenario.reveal_fraction
    for oid in state.objects_at(AT_ROOM, room_id):
        # One draw per object not yet revealed to the agent.
        if oid not in agent.revealed and agent.rng.random() < fraction:
            agent.revealed.add(oid)
    agent.explored.setdefault(room_id, PART)  # a level never decreases


def _start(
    state: WorldState, agent: AgentState, action: AtomicAction
) -> tuple[str | None, int]:
    """Why the action cannot start now (None when it can), and its frames."""
    reg = state.registry
    if agent.busy is not None:
        return "agent is busy", 0
    if isinstance(action, GoTo):
        if action.room.id not in reg.rooms_by_id:
            return f"unknown room {action.room}", 0
        if action.room.id == agent.room_id:
            return "already in that room", 0
        return None, reg.distance(agent.room_id, action.room.id)
    if isinstance(action, ExploreCurrent):
        if action.room.id != agent.room_id:
            return "can only explore the current room", 0
        return None, EXPLORE_COST
    if isinstance(action, GoGrasp):
        oid = action.object.id
        if reg.kind_of(oid) not in (TARGET, CONTAINER):
            return f"not a graspable object: {action.object}", 0
        if state.locations.get(oid) != (AT_ROOM, agent.room_id):
            return f"{action.object} is not in this room", 0
        held = state.objects_at(HELD, agent.name)
        if len(held) >= MAX_HANDS:
            return "hands are full", 0
        if reg.is_container(oid) and any(map(reg.is_container, held)):
            return "already holding a container", 0
        return None, GRASP_COST
    if isinstance(action, Put):
        if state.locations.get(action.object.id) != (HELD, agent.name):
            return f"not holding {action.object}", 0
        if state.locations.get(action.container.id) != (HELD, agent.name):
            return f"not holding {action.container}", 0
        if not reg.is_container(action.container.id):
            return f"{action.container} is not a container", 0
        if reg.is_container(action.object.id):
            return "cannot put a container inside a container", 0
        if len(state.objects_at(INSIDE, action.container.id)) >= CONTAINER_CAPACITY:
            return f"{action.container} is full", 0
        return None, PUT_COST
    if isinstance(action, Transport):
        if not state.objects_at(HELD, agent.name):
            return "nothing to transport", 0
        return None, reg.distance(agent.room_id, reg.bed_room.id) + TRANSPORT_DROP_COST
    if isinstance(action, SendMessage):
        return None, MESSAGE_COST  # length enforced at construction
    return f"unknown action {action!r}", 0


def _complete(state: WorldState, agent: AgentState, action: AtomicAction) -> ActionResult:
    """Apply a finished action; ``agent`` is no longer busy."""
    reg = state.registry
    if isinstance(action, GoTo):
        _enter_room(state, agent, action.room.id)
    elif isinstance(action, ExploreCurrent):
        agent.explored[agent.room_id] = ALL
        agent.revealed.update(state.objects_at(AT_ROOM, agent.room_id))
    elif isinstance(action, GoGrasp):
        # Hands change only when the agent's own actions complete, so only a
        # teammate's grasp can have taken the object since the start.
        oid = action.object.id
        if state.locations.get(oid) != (AT_ROOM, agent.room_id):
            return ActionResult("rejected", action, f"{action.object} no longer available")
        state.locations[oid] = (HELD, agent.name)
        agent.revealed.add(oid)
    elif isinstance(action, Put):
        # Only the agent's own actions change its hands or fill the container
        # it holds, and it was busy with this put: what _start accepted holds.
        state.locations[action.object.id] = (INSIDE, action.container.id)
    elif isinstance(action, Transport):
        _enter_room(state, agent, reg.bed_room.id)
        for oid in state.objects_at(HELD, agent.name):
            for inner in state.objects_at(INSIDE, oid):
                state.locations[inner] = (AT_BED,)
            state.locations[oid] = (AT_BED,)
    else:  # SendMessage: _start refuses any other action
        for other in state.agents.values():
            if other is not agent:
                other.inbox.append((agent.name, action.text))
    return ActionResult("completed", action)


def apply(state: WorldState, intents: dict[str, AtomicAction]) -> dict[str, ActionResult]:
    """Advance the world by exactly one frame; returns each agent's result.

    ``intents`` holds only the agents that start something: an idle agent
    without one idles this frame and a busy one goes on.  An intent
    :func:`_start` refuses is rejected (a busy agent's with "agent is
    busy") and an idle agent then idles this frame.  Completions run in
    agent-index order, which resolves same-frame grasp races in favor of
    the lower index; a completed message goes straight into the other
    agents' inboxes, which are read only between frames.
    """
    state.frame += 1
    results: dict[str, ActionResult] = {}

    for agent in state.agents.values():
        intent = intents.get(agent.name)
        if intent is None:
            if agent.busy is None:
                results[agent.name] = ActionResult("idle")
            continue
        err, cost = _start(state, agent, intent)
        if err:
            results[agent.name] = ActionResult("rejected", intent, err)
        else:
            agent.busy = (intent, state.frame + cost - 1)

    for agent in state.agents.values():
        if agent.busy is None:
            continue
        action, done = agent.busy
        if state.frame < done:
            results.setdefault(agent.name, ActionResult("in_progress", action))
        else:
            agent.busy = None
            results[agent.name] = _complete(state, agent, action)

    _check_invariants(state)
    return results


def skip_quiet_frames(state: WorldState) -> None:
    """Jump over frames in which nothing can happen, when no one acts.

    Moves ``state.frame`` forward, and nothing else, up to one frame
    before the earliest completion or the frame budget, so the next
    :func:`apply` runs the frame that changes something (or times out).
    A busy agent holds the frame its action completes on, so no agent
    changes.  Only valid when no intents are submitted: a frame with
    neither intents nor completions changes nothing but the frame.
    """
    budget = state.registry.scenario.frame_budget
    done = [a.busy[1] for a in state.agents.values() if a.busy is not None]
    state.frame = max(state.frame, min([budget, *done]) - 1)


def observe(state: WorldState, agent_name: str) -> VisualObservation:
    """Deterministic per-agent view of the current frame; pure read."""
    reg = state.registry
    agent = state.agents[agent_name]
    room = reg.rooms_by_id[agent.room_id]

    groups = state.grouped()

    def refs(*location) -> tuple[ObjectRef, ...]:
        return tuple(reg.objects_by_id[oid][0] for oid in groups.get(location, ()))

    items = [ref for ref in refs(AT_ROOM, agent.room_id) if ref.id in agent.revealed]
    at_bed = ()
    if agent.room_id == reg.scenario.bed_room_id:
        items.append(reg.bed)
        at_bed = tuple(ref for ref in refs(AT_BED) if reg.is_target(ref.id))

    here = [a for a in state.agents.values() if a.room_id == agent.room_id]
    hands = {a.name: refs(HELD, a.name) for a in here}
    contents = tuple(
        (held, inner)
        for a in here
        for held in hands[a.name]
        for inner in refs(INSIDE, held.id)
    )

    return VisualObservation(
        room=room,
        exploration=agent.explored.get(agent.room_id, NONE),
        items=tuple(items),
        hands=hands[agent_name],
        contents=contents,
        at_bed=at_bed,
        colocated=tuple((a.name, hands[a.name]) for a in here if a is not agent),
    )


def drain_inbox(state: WorldState, agent_name: str) -> list[tuple[str, str]]:
    """Messages delivered since the agent last looked, oldest first."""
    agent = state.agents[agent_name]
    inbox, agent.inbox = agent.inbox, []
    return inbox


def is_done(state: WorldState) -> tuple[bool, str]:
    targets = state.registry.target_ids
    if targets and all(state.locations[oid] == (AT_BED,) for oid in targets):
        return True, "complete"
    if state.frame >= state.registry.scenario.frame_budget:
        return True, "timeout"
    return False, ""


def legal_intents(state: WorldState, agent_name: str) -> list[AtomicAction]:
    """Every intent the agent could start this frame, in a fixed order: each
    candidate that :func:`_start` accepts."""
    agent = state.agents[agent_name]
    reg = state.registry
    rooms = [reg.rooms_by_id[room_id] for room_id in sorted(reg.rooms_by_id)]
    held = [reg.objects_by_id[oid][0] for oid in state.objects_at(HELD, agent_name)]
    candidates = [
        *map(GoTo, rooms),
        *map(ExploreCurrent, rooms),
        *(GoGrasp(reg.objects_by_id[oid][0]) for oid in sorted(reg.objects_by_id)),
        *(Put(item, container) for item in held for container in held),
        Transport(),
    ]
    return [action for action in candidates if _start(state, agent, action)[0] is None]


def _check_invariants(state: WorldState) -> None:
    """Conservation and capacity checks, run after every frame.

    Every object has a location; each location, read from one
    :meth:`WorldState.grouped` pass, is checked once and named by its
    lowest id: a known room, a known agent's hands (at most
    ``MAX_HANDS`` items, at most one container), a container's load (at
    most ``CONTAINER_CAPACITY``) or the bed."""
    reg = state.registry
    for oid, (_, kind) in reg.objects_by_id.items():
        if kind != BED and oid not in state.locations:
            raise InvariantViolation(f"object {oid} has no location")
    for loc, ids in state.grouped().items():
        tag, oid = loc[0], ids[0]
        if tag == AT_ROOM:
            if loc[1] not in reg.rooms_by_id:
                raise InvariantViolation(f"object {oid} in unknown room {loc[1]}")
        elif tag == HELD:
            if loc[1] not in state.agents:
                raise InvariantViolation(f"object {oid} held by unknown agent {loc[1]}")
            if len(ids) > MAX_HANDS:
                raise InvariantViolation(f"{loc[1]} holds more than {MAX_HANDS} items")
            if sum(map(reg.is_container, ids)) > 1:
                raise InvariantViolation(f"{loc[1]} holds more than one container")
        elif tag == INSIDE:
            if not reg.is_container(loc[1]):
                raise InvariantViolation(f"object {oid} inside non-container {loc[1]}")
            if len(ids) > CONTAINER_CAPACITY:
                raise InvariantViolation(f"container {loc[1]} over capacity: {ids}")
        elif tag != AT_BED:
            raise InvariantViolation(f"object {oid} in unknown location {loc!r}")
