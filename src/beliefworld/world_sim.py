"""Deterministic lockstep transport environment.

The world advances one frame per :func:`apply` call.  Agents submit an
intent when idle and ``CONTINUE`` while an action is in progress; actions
occupy a fixed number of frames and mutate state atomically on their final
frame.  All randomness comes from per-agent streams derived from the
episode seed, so a (scenario, seed, intent sequence) triple replays to a
bit-identical trajectory.

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
targets in one trip).  Containers dropped at the goal are lost and can
never be picked up again.  When two agents' grasps of the same object
complete on the same frame, the lower-indexed agent wins and the loser's
action is rejected.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from .actions import (
    CONTINUE,
    AtomicAction,
    ExploreCurrent,
    GoGrasp,
    GoTo,
    Put,
    SendMessage,
    Transport,
)
from .scenario import BED, CONTAINER, CONTAINER_CAPACITY, MAX_HANDS, TARGET, EntityRegistry, Scenario
from .sbl import EXPLORED_STATES, ObjectRef

log = logging.getLogger(__name__)

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


class SimulationError(RuntimeError):
    pass


class InvariantViolation(SimulationError):
    pass


@dataclass
class AgentState:
    name: str
    room_id: int
    hands: list[int] = field(default_factory=list)
    busy: tuple[AtomicAction, int] | None = None  # (action, frames remaining)
    inbox: list[tuple[str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class ActionResult:
    status: str  # idle | in_progress | completed | rejected
    action: AtomicAction | None = None
    detail: str = ""


@dataclass(frozen=True)
class VisualObservation:
    """What one agent can see from where it stands this frame.

    Nothing outside the current room and nothing unrevealed ever appears
    here; ``items`` lists (ref, kind) pairs for revealed objects lying in
    the room, ``at_bed`` is only populated in the goal room, and
    ``colocated`` carries same-room teammates with their held items.
    """

    agent: str
    frame: int
    room: ObjectRef
    exploration: str
    items: tuple[tuple[ObjectRef, str], ...]
    hands: tuple[tuple[ObjectRef, str], ...]
    contents: tuple[tuple[ObjectRef, ObjectRef], ...]  # (container, object) pairs
    at_bed: tuple[ObjectRef, ...]
    colocated: tuple[tuple[str, tuple[tuple[ObjectRef, str], ...]], ...]


@dataclass
class WorldState:
    registry: EntityRegistry
    seed: int
    frame: int = 0
    locations: dict[int, Location] = field(default_factory=dict)
    lost_containers: set[int] = field(default_factory=set)
    agents: list[AgentState] = field(default_factory=list)
    explored: dict[tuple[str, int], str] = field(default_factory=dict)
    revealed: dict[str, set[int]] = field(default_factory=dict)
    pending_messages: list[tuple[str, str]] = field(default_factory=list)
    _rngs: dict[str, random.Random] = field(default_factory=dict)

    def agent(self, name: str) -> AgentState:
        for a in self.agents:
            if a.name == name:
                return a
        raise KeyError(name)

    def exploration_of(self, agent: str, room_id: int) -> str:
        return self.explored.get((agent, room_id), NONE)

    def room_contents(self, room_id: int) -> list[int]:
        return sorted(
            oid for oid, loc in self.locations.items() if loc == (AT_ROOM, room_id)
        )

    def container_load(self, container_id: int) -> list[int]:
        return sorted(
            oid for oid, loc in self.locations.items() if loc == (INSIDE, container_id)
        )

    def transported_ids(self) -> list[int]:
        reg = self.registry
        return sorted(
            oid
            for oid, loc in self.locations.items()
            if loc == (AT_BED,) and reg.is_target(oid)
        )


def init(scenario: Scenario, seed: int) -> WorldState:
    """Build the deterministic initial state for an episode."""
    registry = EntityRegistry(scenario)
    state = WorldState(registry=registry, seed=seed)
    for ref, _, home in scenario.objects:
        state.locations[ref.id] = (AT_ROOM, home)
    for index, (name, room_id) in enumerate(scenario.agents):
        state.agents.append(AgentState(name=name, room_id=room_id))
        state.revealed[name] = set()
        state._rngs[name] = random.Random(seed * 100003 + index * 7919)
    for agent in state.agents:
        _enter_room(state, agent, agent.room_id)
    _check_invariants(state)
    return state


def _enter_room(state: WorldState, agent: AgentState, room_id: int) -> None:
    """Room-entry side effects: partial reveal and exploration >= part."""
    agent.room_id = room_id
    rng = state._rngs[agent.name]
    fraction = state.registry.scenario.reveal_fraction
    for oid in state.room_contents(room_id):
        if oid in state.revealed[agent.name]:
            continue
        if rng.random() < fraction:
            state.revealed[agent.name].add(oid)
    key = (agent.name, room_id)
    if state.explored.get(key) != ALL:
        state.explored[key] = PART


def _action_cost(state: WorldState, agent: AgentState, action: AtomicAction) -> int:
    reg = state.registry
    if isinstance(action, GoTo):
        return reg.distance(agent.room_id, action.room.id)
    if isinstance(action, ExploreCurrent):
        return EXPLORE_COST
    if isinstance(action, GoGrasp):
        return GRASP_COST
    if isinstance(action, Put):
        return PUT_COST
    if isinstance(action, Transport):
        return reg.distance(agent.room_id, reg.bed_room.id) + TRANSPORT_DROP_COST
    if isinstance(action, SendMessage):
        return MESSAGE_COST
    raise SimulationError(f"unknown action {action!r}")


def _held_container(state: WorldState, agent: AgentState) -> int | None:
    for oid in agent.hands:
        if state.registry.is_container(oid):
            return oid
    return None


def _validate(state: WorldState, agent: AgentState, action: AtomicAction) -> str | None:
    """Why the intent is illegal right now, or None when it may start."""
    reg = state.registry
    if isinstance(action, GoTo):
        if action.room.id not in reg.rooms_by_id:
            return f"unknown room {action.room}"
        if action.room.id == agent.room_id:
            return "already in that room"
        return None
    if isinstance(action, ExploreCurrent):
        if action.room.id != agent.room_id:
            return "can only explore the current room"
        return None
    if isinstance(action, GoGrasp):
        oid = action.item.id
        if reg.kind_of(oid) not in (TARGET, CONTAINER):
            return f"not a graspable object: {action.item}"
        if state.locations.get(oid) != (AT_ROOM, agent.room_id):
            return f"{action.item} is not in this room"
        if len(agent.hands) >= MAX_HANDS:
            return "hands are full"
        if reg.is_container(oid) and _held_container(state, agent) is not None:
            return "already holding a container"
        return None
    if isinstance(action, Put):
        if action.object.id not in agent.hands:
            return f"not holding {action.object}"
        if action.container.id not in agent.hands:
            return f"not holding {action.container}"
        if not reg.is_container(action.container.id):
            return f"{action.container} is not a container"
        if reg.is_container(action.object.id):
            return "cannot put a container inside a container"
        if len(state.container_load(action.container.id)) >= CONTAINER_CAPACITY:
            return f"{action.container} is full"
        return None
    if isinstance(action, Transport):
        if not agent.hands:
            return "nothing to transport"
        return None
    if isinstance(action, SendMessage):
        return None  # length enforced at construction
    return f"unknown action {action!r}"


def _complete(state: WorldState, agent: AgentState, action: AtomicAction) -> ActionResult:
    reg = state.registry
    if isinstance(action, GoTo):
        _enter_room(state, agent, action.room.id)
        return ActionResult("completed", action)
    if isinstance(action, ExploreCurrent):
        state.explored[(agent.name, agent.room_id)] = ALL
        state.revealed[agent.name].update(state.room_contents(agent.room_id))
        return ActionResult("completed", action)
    if isinstance(action, GoGrasp):
        oid = action.item.id
        if state.locations.get(oid) != (AT_ROOM, agent.room_id) or len(agent.hands) >= MAX_HANDS:
            return ActionResult("rejected", action, f"{action.item} no longer available")
        if reg.is_container(oid) and _held_container(state, agent) is not None:
            return ActionResult("rejected", action, "already holding a container")
        state.locations[oid] = (HELD, agent.name)
        agent.hands.append(oid)
        state.revealed[agent.name].add(oid)
        return ActionResult("completed", action)
    if isinstance(action, Put):
        err = _validate(state, agent, action)
        if err:
            return ActionResult("rejected", action, err)
        state.locations[action.object.id] = (INSIDE, action.container.id)
        agent.hands.remove(action.object.id)
        return ActionResult("completed", action)
    if isinstance(action, Transport):
        _enter_room(state, agent, reg.bed_room.id)
        for oid in list(agent.hands):
            for inner in state.container_load(oid):
                state.locations[inner] = (AT_BED,)
            state.locations[oid] = (AT_BED,)
            if reg.is_container(oid):
                state.lost_containers.add(oid)
        agent.hands.clear()
        return ActionResult("completed", action)
    if isinstance(action, SendMessage):
        state.pending_messages.append((agent.name, action.text))
        return ActionResult("completed", action)
    raise SimulationError(f"unknown action {action!r}")


def apply(
    state: WorldState, intents: dict[str, AtomicAction | str]
) -> tuple[WorldState, dict[str, ActionResult]]:
    """Advance the world by exactly one frame.

    Idle agents may start the submitted intent (illegal intents are
    rejected and the agent idles this frame); busy agents must submit
    ``CONTINUE``.  Completions run in agent-index order, which resolves
    same-frame grasp races in favor of the lower index.  Messages sent
    this frame reach the other agents' inboxes once the frame ends.
    """
    state.frame += 1
    results: dict[str, ActionResult] = {}

    for agent in state.agents:
        intent = intents.get(agent.name, CONTINUE)
        if agent.busy is not None:
            if intent != CONTINUE:
                results[agent.name] = ActionResult("rejected", None, "agent is busy")
            continue
        if intent == CONTINUE:
            results[agent.name] = ActionResult("idle")
            continue
        assert not isinstance(intent, str)
        err = _validate(state, agent, intent)
        if err:
            results[agent.name] = ActionResult("rejected", intent, err)
            continue
        agent.busy = (intent, _action_cost(state, agent, intent))

    for agent in state.agents:
        if agent.busy is None:
            continue
        action, remaining = agent.busy
        remaining -= 1
        if remaining > 0:
            agent.busy = (action, remaining)
            results.setdefault(agent.name, ActionResult("in_progress", action))
        else:
            agent.busy = None
            results[agent.name] = _complete(state, agent, action)

    if state.pending_messages:
        for sender, text in state.pending_messages:
            for agent in state.agents:
                if agent.name != sender:
                    agent.inbox.append((sender, text))
        state.pending_messages.clear()

    _check_invariants(state)
    return state, results


def observe(state: WorldState, agent_name: str) -> VisualObservation:
    """Deterministic per-agent view of the current frame; pure read."""
    reg = state.registry
    agent = state.agent(agent_name)
    room = reg.rooms_by_id[agent.room_id]
    seen = state.revealed[agent_name]

    items = []
    for oid in state.room_contents(agent.room_id):
        if oid in seen:
            ref, kind = reg.objects_by_id[oid]
            items.append((ref, kind))
    if agent.room_id == reg.scenario.bed_room_id:
        items.append((reg.bed, BED))

    def hand_view(a: AgentState):
        return tuple(
            (reg.objects_by_id[oid][0], reg.objects_by_id[oid][1]) for oid in a.hands
        )

    contents = []
    for a in state.agents:
        if a.room_id != agent.room_id:
            continue
        for oid in a.hands:
            for inner in state.container_load(oid):
                contents.append((reg.objects_by_id[oid][0], reg.objects_by_id[inner][0]))

    at_bed = ()
    if agent.room_id == reg.scenario.bed_room_id:
        at_bed = tuple(reg.objects_by_id[oid][0] for oid in state.transported_ids())

    colocated = tuple(
        (a.name, hand_view(a))
        for a in state.agents
        if a.name != agent_name and a.room_id == agent.room_id
    )

    return VisualObservation(
        agent=agent_name,
        frame=state.frame,
        room=room,
        exploration=state.exploration_of(agent_name, agent.room_id),
        items=tuple(items),
        hands=hand_view(agent),
        contents=tuple(contents),
        at_bed=at_bed,
        colocated=colocated,
    )


def drain_inbox(state: WorldState, agent_name: str) -> list[tuple[str, str]]:
    """Messages delivered since the agent last looked, oldest first."""
    agent = state.agent(agent_name)
    inbox, agent.inbox = agent.inbox, []
    return inbox


def is_done(state: WorldState) -> tuple[bool, str]:
    targets = state.registry.target_ids()
    if targets and all(state.locations[oid] == (AT_BED,) for oid in targets):
        return True, "complete"
    if state.frame >= state.registry.scenario.frame_budget:
        return True, "timeout"
    return False, ""


def legal_intents(state: WorldState, agent_name: str) -> list[AtomicAction]:
    """Every intent the agent could legally start this frame (sorted)."""
    agent = state.agent(agent_name)
    if agent.busy is not None:
        return []
    reg = state.registry
    options: list[AtomicAction] = []
    for room_id in sorted(reg.rooms_by_id):
        if room_id != agent.room_id:
            options.append(GoTo(reg.rooms_by_id[room_id]))
    options.append(ExploreCurrent(reg.rooms_by_id[agent.room_id]))
    for oid in state.room_contents(agent.room_id):
        action = GoGrasp(reg.objects_by_id[oid][0])
        if _validate(state, agent, action) is None:
            options.append(action)
    container = _held_container(state, agent)
    if container is not None:
        for oid in sorted(agent.hands):
            if oid == container:
                continue
            action = Put(reg.objects_by_id[oid][0], reg.objects_by_id[container][0])
            if _validate(state, agent, action) is None:
                options.append(action)
    if agent.hands:
        options.append(Transport())
    return options


def _check_invariants(state: WorldState) -> None:
    """Conservation and capacity checks, run after every frame."""
    reg = state.registry
    for oid, (_, kind) in reg.objects_by_id.items():
        if kind == BED:
            continue
        loc = state.locations.get(oid)
        if loc is None:
            raise InvariantViolation(f"object {oid} has no location")
        tag = loc[0]
        if tag == AT_ROOM:
            if loc[1] not in reg.rooms_by_id:
                raise InvariantViolation(f"object {oid} in unknown room {loc[1]}")
        elif tag == HELD:
            holder = state.agent(loc[1])
            if oid not in holder.hands:
                raise InvariantViolation(f"object {oid} marked held but not in hands")
        elif tag == INSIDE:
            if not reg.is_container(loc[1]):
                raise InvariantViolation(f"object {oid} inside non-container {loc[1]}")
            if state.locations.get(loc[1]) == (AT_BED,) and loc[1] not in state.lost_containers:
                raise InvariantViolation(f"container {loc[1]} at bed but not lost")
        elif tag != AT_BED:
            raise InvariantViolation(f"object {oid} in unknown location {loc!r}")

    for agent in state.agents:
        if len(agent.hands) > MAX_HANDS:
            raise InvariantViolation(f"{agent.name} holds more than {MAX_HANDS} items")
        containers = [oid for oid in agent.hands if reg.is_container(oid)]
        if len(containers) > 1:
            raise InvariantViolation(f"{agent.name} holds more than one container")
        for oid in agent.hands:
            if state.locations.get(oid) != (HELD, agent.name):
                raise InvariantViolation(f"hand/location mismatch for {oid}")

    for cid in reg.container_ids():
        load = state.container_load(cid)
        if len(load) > CONTAINER_CAPACITY:
            raise InvariantViolation(f"container {cid} over capacity: {load}")
