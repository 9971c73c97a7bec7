"""Scenario files: the static world description an episode runs against.

A scenario is a JSON document with this shape (ids must be unique across
rooms, objects, and the goal bed):

.. code-block:: json

    {
      "name": "food_small",
      "rooms": [{"name": "kitchen", "id": 2000}, ...],
      "edges": [[2000, 1000, 100], ...],
      "bed": {"name": "bed", "id": 9000, "room": 4000},
      "objects": [
        {"name": "apple", "id": 101, "kind": "target", "room": 2000},
        {"name": "bowl", "id": 201, "kind": "container", "room": 1000}
      ],
      "agents": [{"name": "Alice", "room": 2000}, {"name": "Bob", "room": 3000}],
      "frame_budget": 3000,
      "reveal_fraction": 0.5,
      "container_capacity": 3
    }

``edges`` are undirected ``[room_id, room_id, frame_cost]`` triples and the
room graph must be connected.  Object kinds are ``target`` (to be carried
to the bed) or ``container`` (holds up to ``CONTAINER_CAPACITY`` targets,
lost on delivery); ``container_capacity`` is optional and, when present,
must equal that constant.  Agents beyond the listed ones can be added by the
harness; extras draw names from a fixed pool and start rooms round-robin
from the listed starts.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .sbl import ObjectRef, _AGENT_RE

TARGET = "target"
CONTAINER = "container"
BED = "bed"

CONTAINER_CAPACITY = 3
MAX_HANDS = 2

EXTRA_AGENT_NAMES = ("Charlie", "David", "Eve", "Frank", "Grace", "Heidi")


class ScenarioError(ValueError):
    """Scenario validation failure; message lists every violation."""


@dataclass(frozen=True)
class GoalSpec:
    """Transport-to-bed goal: every target object delivered to the bed."""

    bed: ObjectRef
    bed_room: ObjectRef
    targets: tuple[ObjectRef, ...]

    def describe(self) -> str:
        return (
            f"Transport the {len(self.targets)} target objects to the bed "
            f"{self.bed} in {self.bed_room}."
        )


@dataclass(frozen=True)
class Scenario:
    name: str
    rooms: tuple[ObjectRef, ...]
    edges: tuple[tuple[int, int, int], ...]
    bed: ObjectRef
    bed_room_id: int
    objects: tuple[tuple[ObjectRef, str, int], ...]  # (ref, kind, home room id)
    agents: tuple[tuple[str, int], ...]  # (name, start room id)
    frame_budget: int = 3000
    reveal_fraction: float = 0.5

    @property
    def goal(self) -> GoalSpec:
        targets = tuple(ref for ref, kind, _ in self.objects if kind == TARGET)
        return GoalSpec(self.bed, self.room_by_id(self.bed_room_id), targets)

    def room_by_id(self, room_id: int) -> ObjectRef:
        for room in self.rooms:
            if room.id == room_id:
                return room
        raise KeyError(room_id)

    def with_agents(self, count: int) -> "Scenario":
        """Trim or extend the agent roster to exactly ``count`` entries."""
        if count < 2:
            raise ScenarioError("at least two agents are required")
        if count <= len(self.agents):
            return replace(self, agents=self.agents[:count])
        existing = {name for name, _ in self.agents}
        pool = [n for n in EXTRA_AGENT_NAMES if n not in existing]
        starts = [room for _, room in self.agents]
        extra = []
        for i in range(count - len(self.agents)):
            if not pool:
                raise ScenarioError("agent name pool exhausted")
            extra.append((pool.pop(0), starts[i % len(starts)]))
        return replace(self, agents=self.agents + tuple(extra))


@dataclass
class EntityRegistry:
    """Fast lookups over a scenario's entities, plus room-graph distances.

    The registry is public knowledge: agents know which rooms, objects,
    and teammates exist (and object kinds), but not where anything is
    until they observe or are told.
    """

    scenario: Scenario
    rooms_by_id: dict[int, ObjectRef] = field(default_factory=dict)
    objects_by_id: dict[int, tuple[ObjectRef, str]] = field(default_factory=dict)
    agent_names: tuple[str, ...] = ()
    _dist: dict[int, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        scn = self.scenario
        self.rooms_by_id = {r.id: r for r in scn.rooms}
        self.objects_by_id = {ref.id: (ref, kind) for ref, kind, _ in scn.objects}
        self.objects_by_id[scn.bed.id] = (scn.bed, BED)
        self.agent_names = tuple(name for name, _ in scn.agents)
        adj: dict[int, list[tuple[int, int]]] = {r.id: [] for r in scn.rooms}
        for a, b, cost in scn.edges:
            adj[a].append((b, cost))
            adj[b].append((a, cost))
        for start in adj:
            self._dist[start] = _dijkstra(adj, start)

    @property
    def bed(self) -> ObjectRef:
        return self.scenario.bed

    @property
    def bed_room(self) -> ObjectRef:
        return self.rooms_by_id[self.scenario.bed_room_id]

    @property
    def goal(self) -> GoalSpec:
        return self.scenario.goal

    def kind_of(self, entity_id: int) -> str | None:
        entry = self.objects_by_id.get(entity_id)
        return entry[1] if entry else None

    def is_target(self, entity_id: int) -> bool:
        return self.kind_of(entity_id) == TARGET

    def is_container(self, entity_id: int) -> bool:
        return self.kind_of(entity_id) == CONTAINER

    def container_ids(self) -> frozenset[int]:
        return frozenset(
            oid for oid, (_, kind) in self.objects_by_id.items() if kind == CONTAINER
        )

    def target_ids(self) -> frozenset[int]:
        return frozenset(
            oid for oid, (_, kind) in self.objects_by_id.items() if kind == TARGET
        )

    def is_room(self, entity_id: int) -> bool:
        return entity_id in self.rooms_by_id

    def knows(self, entity_id: int) -> bool:
        return entity_id in self.rooms_by_id or entity_id in self.objects_by_id

    def distance(self, from_room: int, to_room: int) -> int:
        """Shortest frame cost between two rooms (0 for the same room)."""
        return self._dist[from_room][to_room]

    def start_room(self, agent: str) -> ObjectRef:
        for name, room_id in self.scenario.agents:
            if name == agent:
                return self.rooms_by_id[room_id]
        raise KeyError(agent)


def _dijkstra(adj: dict[int, list[tuple[int, int]]], start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = [(0, start)]
    while queue:
        d, node = heapq.heappop(queue)
        if d > dist.get(node, float("inf")):
            continue
        for nxt, cost in adj[node]:
            nd = d + cost
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(queue, (nd, nxt))
    return dist


def _ref(entry: dict, what: str, violations: list[str]) -> ObjectRef | None:
    try:
        return ObjectRef(str(entry["name"]), int(entry["id"]))
    except (KeyError, TypeError, ValueError):
        violations.append(f"{what} entry needs string 'name' and integer 'id': {entry!r}")
        return None


def scenario_from_dict(data: dict) -> Scenario:
    """Validate raw JSON data; raises ScenarioError listing all problems."""
    violations: list[str] = []

    rooms = tuple(
        r for r in (_ref(e, "room", violations) for e in data.get("rooms", [])) if r
    )
    if not rooms:
        violations.append("at least one room is required")
    room_ids = {r.id for r in rooms}
    if len(room_ids) != len(rooms):
        violations.append("duplicate room ids")

    edges = []
    for e in data.get("edges", []):
        try:
            a, b, cost = int(e[0]), int(e[1]), int(e[2])
        except (TypeError, ValueError, IndexError):
            violations.append(f"edge must be [room_id, room_id, cost]: {e!r}")
            continue
        if a not in room_ids or b not in room_ids:
            violations.append(f"edge references unknown room: {e!r}")
        elif cost <= 0:
            violations.append(f"edge cost must be positive: {e!r}")
        else:
            edges.append((a, b, cost))
    if rooms and not _connected(room_ids, edges):
        violations.append("room graph is not connected")

    bed_entry = data.get("bed", {})
    bed = _ref(bed_entry, "bed", violations)
    bed_room_id = bed_entry.get("room")
    if bed_room_id not in room_ids:
        violations.append(f"bed room {bed_room_id!r} is not a known room")

    objects = []
    seen_ids = set(room_ids)
    if bed:
        seen_ids.add(bed.id)
    target_count = 0
    for entry in data.get("objects", []):
        ref = _ref(entry, "object", violations)
        if ref is None:
            continue
        kind = entry.get("kind")
        home = entry.get("room")
        if kind not in (TARGET, CONTAINER):
            violations.append(f"object kind must be target|container: {entry!r}")
            continue
        if home not in room_ids:
            violations.append(f"object home room {home!r} is not a known room")
            continue
        if ref.id in seen_ids:
            violations.append(f"duplicate entity id {ref.id}")
            continue
        seen_ids.add(ref.id)
        target_count += kind == TARGET
        objects.append((ref, kind, int(home)))
    if target_count < 1:
        violations.append("at least one target object is required")

    agents = []
    for entry in data.get("agents", []):
        name = str(entry.get("name", ""))
        room = entry.get("room")
        if not _AGENT_RE.match(name):
            violations.append(f"agent name must be a capitalized identifier: {name!r}")
        elif room not in room_ids:
            violations.append(f"agent start room {room!r} is not a known room")
        else:
            agents.append((name, int(room)))
    if len(agents) < 2:
        violations.append("at least two agents are required")
    if len({n for n, _ in agents}) != len(agents):
        violations.append("duplicate agent names")

    capacity = int(data.get("container_capacity", CONTAINER_CAPACITY))
    if capacity != CONTAINER_CAPACITY:
        violations.append(f"container_capacity is fixed at {CONTAINER_CAPACITY}")
    frame_budget = int(data.get("frame_budget", 3000))
    if frame_budget <= 0:
        violations.append("frame_budget must be positive")
    reveal = float(data.get("reveal_fraction", 0.5))
    if not 0.0 <= reveal <= 1.0:
        violations.append("reveal_fraction must lie in [0, 1]")

    if violations:
        raise ScenarioError("invalid scenario:\n- " + "\n- ".join(violations))

    assert bed is not None
    return Scenario(
        name=str(data.get("name", "scenario")),
        rooms=rooms,
        edges=tuple(edges),
        bed=bed,
        bed_room_id=int(bed_room_id),
        objects=tuple(objects),
        agents=tuple(agents),
        frame_budget=frame_budget,
        reveal_fraction=reveal,
    )


def _connected(room_ids: set[int], edges: list[tuple[int, int, int]]) -> bool:
    if not room_ids:
        return False
    adj: dict[int, set[int]] = {r: set() for r in room_ids}
    for a, b, _ in edges:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    stack = [next(iter(room_ids))]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adj[node] - seen)
    return seen == room_ids


def bundled_scenario_names() -> list[str]:
    root = resources.files("beliefworld").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(spec: str | Path) -> Scenario:
    """Load a scenario from a path, or by bundled name (e.g. food_small)."""
    path = Path(spec)
    if not path.exists():
        candidate = resources.files("beliefworld").joinpath(f"scenarios/{spec}.json")
        if candidate.is_file():
            return scenario_from_dict(json.loads(candidate.read_text()))
        raise ScenarioError(f"scenario not found: {spec}")
    return scenario_from_dict(json.loads(path.read_text()))
