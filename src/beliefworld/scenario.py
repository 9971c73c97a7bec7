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
must equal that constant.  Ids, room references, edge entries,
``frame_budget`` and ``container_capacity`` are JSON integers and
``reveal_fraction`` is a JSON number: a bool, a fraction or a quoted number
is an error, never rounded or parsed.  Names are JSON strings: each
entity must render as a ``<name>(id)`` the belief language can write (no
whitespace, brackets or parentheses in the name, no negative id), and an
agent name is a capitalized identifier other than ``BELIEVE``, which no
belief line could name.  Agents beyond the listed ones can be added by the
harness; extras draw names from a fixed pool and start rooms round-robin
from the listed starts.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .sbl import BELIEVE, ObjectRef, _AGENT_RE, _OBJECT_RE

TARGET = "target"
CONTAINER = "container"
BED = "bed"

CONTAINER_CAPACITY = 3
MAX_HANDS = 2

EXTRA_AGENT_NAMES = ("Charlie", "David", "Eve", "Frank", "Grace", "Heidi")


class ScenarioError(ValueError):
    """Scenario validation failure; message lists every violation."""


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
    rooms_by_id: dict[int, ObjectRef] = field(init=False)
    objects_by_id: dict[int, tuple[ObjectRef, str]] = field(init=False)
    goal: str = field(init=False)  # the GOAL sentence of the planning prompts
    _dist: dict[int, dict[int, int]] = field(init=False)

    def __post_init__(self):
        scn = self.scenario
        self.rooms_by_id = {r.id: r for r in scn.rooms}
        self.objects_by_id = {ref.id: (ref, kind) for ref, kind, _ in scn.objects}
        self.objects_by_id[scn.bed.id] = (scn.bed, BED)
        adj = _adjacency(self.rooms_by_id, scn.edges)
        self._dist = {start: _dijkstra(adj, start) for start in adj}
        self.goal = (
            f"Transport the {len(self.target_ids())} target objects to the bed "
            f"{self.bed} in {self.bed_room}."
        )

    @property
    def bed(self) -> ObjectRef:
        return self.scenario.bed

    @property
    def bed_room(self) -> ObjectRef:
        return self.rooms_by_id[self.scenario.bed_room_id]

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
        return self.rooms_by_id[dict(self.scenario.agents)[agent]]


def _adjacency(
    room_ids: Iterable[int], edges: Iterable[tuple[int, int, int]]
) -> dict[int, list[tuple[int, int]]]:
    """Each room's (neighbour, frame cost) pairs over the undirected edges."""
    adj: dict[int, list[tuple[int, int]]] = {r: [] for r in room_ids}
    for a, b, cost in edges:
        adj[a].append((b, cost))
        adj[b].append((a, cost))
    return adj


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


def _int(value) -> int | None:
    """``value`` when it is a JSON integer, else None: a bool, a float or a
    string is never read as one."""
    return value if type(value) is int else None


def _ref(entry: dict, what: str, violations: list[str]) -> ObjectRef | None:
    if not (isinstance(entry, dict) and "name" in entry and _int(entry.get("id")) is not None):
        violations.append(f"{what} entry needs string 'name' and integer 'id': {entry!r}")
        return None
    ref = ObjectRef(entry["name"], entry["id"])
    if isinstance(ref.name, str) and _OBJECT_RE.match(str(ref)):
        return ref
    violations.append(f"{what} entry is not a <name>(id) the belief language can write: {entry!r}")
    return None


def _list(data: dict, key: str, violations: list[str]) -> list:
    value = data.get(key, [])
    if isinstance(value, list):
        return value
    violations.append(f"{key} must be a list: {value!r}")
    return []


def _int_field(data: dict, key: str, default: int, violations: list[str]) -> int:
    value = _int(data.get(key, default))
    if value is None:
        violations.append(f"{key} must be an integer: {data[key]!r}")
        return default
    return value


def scenario_from_dict(data: dict) -> Scenario:
    """Validate raw JSON data; raises ScenarioError listing all problems."""
    if not isinstance(data, dict):
        raise ScenarioError(f"invalid scenario: the top level must be a JSON object: {data!r}")
    violations: list[str] = []

    rooms = tuple(
        r for r in (_ref(e, "room", violations) for e in _list(data, "rooms", violations)) if r
    )
    if not rooms:
        violations.append("at least one room is required")
    room_ids = {r.id for r in rooms}
    if len(room_ids) != len(rooms):
        violations.append("duplicate room ids")

    edges = []
    for e in _list(data, "edges", violations):
        if not isinstance(e, list) or len(e) != 3 or None in map(_int, e):
            violations.append(f"edge must be [room_id, room_id, cost]: {e!r}")
            continue
        a, b, cost = e
        if a not in room_ids or b not in room_ids:
            violations.append(f"edge references unknown room: {e!r}")
        elif cost <= 0:
            violations.append(f"edge cost must be positive: {e!r}")
        else:
            edges.append((a, b, cost))
    if rooms and len(_dijkstra(_adjacency(room_ids, edges), rooms[0].id)) < len(room_ids):
        violations.append("room graph is not connected")

    bed_entry = data.get("bed", {})
    bed = _ref(bed_entry, "bed", violations)
    bed_room_id = bed_entry.get("room") if isinstance(bed_entry, dict) else None
    if _int(bed_room_id) not in room_ids:
        violations.append(f"bed room {bed_room_id!r} is not a known room")

    objects = []
    seen_ids = set(room_ids)
    if bed:
        seen_ids.add(bed.id)
    target_count = 0
    for entry in _list(data, "objects", violations):
        ref = _ref(entry, "object", violations)
        if ref is None:
            continue
        kind = entry.get("kind")
        home = entry.get("room")
        if kind not in (TARGET, CONTAINER):
            violations.append(f"object kind must be target|container: {entry!r}")
            continue
        if _int(home) not in room_ids:
            violations.append(f"object home room {home!r} is not a known room")
            continue
        if ref.id in seen_ids:
            violations.append(f"duplicate entity id {ref.id}")
            continue
        seen_ids.add(ref.id)
        target_count += kind == TARGET
        objects.append((ref, kind, home))
    if target_count < 1:
        violations.append("at least one target object is required")

    agents = []
    for entry in _list(data, "agents", violations):
        if not isinstance(entry, dict):
            violations.append(f"agent entry must be an object: {entry!r}")
            continue
        name = entry.get("name")
        room = entry.get("room")
        if not (isinstance(name, str) and _AGENT_RE.match(name)) or name == BELIEVE:
            violations.append(
                f"agent name must be a capitalized identifier string other than {BELIEVE}: {entry!r}"
            )
        elif _int(room) not in room_ids:
            violations.append(f"agent start room {room!r} is not a known room")
        else:
            agents.append((name, room))
    if len(agents) < 2:
        violations.append("at least two agents are required")
    if len({n for n, _ in agents}) != len(agents):
        violations.append("duplicate agent names")

    capacity = _int_field(data, "container_capacity", CONTAINER_CAPACITY, violations)
    if capacity != CONTAINER_CAPACITY:
        violations.append(f"container_capacity is fixed at {CONTAINER_CAPACITY}")
    frame_budget = _int_field(data, "frame_budget", 3000, violations)
    if frame_budget <= 0:
        violations.append("frame_budget must be positive")
    reveal = data.get("reveal_fraction", 0.5)
    if type(reveal) not in (int, float):
        violations.append(f"reveal_fraction must be a finite number: {reveal!r}")
    elif not 0.0 <= reveal <= 1.0:
        violations.append("reveal_fraction must lie in [0, 1]")

    if violations:
        raise ScenarioError("invalid scenario:\n- " + "\n- ".join(violations))

    assert bed is not None
    return Scenario(
        name=str(data.get("name", "scenario")),
        rooms=rooms,
        edges=tuple(edges),
        bed=bed,
        bed_room_id=bed_room_id,
        objects=tuple(objects),
        agents=tuple(agents),
        frame_budget=frame_budget,
        reveal_fraction=float(reveal),
    )


def bundled_scenario_names() -> list[str]:
    root = resources.files("beliefworld").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(spec: str | Path) -> Scenario:
    """Load a scenario from a file path, or by bundled name (e.g. food_small).

    A bundled name wins over a directory of the same name, such as one an
    earlier ``--out food_small`` left in the working directory.
    """
    source = Path(spec)
    if not source.is_file():
        bundled = resources.files("beliefworld").joinpath(f"scenarios/{spec}.json")
        if bundled.is_file():
            source = bundled
        elif not source.exists():
            raise ScenarioError(f"scenario not found: {spec}")
    try:
        data = json.loads(source.read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read scenario {spec}: {exc}") from None
    return scenario_from_dict(data)
