"""Scenario loading, validation, roster extension and the entity registry."""

import json
from importlib import resources

import pytest

from beliefworld import sbl
from beliefworld.actions import ExploreCurrent, GoTo, Plan
from beliefworld.scenario import (
    CONTAINER,
    CONTAINER_CAPACITY,
    EXTRA_AGENT_NAMES,
    SORTS,
    TARGET,
    EntityRegistry,
    ScenarioError,
    kind_pairs,
    load_scenario,
    scenario_from_dict,
)


def food_small_data() -> dict:
    path = resources.files("beliefworld").joinpath("scenarios/food_small.json")
    return json.loads(path.read_text())


def test_every_violation_is_listed_in_one_error():
    data = food_small_data()
    data["objects"][1]["id"] = data["objects"][0]["id"]
    data["rooms"].append({"name": "attic", "id": 5000})
    data["container_capacity"] = CONTAINER_CAPACITY + 1
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    message = str(exc.value)
    assert f"duplicate entity id {data['objects'][0]['id']}" in message
    assert "room graph is not connected" in message
    assert f"container_capacity is fixed at {CONTAINER_CAPACITY}" in message


def test_with_agents_needs_two():
    with pytest.raises(ScenarioError):
        load_scenario("food_small").with_agents(1)


def test_with_agents_extends_round_robin_over_listed_starts():
    scn = load_scenario("food_small")
    listed = scn.agents
    grown = scn.with_agents(4).agents
    assert grown[:2] == listed
    assert [name for name, _ in grown[2:]] == list(EXTRA_AGENT_NAMES[:2])
    assert [room for _, room in grown[2:]] == [room for _, room in listed]
    assert scn.with_agents(2).agents == listed


def test_unknown_scenario_name_raises():
    with pytest.raises(ScenarioError):
        load_scenario("nope")


def test_a_directory_named_like_a_bundled_scenario_does_not_shadow_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "food_small").mkdir()  # as an earlier ``--out food_small`` leaves
    assert load_scenario("food_small") == scenario_from_dict(food_small_data())
    (tmp_path / "nope").mkdir()
    with pytest.raises(ScenarioError, match="cannot read scenario nope"):
        load_scenario("nope")


def test_distance_is_zero_in_place_and_symmetric():
    registry = EntityRegistry(load_scenario("food_small"))
    rooms = sorted(registry.rooms_by_id)
    for a in rooms:
        assert registry.distance(a, a) == 0
        for b in rooms:
            assert registry.distance(a, b) == registry.distance(b, a)
            if a != b:
                assert registry.distance(a, b) > 0
        explore = registry.explore_plans[a]
        nearest_first = [(registry.distance(a, room.id), room.id) for room, _ in explore]
        assert nearest_first == sorted((registry.distance(a, b), b) for b in rooms)
        for room, plan in explore:
            go_to = [] if room.id == a else [GoTo(room)]
            assert plan == Plan((*go_to, ExploreCurrent(room)))


@pytest.mark.parametrize("name", ("food_small", "stuff_small"))
def test_kind_id_sets_match_declared_objects(name):
    scn = load_scenario(name)
    registry = EntityRegistry(scn)
    assert registry.target_ids == {ref.id for ref, kind, _ in scn.objects if kind == TARGET}
    assert registry.container_ids == {
        ref.id for ref, kind, _ in scn.objects if kind == CONTAINER
    }


@pytest.mark.parametrize("rule, pairs", [
    # A stem is the name without trailing capitals or digits; the chain is ignored.
    ("?agentA BELIEVE ?agentB BELIEVE ?agentC HOLD ?object2",
     {("agent", "target"), ("agent", "container")}),
    ("Alice BELIEVE ?container CONTAIN ?target", {("container", "target")}),
    # A stem SORTS does not name stands for every kind, a constant for none.
    ("?a BELIEVE ?thing AT ?bed", {(kind, "bed") for kinds in SORTS.values() for kind in kinds}),
    ("?a BELIEVE ?agent AT <kitchen>(2000)", set()),
])
def test_a_rule_admits_the_kinds_of_its_variables_stems(rule, pairs):
    expr = sbl.parse(rule)
    assert kind_pairs([expr]) == {(expr.order, expr.body.relation): pairs}


def food_small_with(**changes) -> str:
    return json.dumps({**food_small_data(), **changes})


def food_small_replacing(key: str, index: int, entry) -> str:
    data = food_small_data()
    data[key][index] = entry
    return json.dumps(data)


# Malformed scenario files: (file text, or None for a directory; the
# problem the error names).
MALFORMED = {
    "invalid JSON": ("{not json", "cannot read scenario"),
    "a directory": (None, "cannot read scenario"),
    "top-level list": ("[]", "top level must be a JSON object"),
    "bed is a list": (food_small_with(bed=[9000]), "bed entry needs"),
    "agent is a string": (
        food_small_with(agents=["Alice", {"name": "Bob", "room": 3000}]),
        "agent entry must be an object",
    ),
    "rooms is an object": (food_small_with(rooms={"kitchen": 2000}), "rooms must be a list"),
    "edge is an object": (food_small_with(edges=[{}]), "edge must be"),
    "bed room is a list": (
        food_small_with(bed={"name": "bed", "id": 9000, "room": [4000]}), "bed room"
    ),
    "frame_budget": (food_small_with(frame_budget="long"), "frame_budget must be an integer"),
    "reveal_fraction": (food_small_with(reveal_fraction=None), "reveal_fraction must be a finite"),
    "container_capacity": (
        food_small_with(container_capacity=[3]), "container_capacity must be an integer"
    ),
    # A number of the wrong JSON type is a mistake, never rounded or parsed.
    "fractional frame_budget": (
        food_small_with(frame_budget=2999.9), "frame_budget must be an integer"
    ),
    "bool frame_budget": (food_small_with(frame_budget=True), "frame_budget must be an integer"),
    "string reveal_fraction": (
        food_small_with(reveal_fraction="0.5"), "reveal_fraction must be a finite"
    ),
    "bool reveal_fraction": (
        food_small_with(reveal_fraction=True), "reveal_fraction must be a finite"
    ),
    "fractional container_capacity": (
        food_small_with(container_capacity=3.5), "container_capacity must be an integer"
    ),
    "fractional object id": (
        food_small_replacing(
            "objects", 0, {"name": "apple", "id": 101.7, "kind": "target", "room": 2000}
        ),
        "object entry needs",
    ),
    "fractional edge cost": (
        food_small_replacing("edges", 3, [3000, 4000, 100.9]), "edge must be"
    ),
    "fractional agent room": (
        food_small_replacing("agents", 0, {"name": "Alice", "room": 2000.0}),
        "agent start room 2000.0",
    ),
    # A name the belief language cannot write as <name>(id) or as an agent.
    "object name with a space": (
        food_small_replacing(
            "objects", 0, {"name": "red apple", "id": 101, "kind": "target", "room": 2000}
        ),
        "object entry is not a <name>",
    ),
    "integer room name": (
        food_small_replacing("rooms", 1, {"name": 2000, "id": 2000}), "room entry is not a <name>"
    ),
    # ";" separates a message's facts and a plan's steps.
    "object name with a semicolon": (
        food_small_replacing(
            "objects", 0, {"name": "app;le", "id": 101, "kind": "target", "room": 2000}
        ),
        "object entry is not a <name>",
    ),
    "room name with a semicolon": (
        food_small_replacing("rooms", 1, {"name": "kit;chen", "id": 2000}),
        "room entry is not a <name>",
    ),
    "bool agent name": (
        food_small_replacing("agents", 0, {"name": True, "room": 2000}),
        "agent name must be a capitalized identifier string",
    ),
    # No belief line about an agent named like the operator can be read back.
    "agent named BELIEVE": (
        food_small_replacing("agents", 0, {"name": "BELIEVE", "room": 2000}),
        "agent name must be a capitalized identifier string other than BELIEVE",
    ),
    # A bed that shares a room's id would be read as that room.
    "bed id of a room": (
        food_small_with(bed={"name": "bed", "id": 1000, "room": 4000}), "duplicate entity id 1000"
    ),
    "duplicate room id": (
        food_small_with(rooms=[*food_small_data()["rooms"], {"name": "attic", "id": 2000}]),
        "duplicate room ids",
    ),
    "zero edge cost": (
        food_small_replacing("edges", 3, [3000, 4000, 0]), r"edge cost must be positive: \[3000"
    ),
    "object of another kind": (
        food_small_replacing(
            "objects", 10, {"name": "bowl", "id": 201, "kind": "tool", "room": 2000}
        ),
        r"object kind must be target\|container: .*'tool'",
    ),
    "duplicate agent name": (
        food_small_replacing("agents", 1, {"name": "Alice", "room": 3000}), "duplicate agent names"
    ),
    "zero frame_budget": (food_small_with(frame_budget=0), "frame_budget must be positive"),
    "reveal_fraction above 1": (
        food_small_with(reveal_fraction=1.5), r"reveal_fraction must lie in \[0, 1\]"
    ),
    "negative reveal_fraction": (
        food_small_with(reveal_fraction=-0.1), r"reveal_fraction must lie in \[0, 1\]"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_file_raises_scenario_error(case, tmp_path):
    text, problem = MALFORMED[case]
    path = tmp_path / "scenario.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    with pytest.raises(ScenarioError, match=problem):
        load_scenario(path)
