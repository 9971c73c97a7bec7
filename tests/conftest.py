import pytest

from beliefworld.belief_store import BeliefWorld
from beliefworld.rule_consensus import canonical_rules
from beliefworld.scenario import EntityRegistry, load_scenario


@pytest.fixture(scope="session")
def food_scenario():
    return load_scenario("food_small")


@pytest.fixture(scope="session")
def food_registry(food_scenario):
    return EntityRegistry(food_scenario)


@pytest.fixture
def alice_world(food_registry):
    return BeliefWorld(
        owner="Alice",
        rules=canonical_rules(),
        collaborators=("Bob",),
        registry=food_registry,
    )
