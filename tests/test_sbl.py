"""Belief language: parsing and canonical form."""

import copy
import pickle
import random
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefworld import sbl
from beliefworld.actions import ExploreCurrent, GoGrasp, GoTo, Plan, Put, Transport
from beliefworld.rule_consensus import CANONICAL_FIRST_RULES, CANONICAL_ZERO_RULES
from beliefworld.sbl import (
    AgentName,
    AtomicBelief,
    BeliefExpr,
    ObjectRef,
    ParseError,
    StateAtom,
    Variable,
)
from universe import random_ground, random_rule


def test_parse_ground_zero_order():
    expr = sbl.parse("Alice BELIEVE <apple>(123) IN <kitchen>(2000)")
    assert expr.order == 0
    assert expr.believers == (AgentName("Alice"),)
    assert expr.body == AtomicBelief(
        ObjectRef("apple", 123), "IN", ObjectRef("kitchen", 2000)
    )


def test_parse_first_order_rule():
    expr = sbl.parse("?agentA BELIEVE ?agentB BELIEVE ?room EXPLORED ?exploration_state")
    assert expr.order == 1
    assert expr.believers == (Variable("agentA"), Variable("agentB"))


def test_classification_rule_iff_variable():
    assert sbl.parse("?agent BELIEVE <pen>(7) IN <office>(3000)").believers == (Variable("agent"),)
    assert sbl.parse("Bob BELIEVE <pen>(7) IN <office>(3000)").believers == (AgentName("Bob"),)


def test_parse_empty_input_position_zero():
    with pytest.raises(ParseError) as err:
        sbl.parse("")
    assert err.value.position == 0


def test_parse_rejects_deep_nesting():
    with pytest.raises(ParseError, match="first order"):
        sbl.parse("Alice BELIEVE Bob BELIEVE Carol BELIEVE <apple>(1) IN <kitchen>(2)")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(ParseError, match="trailing"):
        sbl.parse("Alice BELIEVE <apple>(1) IN <kitchen>(2) extra")


def test_parse_rejects_lowercase_relation():
    with pytest.raises(ParseError, match="uppercase"):
        sbl.parse("Alice BELIEVE <apple>(1) in <kitchen>(2)")


def test_parse_rejects_malformed_object_ref():
    for bad in ("<apple>", "<apple>(x)", "<ap ple>(1)", "<apple>(1", "apple(1)"):
        with pytest.raises(ParseError):
            sbl.parse(f"Alice BELIEVE {bad} IN <kitchen>(2)")


def test_parse_rejects_reserved_believe_relation():
    with pytest.raises(ParseError, match="reserved"):
        sbl.parse_atomic("Alice BELIEVE Bob")
    with pytest.raises(ParseError, match="incomplete"):
        sbl.parse("Alice BELIEVE Bob BELIEVE Carol")


def test_parse_rejects_state_atom_believer():
    with pytest.raises(ParseError, match="believer"):
        sbl.parse("none BELIEVE <apple>(1) IN <kitchen>(2)")


def test_parse_rejects_explored_bad_state():
    with pytest.raises(ParseError, match="EXPLORED"):
        sbl.parse("Alice BELIEVE <kitchen>(2) EXPLORED open")


@pytest.mark.parametrize("text", [
    "BELIEVE Alice <a>(1) IN <k>(2)",
    "Alice Bob BELIEVE <a>(1) IN <k>(2)",
    "Alice BELIEVE BELIEVE <a>(1) IN <k>(2)",
    "Alice BELIEVE Bob <a>(1) BELIEVE <k>(2)",
])
def test_misplaced_believe_reported_at_the_first_believe(text):
    with pytest.raises(ParseError, match="misplaced BELIEVE operator") as err:
        sbl.parse(text)
    assert err.value.position == text.index("BELIEVE")


@pytest.mark.parametrize("text, problem, token", [
    ("<a>(1) IN <k>(2)", "expected a BELIEVE operator", "<a>(1)"),
    ("<a>(1) BELIEVE <b>(2) IN <k>(3)", "believer must be an agent or variable", "<a>(1)"),
    ("Alice BELIEVE <a>(1) IN 42", "unrecognized token '42'", "42"),
])
def test_parse_rejects_a_statement_at_its_offending_token(text, problem, token):
    with pytest.raises(ParseError, match=problem) as err:
        sbl.parse(text)
    assert err.value.position == text.index(token)


def test_error_positions_point_at_offending_token():
    text = "Alice BELIEVE Bob BELIEVE Carol BELIEVE <a>(1) IN <k>(2)"
    with pytest.raises(ParseError) as err:
        sbl.parse(text)
    assert text[err.value.position:].startswith("BELIEVE")


def test_serialize_normalizes_whitespace():
    expr = sbl.parse("Alice   BELIEVE  <apple>(123) IN <kitchen>(2000)")
    assert str(expr) == "Alice BELIEVE <apple>(123) IN <kitchen>(2000)"


def test_serialize_first_order():
    expr = BeliefExpr(
        (AgentName("Alice"), AgentName("Bob")),
        AtomicBelief(ObjectRef("apple", 123), "IN", ObjectRef("kitchen", 2000)),
    )
    assert str(expr) == "Alice BELIEVE Bob BELIEVE <apple>(123) IN <kitchen>(2000)"


def test_canonical_rules_round_trip_byte_identical():
    for line in CANONICAL_ZERO_RULES + CANONICAL_FIRST_RULES:
        assert str(sbl.parse(line)) == line


def test_round_trip_random_expressions():
    rng = random.Random(90125)
    for _ in range(500):
        is_rule = rng.random() < 0.5
        expr = random_rule(rng) if is_rule else random_ground(rng)
        assert sbl.parse(str(expr)) == expr


def test_parse_atomic_triple():
    fact = sbl.parse_atomic("<kitchen>(2000) EXPLORED all")
    assert fact == AtomicBelief(ObjectRef("kitchen", 2000), "EXPLORED", StateAtom("all"))
    with pytest.raises(ParseError):
        sbl.parse_atomic("<kitchen>(2000) EXPLORED")


# -- value semantics of the interned terms, facts, steps and plans ---------

NAMES = st.text("abXY_1", min_size=1, max_size=3)
REFS = st.builds(ObjectRef, NAMES, st.integers(0, 20))
TERMS = st.one_of(
    st.builds(Variable, NAMES), st.builds(AgentName, NAMES), REFS, st.builds(StateAtom, NAMES)
)
FACTS = st.builds(AtomicBelief, TERMS, st.sampled_from(("IN", "AT", "HOLD")), TERMS)
STEPS = st.one_of(
    st.builds(GoTo, REFS),
    st.builds(ExploreCurrent, REFS),
    st.builds(GoGrasp, REFS),
    st.builds(Put, REFS, REFS),
    st.just(Transport()),
)
PLANS = st.lists(STEPS, min_size=1, max_size=3).map(lambda steps: Plan(tuple(steps)))
VALUES = st.one_of(TERMS, FACTS, STEPS, PLANS)

TERM_TYPES = (Variable, AgentName, ObjectRef, StateAtom)
VALUE_TYPES = (*TERM_TYPES, AtomicBelief, GoTo, ExploreCurrent, GoGrasp, Put, Transport, Plan)
# Each value type as the frozen dataclass it was: the reference for repr and hash.
DATACLASS = {
    cls: make_dataclass(cls.__name__, cls.__match_args__, frozen=True) for cls in VALUE_TYPES
}
# The written form of each value type, from the grammar in the module docstrings.
TEXT = {
    Variable: lambda v: f"?{v.name}",
    AgentName: lambda v: v.name,
    ObjectRef: lambda v: f"<{v.name}>({v.id})",
    StateAtom: lambda v: v.value,
    AtomicBelief: lambda v: f"{text(v.subject)} {v.relation} {text(v.object)}",
    GoTo: lambda v: f"go to {text(v.room)}",
    ExploreCurrent: lambda v: f"explore current room {text(v.room)}",
    GoGrasp: lambda v: f"go grasp {text(v.object)}",
    Put: lambda v: f"put {text(v.object)} {text(v.container)}",
    Transport: lambda v: "transport",
    Plan: lambda v: "; ".join(map(text, v.steps)),
}


def text(value) -> str:
    return TEXT[type(value)](value)


def field_values(value) -> tuple:
    return tuple(getattr(value, name) for name in value.__match_args__)


def rebuild(value, kinds=None):
    """``value`` built again bottom-up from its plain fields, each value
    as its class, or as the class ``kinds`` maps that class to."""
    if isinstance(value, tuple):
        return tuple(rebuild(v, kinds) for v in value)
    if isinstance(value, VALUE_TYPES):
        cls = kinds[type(value)] if kinds else type(value)
        return cls(*(rebuild(v, kinds) for v in field_values(value)))
    return value


@settings(max_examples=300, deadline=None)
@given(value=VALUES)
def test_a_value_built_again_or_copied_is_the_one_shared_instance(value):
    copies = (rebuild(value), pickle.loads(pickle.dumps(value)), copy.deepcopy(value))
    for other in copies:
        assert other == value and not other != value
        assert hash(other) == hash(value)
        assert (repr(other), str(other)) == (repr(value), str(value))
    for other in copies:
        assert other is value


@settings(max_examples=300, deadline=None)
@given(a=VALUES, b=VALUES)
def test_values_keep_the_dataclass_repr_hash_text_and_order(a, b):
    reference = rebuild(a, DATACLASS)
    assert repr(a) == repr(reference)
    assert hash(a) == hash(reference)
    assert str(a) == text(a)
    assert (a == b) == (reference == rebuild(b, DATACLASS))
    if type(a) is not type(b):
        with pytest.raises(TypeError):
            a < b  # noqa: B015
    elif isinstance(a, TERM_TYPES):
        ordered = sorted([a, b])
        assert ordered == sorted([a, b], key=field_values)
        assert (a <= b, a > b, a >= b) == (
            field_values(a) <= field_values(b),
            field_values(a) > field_values(b),
            field_values(a) >= field_values(b),
        )
    for name in a.__match_args__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)


def test_equal_text_of_another_kind_is_another_value():
    room = ObjectRef("kitchen", 2000)
    assert AgentName("all") != StateAtom("all")
    assert GoTo(room) != ExploreCurrent(room)
    assert len({AgentName("all"), StateAtom("all"), GoTo(room), ExploreCurrent(room)}) == 4
    assert repr(GoTo(room)) == "GoTo(room=ObjectRef(name='kitchen', id=2000))"


def test_a_full_table_is_emptied_and_values_stay_equal_across_the_clear(monkeypatch):
    limit = 8
    monkeypatch.setattr(sbl, "_TABLE_LIMIT", limit)
    old = ObjectRef("stray", 123456)
    keyed = {old: "found"}
    for i in range(3 * limit):
        ObjectRef("filler", 10**6 + i)
        assert len(ObjectRef._table) <= limit
    new = ObjectRef("stray", 123456)
    assert new is not old  # the table was emptied since ``old`` was built
    assert new == old and hash(new) == hash(old)
    assert keyed[new] == "found"
    assert AtomicBelief(old, "IN", old) == AtomicBelief(new, "IN", new)
