"""Belief language: parsing, canonical form, body-level matching."""

import random

import pytest

from beliefworld import sbl
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
from universe import brute_force_unify, random_ground, random_rule


def test_parse_ground_zero_order():
    expr = sbl.parse("Alice BELIEVE <apple>(123) IN <kitchen>(2000)")
    assert expr.order == 0
    assert not expr.is_rule
    assert expr.believers == (AgentName("Alice"),)
    assert expr.body == AtomicBelief(
        ObjectRef("apple", 123), "IN", ObjectRef("kitchen", 2000)
    )


def test_parse_first_order_rule():
    expr = sbl.parse("?agentA BELIEVE ?agentB BELIEVE ?room EXPLORED ?exploration_state")
    assert expr.order == 1
    assert expr.is_rule
    assert expr.variables() == {"agentA", "agentB", "room", "exploration_state"}


def test_classification_rule_iff_variable():
    assert sbl.parse("?agent BELIEVE <pen>(7) IN <office>(3000)").is_rule
    assert not sbl.parse("Bob BELIEVE <pen>(7) IN <office>(3000)").is_rule


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


def test_error_positions_point_at_offending_token():
    text = "Alice BELIEVE Bob BELIEVE Carol BELIEVE <a>(1) IN <k>(2)"
    with pytest.raises(ParseError) as err:
        sbl.parse(text)
    assert text[err.value.position:].startswith("BELIEVE")


def test_serialize_normalizes_whitespace():
    expr = sbl.parse("Alice   BELIEVE  <apple>(123) IN <kitchen>(2000)")
    assert sbl.serialize(expr) == "Alice BELIEVE <apple>(123) IN <kitchen>(2000)"


def test_serialize_first_order():
    expr = BeliefExpr(
        (AgentName("Alice"), AgentName("Bob")),
        AtomicBelief(ObjectRef("apple", 123), "IN", ObjectRef("kitchen", 2000)),
    )
    assert sbl.serialize(expr) == "Alice BELIEVE Bob BELIEVE <apple>(123) IN <kitchen>(2000)"


def test_canonical_rules_round_trip_byte_identical():
    for line in CANONICAL_ZERO_RULES + CANONICAL_FIRST_RULES:
        assert sbl.serialize(sbl.parse(line)) == line


def test_round_trip_random_expressions():
    rng = random.Random(90125)
    for _ in range(500):
        expr = random_rule(rng) if rng.random() < 0.5 else random_ground(rng)
        text = sbl.serialize(expr)
        assert sbl.parse(text) == expr


def test_unify_matches_brute_force_oracle():
    rng = random.Random(417)
    believer = (AgentName("Alice"),)
    matched = 0
    for case in range(500):
        ground = random_ground(rng)
        if case % 2 == 0:
            rule = random_rule(rng, ground)
        else:
            rule = random_rule(rng)
        expected = brute_force_unify(
            BeliefExpr(believer, rule.body), BeliefExpr(believer, ground.body)
        )
        actual = sbl.unify_atomic(rule.body, ground.body)
        assert actual == expected, f"case {case}: {rule.body} vs {ground.body}"
        matched += expected is not None
    assert 100 < matched < 450  # both outcomes well represented


def test_parse_atomic_triple():
    fact = sbl.parse_atomic("<kitchen>(2000) EXPLORED all")
    assert fact == AtomicBelief(ObjectRef("kitchen", 2000), "EXPLORED", StateAtom("all"))
    with pytest.raises(ParseError):
        sbl.parse_atomic("<kitchen>(2000) EXPLORED")


def test_unify_atomic_body_level():
    pattern = AtomicBelief(Variable("object"), "IN", ObjectRef("kitchen", 2000))
    fact = sbl.parse_atomic("<apple>(123) IN <kitchen>(2000)")
    assert sbl.unify_atomic(pattern, fact) == {"object": ObjectRef("apple", 123)}
    other = sbl.parse_atomic("<apple>(123) IN <office>(3000)")
    assert sbl.unify_atomic(pattern, other) is None
