"""Symbolic belief language: parsing, canonical form, and body-level matching.

Belief statements are whitespace-separated token streams of the form

    Alice BELIEVE <apple>(123) IN <kitchen>(2000)
    ?agentA BELIEVE ?agentB BELIEVE ?room EXPLORED ?exploration_state

A statement names one or two believers (agents or ``?variables``), then an
atomic body ``subject RELATION object``.  One believer makes an order-0
statement, two make an order-1 statement; deeper BELIEVE nesting is a parse
error by design.  Any statement containing a variable is a rule; fully
ground statements are plain belief expressions.

Entities come in three sorts: bare capitalized identifiers are agent names,
``<name>(id)`` tokens refer to concrete objects and rooms, and bare
lowercase identifiers are state atoms (``none``/``part``/``all``/...),
legal only on the right-hand side of a relation.  Relation symbols are
uppercase; their kind (predicate vs. attribute) is inferred from the sort
of the right-hand token rather than a closed symbol table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

BELIEVE = "BELIEVE"

EXPLORED_STATES = ("none", "part", "all")

_RELATION_RE = re.compile(r"^[A-Z][A-Z_]*$")
_AGENT_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")
_STATE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_VARIABLE_RE = re.compile(r"^\?[A-Za-z_][A-Za-z0-9_]*$")
_OBJECT_RE = re.compile(r"^<([^<>()\s]+)>\((\d+)\)$")


class ParseError(ValueError):
    """Raised on malformed statement text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, order=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True, order=True)
class AgentName:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class ObjectRef:
    name: str
    id: int

    def __str__(self) -> str:
        return f"<{self.name}>({self.id})"


@dataclass(frozen=True, order=True)
class StateAtom:
    value: str

    def __str__(self) -> str:
        return self.value


# An entity position holds an agent, a concrete object, or a variable; an
# object position may additionally hold a state atom.
EntityRef = AgentName | ObjectRef | Variable
Term = EntityRef | StateAtom


@dataclass(frozen=True)
class AtomicBelief:
    """One ``subject RELATION object`` triple."""

    subject: EntityRef
    relation: str
    object: Term

    def __str__(self) -> str:
        return f"{self.subject} {self.relation} {self.object}"

    def variables(self) -> set[str]:
        out = set()
        for term in (self.subject, self.object):
            if isinstance(term, Variable):
                out.add(term.name)
        return out

    @property
    def is_ground(self) -> bool:
        return not self.variables()


@dataclass(frozen=True)
class BeliefExpr:
    """A believer chain wrapped around an atomic body.

    Doubles as the rule type: an expression with at least one variable
    anywhere is a rule, a fully ground one is a plain belief.
    """

    believers: tuple[EntityRef, ...]
    body: AtomicBelief

    def __post_init__(self):
        if len(self.believers) not in (1, 2):
            raise ValueError("believer chain must have length 1 or 2")
        for b in self.believers:
            if isinstance(b, StateAtom):
                raise ValueError("state atoms cannot be believers")

    @property
    def order(self) -> int:
        return len(self.believers) - 1

    def variables(self) -> set[str]:
        out = {b.name for b in self.believers if isinstance(b, Variable)}
        return out | self.body.variables()

    @property
    def is_rule(self) -> bool:
        return bool(self.variables())

    @property
    def is_ground(self) -> bool:
        return not self.is_rule

    def __str__(self) -> str:
        return serialize(self)


# A binding maps variable names to ground terms.
Binding = dict[str, Term]


def _classify_token(token: str, position: int) -> Term:
    m = _OBJECT_RE.match(token)
    if m:
        return ObjectRef(m.group(1), int(m.group(2)))
    if _VARIABLE_RE.match(token):
        return Variable(token[1:])
    if token.startswith(("<", "?")) or any(c in token for c in "<>()"):
        raise ParseError(f"malformed entity token {token!r}", position)
    if _AGENT_RE.match(token):
        return AgentName(token)
    if _STATE_RE.match(token):
        return StateAtom(token)
    raise ParseError(f"unrecognized token {token!r}", position)


def _entity(token: str, position: int, role: str) -> EntityRef:
    term = _classify_token(token, position)
    if isinstance(term, StateAtom):
        raise ParseError(f"{role} may not be a state atom: {token!r}", position)
    return term


def _believer(token: str, position: int) -> EntityRef:
    term = _entity(token, position, "believer")
    if isinstance(term, ObjectRef):
        raise ParseError(f"believer must be an agent or variable: {token!r}", position)
    return term


def parse_atomic(text: str) -> AtomicBelief:
    """Parse a bare ``subject RELATION object`` triple (no believers)."""
    tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
    if len(tokens) != 3:
        pos = tokens[3][1] if len(tokens) > 3 else len(text)
        raise ParseError("expected exactly 'subject RELATION object'", pos)
    return _parse_body(tokens)


def _parse_body(tokens: list[tuple[str, int]]) -> AtomicBelief:
    (subj_tok, subj_pos), (rel_tok, rel_pos), (obj_tok, obj_pos) = tokens
    subject = _entity(subj_tok, subj_pos, "subject")
    if rel_tok == BELIEVE:
        raise ParseError("BELIEVE is reserved and not a relation symbol", rel_pos)
    if not _RELATION_RE.match(rel_tok):
        raise ParseError(f"relation symbol must be uppercase: {rel_tok!r}", rel_pos)
    obj = _classify_token(obj_tok, obj_pos)
    if rel_tok == "EXPLORED" and isinstance(obj, StateAtom) and obj.value not in EXPLORED_STATES:
        raise ParseError(
            f"EXPLORED state must be one of {'/'.join(EXPLORED_STATES)}: {obj_tok!r}", obj_pos
        )
    return AtomicBelief(subject, rel_tok, obj)


def parse(text: str) -> BeliefExpr:
    """Parse a belief statement; the result is a rule iff it has variables.

    The grammar is ``X BELIEVE [Y BELIEVE] subject REL object``.  The whole
    token stream must be consumed; more than two BELIEVE operators, state
    atoms in believer position, and malformed object references are errors,
    each reported with its character offset.
    """
    tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise ParseError("empty input", 0)

    believe_idx = [i for i, (tok, _) in enumerate(tokens) if tok == BELIEVE]
    if not believe_idx:
        raise ParseError("expected a BELIEVE operator", tokens[0][1])
    if len(believe_idx) > 2:
        raise ParseError(
            "belief nesting deeper than first order is not allowed",
            tokens[believe_idx[2]][1],
        )

    if believe_idx == [1]:
        believers = (_believer(tokens[0][0], tokens[0][1]),)
        rest = tokens[2:]
    elif believe_idx == [1, 3]:
        believers = (
            _believer(tokens[0][0], tokens[0][1]),
            _believer(tokens[2][0], tokens[2][1]),
        )
        rest = tokens[4:]
    else:
        bad = tokens[believe_idx[0]]
        raise ParseError("misplaced BELIEVE operator", bad[1])

    if len(rest) < 3:
        raise ParseError("incomplete belief body", tokens[-1][1])
    if len(rest) > 3:
        raise ParseError(f"trailing tokens after belief body: {rest[3][0]!r}", rest[3][1])
    return BeliefExpr(believers, _parse_body(rest))


def serialize(expr: BeliefExpr) -> str:
    """Canonical text: single spaces, ``<name>(id)`` object references."""
    parts = []
    for b in expr.believers:
        parts.extend((str(b), BELIEVE))
    parts.append(str(expr.body.subject))
    parts.append(expr.body.relation)
    parts.append(str(expr.body.object))
    return " ".join(parts)


def unify_atomic(pattern: AtomicBelief, fact: AtomicBelief) -> Binding | None:
    """Match the bare triple ``fact`` against ``pattern``; the unique binding.

    The relation symbol must match exactly; a variable repeated in the
    pattern must take the same value at every occurrence.  Returns None
    when no substitution makes the pattern equal the fact.
    """
    if pattern.relation != fact.relation:
        return None
    binding: Binding = {}
    for pat, val in ((pattern.subject, fact.subject), (pattern.object, fact.object)):
        if isinstance(pat, Variable):
            if pat.name in binding and binding[pat.name] != val:
                return None
            binding[pat.name] = val
        elif pat != val:
            return None
    return binding


def sort_key(item: BeliefExpr | AtomicBelief) -> str:
    """Deterministic ordering key: the canonical serialization."""
    return str(item)
