"""Symbolic belief language: parsing and canonical form.

Belief statements are whitespace-separated token streams of the form

    Alice BELIEVE <apple>(123) IN <kitchen>(2000)
    ?agentA BELIEVE ?agentB BELIEVE ?room EXPLORED ?exploration_state

A statement names one or two believers (agents or ``?variables``), then an
atomic body ``subject RELATION object``.  One believer makes an order-0
statement, two make an order-1 statement; deeper BELIEVE nesting is a parse
error by design.  Any statement containing a variable is a rule; fully
ground statements are plain belief expressions.  Nothing here tells them
apart: a belief store admits a fact only when its rules know the kind of
each term (``BeliefWorld.admits``), and a variable has no kind.

Entities come in three sorts: bare capitalized identifiers are agent names,
``<name>(id)`` tokens refer to concrete objects and rooms, and bare
lowercase identifiers are state atoms (``none``/``part``/``all``/...),
legal only on the right-hand side of a relation.  Relation symbols are
uppercase; their kind (predicate vs. attribute) is inferred from the sort
of the right-hand token rather than a closed symbol table.

:func:`belief_lines` is the one reader of statement lines in a reply's
text, rule proposals and belief updates alike: it cleans each line
(bullets, the prompts' spaced ``<name> (id)`` form) and keeps those that
hold a BELIEVE operator, for :func:`parse` to read.  Each rule of the
written form has one home too: :func:`believer_chain` writes the
``A BELIEVE [B BELIEVE] `` prefix, for ``str`` of a statement and for
belief text built from stored facts alike, and :func:`object_ref` is the
one reader of a ``<name>(id)`` token, for statements and plan steps.

Terms and atomic bodies are :class:`Interned` values: each distinct value
has one shared instance, so its hash and its text are computed once, when
it is first built, and a dict lookup of the same value meets the same
object.  Equality, hashing and ordering stay by value, and nothing depends
on which instance a caller holds.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from functools import total_ordering
from typing import ClassVar

BELIEVE = "BELIEVE"

EXPLORED_STATES = ("none", "part", "all")

_RELATION_RE = re.compile(r"^[A-Z][A-Z_]*$")
_AGENT_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")
_STATE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_VARIABLE_RE = re.compile(r"^\?[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\S+")
_OBJECT_RE = re.compile(r"^<([^<>()\s]+)>\((\d+)\)$")
# Prompts show entities as "<table> (712)"; statements write "<table>(712)".
_SPACED_REF_RE = re.compile(r"(<[^<>()\s]+>)\s+(?=\(\d+\))")


class ParseError(ValueError):
    """Raised on malformed statement text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The most instances one class's table keeps.  A full table is emptied and
# refills with the values in use; values stay equal across the clear.
_TABLE_LIMIT = 1 << 14


@total_ordering
class Interned:
    """A frozen value with one shared instance per distinct field tuple.

    A subclass names its fields, in constructor order, in
    ``__match_args__`` and ``__slots__``.  Building a value looks its field
    tuple up in the class's table (hash-consing), so each distinct value
    has one shared instance, and its field tuple, hash and text are
    computed once, when it is first built.  Equality, hashing and ordering
    stay by value, as for a frozen ``order=True`` dataclass, and ``repr`` is
    the dataclass form: the table only saves work, and an instance built
    before a full table was emptied equals and hashes like one built after.
    """

    __slots__ = ("_fields", "_hash", "_text")
    __match_args__: ClassVar[tuple[str, ...]] = ()
    _table: ClassVar[dict[tuple, Interned]]

    def __init_subclass__(cls):
        cls._table = {}

    def __new__(cls, *values):
        self = cls._table.get(values)
        return self if self is not None else cls._build(values)

    @classmethod
    def _build(cls, values: tuple) -> Interned:
        names = cls.__match_args__
        if len(values) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} values, got {len(values)}")
        self = object.__new__(cls)
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_fields", values)
        object.__setattr__(self, "_hash", hash(values))
        self._settle()
        object.__setattr__(self, "_text", self._render())
        if len(cls._table) >= _TABLE_LIMIT:
            cls._table.clear()
        cls._table[values] = self
        return self

    def _settle(self) -> None:
        """Check a new value and derive what it stores besides its text."""

    def _render(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._fields))
        return f"{type(self).__qualname__}({pairs})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._fields == other._fields

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields < other._fields

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields


class Variable(Interned):
    __slots__ = __match_args__ = ("name",)
    name: str

    def _render(self) -> str:
        return f"?{self.name}"


class AgentName(Interned):
    __slots__ = __match_args__ = ("name",)
    name: str

    def _render(self) -> str:
        return self.name


class ObjectRef(Interned):
    __slots__ = __match_args__ = ("name", "id")
    name: str
    id: int

    def _render(self) -> str:
        return f"<{self.name}>({self.id})"


class StateAtom(Interned):
    __slots__ = __match_args__ = ("value",)
    value: str

    def _render(self) -> str:
        return self.value


# An entity position holds an agent, a concrete object, or a variable; an
# object position may additionally hold a state atom.
EntityRef = AgentName | ObjectRef | Variable
Term = EntityRef | StateAtom


class AtomicBelief(Interned):
    """One ``subject RELATION object`` triple."""

    __match_args__ = ("subject", "relation", "object")
    __slots__ = __match_args__
    subject: EntityRef
    relation: str
    object: Term

    def _render(self) -> str:
        return f"{self.subject} {self.relation} {self.object}"


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

    def __str__(self) -> str:
        return believer_chain(self.believers) + str(self.body)


def believer_chain(believers: tuple[EntityRef | str, ...]) -> str:
    """The text before a statement's body: ``A BELIEVE [B BELIEVE] ``."""
    return "".join(f"{b} {BELIEVE} " for b in believers)


def object_ref(token: str, position: int = 0) -> ObjectRef:
    """Read one ``<name>(id)`` token; ``position`` is reported on error."""
    m = _OBJECT_RE.fullmatch(token)
    if not m:
        raise ParseError(f"expected <name>(id), got {token!r}", position)
    return ObjectRef(m.group(1), int(m.group(2)))


def _classify_token(token: str, position: int) -> Term:
    if _OBJECT_RE.match(token):
        return object_ref(token, position)
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


def _tokens(text: str) -> list[tuple[str, int]]:
    """Each whitespace-separated token of ``text`` with its character offset."""
    return [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]


def parse_atomic(text: str) -> AtomicBelief:
    """Parse a bare ``subject RELATION object`` triple (no believers)."""
    tokens = _tokens(text)
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
    tokens = _tokens(text)
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

    if believe_idx != [1, 3][: len(believe_idx)]:
        raise ParseError("misplaced BELIEVE operator", tokens[believe_idx[0]][1])
    believers = tuple(_believer(*tokens[i - 1]) for i in believe_idx)
    rest = tokens[2 * len(believe_idx):]
    if len(rest) < 3:
        raise ParseError("incomplete belief body", tokens[-1][1])
    if len(rest) > 3:
        raise ParseError(f"trailing tokens after belief body: {rest[3][0]!r}", rest[3][1])
    return BeliefExpr(believers, _parse_body(rest))


def belief_lines(text: str) -> list[str]:
    """The statement lines of a reply: each line stripped of whitespace
    and of a ``-``/``*`` bullet, its ``<name> (id)`` references closed up,
    and only lines holding a BELIEVE operator kept.  This is the one
    cleaner of reply lines; :func:`parse` then reads each line."""
    lines = (line.strip().lstrip("-*").strip() for line in text.splitlines())
    return [_SPACED_REF_RE.sub(r"\1", line) for line in lines if BELIEVE in line.split()]
