"""Atomic actions, plans, and their verb grammar.

The action vocabulary mirrors the planning surface the agents reason over:
move to a room, explore the current room, grasp an object in the current
room, put a held object into a held container, carry everything to the
goal, or send a broadcast message.  Plans are 1-3 physical steps; sending
messages is a decision of its own and never appears inside a plan.

Each step class names its verb once, and a step serializes as that verb
followed by its entities in field order (``go to <kitchen>(2000)``,
``go grasp <apple>(123)``, ``put <apple>(123) <bowl>(9)``, ``explore
current room <office>(3000)``, ``transport``).  That one table, ordered
by :data:`STEP_TYPES`, gives the text in logs and in the structured
message format, the reader :func:`parse_step`, and :data:`ACTION_LIST`,
the action list of the ``plan_next`` prompt, whose slots are named after
the fields (``<object>(id)``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from .sbl import ObjectRef, ParseError, _OBJECT_RE

MAX_MESSAGE_CHARS = 500
MAX_PLAN_STEPS = 3

# Answers that mean "nothing": no plan, no belief lines.
NO_ANSWER = ("", "none", "none.")


class _Step:
    """A plan step: its verb, then the entities of its fields in order."""

    verb: ClassVar[str]

    def __str__(self) -> str:
        return " ".join([self.verb, *map(str, vars(self).values())])


@dataclass(frozen=True)
class GoTo(_Step):
    verb = "go to"
    room: ObjectRef


@dataclass(frozen=True)
class ExploreCurrent(_Step):
    verb = "explore current room"
    room: ObjectRef


@dataclass(frozen=True)
class GoGrasp(_Step):
    verb = "go grasp"
    object: ObjectRef


@dataclass(frozen=True)
class Put(_Step):
    verb = "put"
    object: ObjectRef
    container: ObjectRef


@dataclass(frozen=True)
class Transport(_Step):
    verb = "transport"


@dataclass(frozen=True)
class SendMessage:
    text: str

    def __post_init__(self):
        if len(self.text) > MAX_MESSAGE_CHARS:
            raise ValueError(
                f"message exceeds {MAX_MESSAGE_CHARS} characters ({len(self.text)})"
            )


AtomicAction = GoTo | ExploreCurrent | GoGrasp | Put | Transport | SendMessage
PlanStep = GoTo | ExploreCurrent | GoGrasp | Put | Transport

STEP_TYPES = (GoTo, ExploreCurrent, GoGrasp, Put, Transport)

# The plan_next prompt's action list: every verb with its slots.
ACTION_LIST = "; ".join(
    " ".join([cls.verb, *(f"<{f.name}>(id)" for f in fields(cls))]) for cls in STEP_TYPES
)


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]

    def __post_init__(self):
        if not 1 <= len(self.steps) <= MAX_PLAN_STEPS:
            raise ValueError(f"plan must have 1..{MAX_PLAN_STEPS} steps")
        if any(isinstance(s, SendMessage) for s in self.steps):
            raise ValueError("plans may not contain message steps")

    def __str__(self) -> str:
        return "; ".join(str(s) for s in self.steps)


def _parse_ref(token: str) -> ObjectRef:
    m = _OBJECT_RE.fullmatch(token)
    if not m:
        raise ParseError(f"expected <name>(id), got {token!r}", 0)
    return ObjectRef(m.group(1), int(m.group(2)))


def parse_step(text: str) -> PlanStep:
    """Parse one verb-grammar step: a verb of :data:`STEP_TYPES` followed
    by exactly as many ``<name>(id)`` entities as its class has fields;
    raises ParseError on anything else."""
    tokens = text.split()
    for cls in STEP_TYPES:
        verb = cls.verb.split()
        if tokens[: len(verb)] == verb and len(tokens) == len(verb) + len(fields(cls)):
            return cls(*map(_parse_ref, tokens[len(verb):]))
    raise ParseError(f"unrecognized plan step {text.strip()!r}", 0)


def plan_text(plan: Plan | None) -> str:
    """The text :func:`parse_plan` reads back: the plan, or "None"."""
    return str(plan) if plan is not None else "None"


def parse_plan(text: str) -> Plan | None:
    """Parse a ``;``-separated step list; a :data:`NO_ANSWER` means no plan."""
    text = text.strip()
    if text.lower() in NO_ANSWER:
        return None
    steps = tuple(parse_step(part) for part in text.split(";") if part.strip())
    return Plan(steps)
