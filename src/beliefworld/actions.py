"""Atomic actions, plans, and their message-grammar rendering.

The action vocabulary mirrors the planning surface the agents reason over:
move to a room, explore the current room, grasp an item in the current
room, put a held object into a held container, carry everything to the
goal, or send a broadcast message.  Plans are 1-3 physical steps; sending
messages is a decision of its own and never appears inside a plan.

Plan steps serialize to a small verb grammar (``go to <kitchen>(2000)``,
``go grasp <apple>(123)``, ``put <apple>(123) <bowl>(9)``, ``explore
current room <office>(3000)``, ``transport``) used both in logs and in the
structured message format exchanged by scripted agents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sbl import ObjectRef, ParseError, _OBJECT_RE

MAX_MESSAGE_CHARS = 500
MAX_PLAN_STEPS = 3


@dataclass(frozen=True)
class GoTo:
    room: ObjectRef

    def __str__(self) -> str:
        return f"go to {self.room}"


@dataclass(frozen=True)
class ExploreCurrent:
    room: ObjectRef

    def __str__(self) -> str:
        return f"explore current room {self.room}"


@dataclass(frozen=True)
class GoGrasp:
    item: ObjectRef

    def __str__(self) -> str:
        return f"go grasp {self.item}"


@dataclass(frozen=True)
class Put:
    object: ObjectRef
    container: ObjectRef

    def __str__(self) -> str:
        return f"put {self.object} {self.container}"


@dataclass(frozen=True)
class Transport:
    def __str__(self) -> str:
        return "transport"


@dataclass(frozen=True)
class SendMessage:
    text: str

    def __post_init__(self):
        if len(self.text) > MAX_MESSAGE_CHARS:
            raise ValueError(
                f"message exceeds {MAX_MESSAGE_CHARS} characters ({len(self.text)})"
            )

    def __str__(self) -> str:
        return f"send message {self.text!r}"


AtomicAction = GoTo | ExploreCurrent | GoGrasp | Put | Transport | SendMessage
PlanStep = GoTo | ExploreCurrent | GoGrasp | Put | Transport

# Sentinel intent for an agent that keeps executing (or stays idle).
CONTINUE = "continue"


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
    m = _OBJECT_RE.fullmatch(token.strip())
    if not m:
        raise ParseError(f"expected <name>(id), got {token!r}", 0)
    return ObjectRef(m.group(1), int(m.group(2)))


def parse_step(text: str) -> PlanStep:
    """Parse one verb-grammar step; raises ParseError on anything else."""
    text = text.strip()
    if text == "transport":
        return Transport()
    if text.startswith("go to "):
        return GoTo(_parse_ref(text[len("go to "):]))
    if text.startswith("explore current room "):
        return ExploreCurrent(_parse_ref(text[len("explore current room "):]))
    if text.startswith("go grasp "):
        return GoGrasp(_parse_ref(text[len("go grasp "):]))
    if text.startswith("put "):
        parts = text[len("put "):].split()
        if len(parts) != 2:
            raise ParseError(f"put takes an object and a container: {text!r}", 0)
        return Put(_parse_ref(parts[0]), _parse_ref(parts[1]))
    raise ParseError(f"unrecognized plan step {text!r}", 0)


def parse_plan(text: str) -> Plan | None:
    """Parse a ``;``-separated step list; ``None``/empty means no plan."""
    text = text.strip()
    if not text or text.lower() in ("none", "none."):
        return None
    steps = tuple(parse_step(part) for part in text.split(";") if part.strip())
    return Plan(steps)
