"""The per-agent collaboration loop: update, predict, detect, decide.

Each decision tick an idle agent (1) folds its visual observation and
inbox into its belief world, (2) keeps or recomputes its 1-3 step plan,
(3) predicts up to three candidate plans per collaborator from its
first-order beliefs alone, (4) checks the pair for miscoordination, and
(5) either broadcasts a message or executes the next plan step.

Miscoordination has two sources.  Plan conflicts are step pairs that
explore the same room or grasp the same object or container; a conflict is
imminent when both steps sit in their plan's opening move (the first step,
or the second when the first is the travel leg to it).  Belief
misalignment is everything the agent knows that its model of the
collaborator lacks; it weighs heavily when it touches a goal target or a
room becoming fully explored.  Heavy miscoordination triggers a message
(subject to a per-agent cooldown measured in decision ticks) and a replan
that steers away from the collaborator's projected activity; anything
lighter is tolerated and the agent just acts.

Every reasoning step is a call to a pluggable backend through its
prompt template, whichever backend is plugged in.  This module alone
decides: a remote model's answer is taken when one arrives and parses,
and otherwise the step falls back to the heuristics here (planning,
miscoordination detection, the message grammar), read straight off the
structured beliefs.  The scripted backend answers only the rule
dialogue, so scripted runs are exactly replayable.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import re
from dataclasses import dataclass, field

from . import belief_store, prompts, sbl
from .actions import (
    MAX_MESSAGE_CHARS,
    ExploreCurrent,
    GoGrasp,
    GoTo,
    Plan,
    PlanStep,
    Put,
    Transport,
    parse_plan,
)
from .belief_store import BeliefWorld, MisalignmentReport
from .scenario import CONTAINER_CAPACITY, MAX_HANDS, EntityRegistry, GoalSpec
from .sbl import AgentName, AtomicBelief, ObjectRef, ParseError, StateAtom, parse, parse_atomic
from .world_sim import ALL, NONE, VisualObservation

log = logging.getLogger(__name__)

SUBPLAN_DONE = "SUBPLAN_DONE"

MODE_ADAPTIVE = "adaptive"
MODE_ALWAYS = "always"
MODE_NEVER = "never"

# Candidate plans predicted per collaborator; the predict_first prompt's
# answer format names them plan1..plan3.
PREDICTED_PLANS = 3

SAME_ROOM_EXPLORE = "same-room-explore"
SAME_GRASP_TARGET = "same-grasp-target"
SAME_CONTAINER_GRAB = "same-container-grab"

# Replies that mean "nothing": no plan, no belief lines.
_NO_ANSWER = ("", "none", "none.")

ACTION_LIST_TEXT = (
    "go to <room>(id); explore current room <room>(id); go grasp <object>(id); "
    "put <object>(id) <container>(id); transport"
)


class StalePlan(RuntimeError):
    """A plan step's premise no longer holds in the agent's beliefs."""


class CorruptObservation(ValueError):
    """An observation referenced entities outside the scenario registry."""


# ---------------------------------------------------------------------------
# Planner view: the plan-relevant projection of one fact set.
# ---------------------------------------------------------------------------


@dataclass
class PlannerView:
    """What the planning heuristic reads out of one belief partition.

    ``slots`` is the partition itself (slot -> fact, see
    :func:`belief_store.slot`), shared rather than copied, so a question
    about one functional slot (an agent's room, a room's exploration
    level, where an object is) is a single lookup.
    """

    owner: str
    registry: EntityRegistry
    slots: belief_store.Partition = field(default_factory=dict)

    @classmethod
    def from_facts(
        cls, owner: str, registry: EntityRegistry, facts: "list[AtomicBelief] | set[AtomicBelief]"
    ) -> "PlannerView":
        slots = {belief_store.slot(f): f for f in facts}
        return cls(owner=owner, registry=registry, slots=slots)

    def holds(self, fact: AtomicBelief) -> bool:
        return self.slots.get(belief_store.slot(fact)) == fact

    def room_of(self, agent: str) -> int | None:
        f = self.slots.get(belief_store.position_slot(AgentName(agent)))
        if f is not None and isinstance(f.object, ObjectRef) and self.registry.is_room(f.object.id):
            return f.object.id
        return None

    def my_room(self) -> int:
        room = self.room_of(self.owner)
        if room is None:
            room = self.registry.start_room(self.owner).id
        return room

    def holdings(self, agent: str | None = None) -> list[ObjectRef]:
        who = AgentName(agent or self.owner)
        held = [
            f.object
            for f in self.slots.values()
            if f.relation == "HOLD" and f.subject == who and isinstance(f.object, ObjectRef)
        ]
        return sorted(held, key=lambda r: r.id)

    def held_container(self) -> ObjectRef | None:
        for ref in self.holdings():
            if self.registry.is_container(ref.id):
                return ref
        return None

    def container_load(self, container: ObjectRef) -> list[ObjectRef]:
        inner = [
            f.object
            for f in self.slots.values()
            if f.relation == "CONTAIN"
            and f.subject == container
            and isinstance(f.object, ObjectRef)
        ]
        return sorted(inner, key=lambda r: r.id)

    def explored_level(self, room_id: int) -> str:
        f = self.slots.get(belief_store.explored_slot(self.registry.rooms_by_id[room_id]))
        return f.object.value if f is not None and isinstance(f.object, StateAtom) else NONE

    def located_targets(self) -> list[tuple[ObjectRef, int]]:
        """Known, unheld, untransported targets and the room they sit in."""
        # By id, not by slot: a remote reply may name a known id under
        # another name, which puts its HOLD and IN facts in different slots.
        held_anywhere = {
            f.object.id
            for f in self.slots.values()
            if f.relation == "HOLD" and isinstance(f.object, ObjectRef)
        }
        out = []
        for f in self.slots.values():
            if f.relation != "IN" or not isinstance(f.subject, ObjectRef):
                continue
            if not isinstance(f.object, ObjectRef) or not self.registry.is_room(f.object.id):
                continue
            if self.registry.is_target(f.subject.id) and f.subject.id not in held_anywhere:
                out.append((f.subject, f.object.id))
        return sorted(out, key=lambda pair: pair[0].id)

    def believed_room_of_object(self, ref: ObjectRef) -> int | None:
        f = self.slots.get(belief_store.location_slot(ref))
        if f is not None and f.relation == "IN" and isinstance(f.object, ObjectRef):
            if self.registry.is_room(f.object.id):
                return f.object.id
        return None

    def believed_transported(self, ref: ObjectRef) -> bool:
        return self.holds(AtomicBelief(ref, "AT", self.registry.bed))

    def believed_holder(self, ref: ObjectRef) -> str | None:
        f = self.slots.get(belief_store.location_slot(ref))
        if f is not None and f.relation == "HOLD" and isinstance(f.subject, AgentName):
            return f.subject.name
        return None


def zero_view(world: BeliefWorld, registry: EntityRegistry) -> PlannerView:
    return PlannerView(world.owner, registry, world.zero)


def first_view(world: BeliefWorld, collab: str, registry: EntityRegistry) -> PlannerView:
    return PlannerView(collab, registry, world.first[collab])


# ---------------------------------------------------------------------------
# The planning heuristic.
# ---------------------------------------------------------------------------


def plan_options(view: PlannerView) -> list[Plan]:
    """Ranked plan candidates, best first.

    Priority order: fill a held container (put a held target in, or grasp
    a known same-room target into it); transport when payload is aboard
    and either capacity is exhausted or no graspable target is known;
    fetch the nearest known target; otherwise explore the nearest
    not-fully-explored room, unexplored rooms first.  Ties break on
    ascending room id, then ascending object id.
    """
    reg = view.registry
    here = view.my_room()
    held = view.holdings()
    container = view.held_container()
    load = view.container_load(container) if container else []
    space = CONTAINER_CAPACITY - len(load) if container else 0
    free_hand = MAX_HANDS - len(held)
    held_targets = [r for r in held if reg.is_target(r.id)]
    known = view.located_targets()

    ranked: list[tuple[tuple, Plan]] = []

    if container is not None and space > 0:
        for t in held_targets:
            ranked.append(((1, 0, 0, t.id), Plan((Put(t, container),))))
        if free_hand >= 1:
            for t, room_id in known:
                if room_id == here:
                    ranked.append(((1, 1, 0, t.id), Plan((GoGrasp(t), Put(t, container)))))

    payload = bool(held_targets) or bool(load)
    full = free_hand == 0 and space == 0
    if payload and (full or not known):
        ranked.append(((2, 0, 0, 0), Plan((Transport(),))))

    if free_hand >= 1:
        for t, room_id in known:
            dist = reg.distance(here, room_id)
            if room_id == here:
                steps: tuple[PlanStep, ...] = (GoGrasp(t),)
            else:
                steps = (GoTo(reg.rooms_by_id[room_id]), GoGrasp(t))
            ranked.append(((3, dist, room_id, t.id), Plan(steps)))

    for room_id in sorted(reg.rooms_by_id):
        level = view.explored_level(room_id)
        if level == ALL:
            continue
        room = reg.rooms_by_id[room_id]
        dist = reg.distance(here, room_id)
        if room_id == here:
            steps = (ExploreCurrent(room),)
        else:
            steps = (GoTo(room), ExploreCurrent(room))
        ranked.append(((4, 0 if level == NONE else 1, dist, room_id), Plan(steps)))

    ranked.sort(key=lambda pair: pair[0])
    return [plan for _, plan in ranked]


def best_plan(view: PlannerView) -> Plan | None:
    options = plan_options(view)
    return options[0] if options else None


def candidate_plans(view: PlannerView) -> list[Plan]:
    return plan_options(view)[:PREDICTED_PLANS]


def _plan_rooms_explored(plan: Plan) -> set[int]:
    return {s.room.id for s in plan.steps if isinstance(s, ExploreCurrent)}


def _plan_grasps(plan: Plan) -> set[int]:
    return {s.item.id for s in plan.steps if isinstance(s, GoGrasp)}


def avoiding_plan(view: PlannerView, avoid: Plan | None) -> Plan | None:
    """Best plan that stays clear of another agent's projected activity.

    Options exploring a room the other plan explores, or grasping an
    object it grasps, drop to the back of the ranking; they are chosen
    only when nothing else remains.
    """
    options = plan_options(view)
    if not options:
        return None
    if avoid is None:
        return options[0]
    their_rooms = _plan_rooms_explored(avoid)
    their_grasps = _plan_grasps(avoid)

    def conflicts(plan: Plan) -> bool:
        return bool(
            _plan_rooms_explored(plan) & their_rooms or _plan_grasps(plan) & their_grasps
        )

    clear = [p for p in options if not conflicts(p)]
    return clear[0] if clear else options[0]


# ---------------------------------------------------------------------------
# Plan stepping.
# ---------------------------------------------------------------------------


def _effect_holds(view: PlannerView, step: PlanStep) -> bool:
    owner = AgentName(view.owner)
    if isinstance(step, GoTo):
        return view.room_of(view.owner) == step.room.id
    if isinstance(step, ExploreCurrent):
        return view.explored_level(step.room.id) == ALL
    if isinstance(step, GoGrasp):
        return view.holds(AtomicBelief(owner, "HOLD", step.item))
    if isinstance(step, Put):
        return view.holds(AtomicBelief(step.container, "CONTAIN", step.object))
    return False  # transport progress is tracked through history alone


def _check_stale(view: PlannerView, plan: Plan, index: int) -> None:
    step = plan.steps[index]
    if isinstance(step, GoGrasp):
        item = step.item
        if view.believed_transported(item):
            raise StalePlan(f"{item} already transported")
        holder = view.believed_holder(item)
        if holder is not None and holder != view.owner:
            raise StalePlan(f"{item} held by {holder}")
        expected_room = None
        for earlier in reversed(plan.steps[:index]):
            if isinstance(earlier, GoTo):
                expected_room = earlier.room.id
                break
        if expected_room is None:
            expected_room = view.my_room()
        believed = view.believed_room_of_object(item)
        if believed != expected_room:
            raise StalePlan(f"{item} no longer believed in the grasp room")
    elif isinstance(step, Put):
        if view.believed_holder(step.container) != view.owner:
            raise StalePlan(f"not holding {step.container}")
        if view.believed_holder(step.object) != view.owner:
            raise StalePlan(f"not holding {step.object}")
    elif isinstance(step, Transport):
        if not view.holdings():
            raise StalePlan("nothing held to transport")


def next_step(view: PlannerView, plan: Plan, history: list[PlanStep]) -> PlanStep | str:
    """First plan step not yet reflected in beliefs or history.

    ``history`` lists this plan's completed steps in execution order.
    Steps whose effects already hold are skipped without executing;
    returns ``SUBPLAN_DONE`` once every step is accounted for and raises
    :class:`StalePlan` when a pending step's premise has evaporated.
    """
    h = 0
    for index, step in enumerate(plan.steps):
        if h < len(history) and history[h] == step:
            h += 1
            continue
        if _effect_holds(view, step):
            continue
        _check_stale(view, plan, index)
        return step
    return SUBPLAN_DONE


# ---------------------------------------------------------------------------
# Miscoordination detection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conflict:
    my_index: int
    their_plan: int
    their_index: int
    my_step: PlanStep
    their_step: PlanStep
    kind: str


@dataclass(frozen=True)
class MiscoordReport:
    collaborator: str
    conflicts: tuple[Conflict, ...]
    misaligned: MisalignmentReport
    heavy: bool

    def to_payload(self) -> dict:
        return {
            "collaborator": self.collaborator,
            "conflicts": [
                {
                    "kind": c.kind,
                    "mine": str(c.my_step),
                    "theirs": str(c.their_step),
                    "my_index": c.my_index,
                    "their_plan": c.their_plan,
                    "their_index": c.their_index,
                }
                for c in self.conflicts
            ],
            "misaligned": [str(f) for f in self.misaligned.facts],
            "heavy": self.heavy,
        }


def step_conflict(a: PlanStep, b: PlanStep, registry: EntityRegistry) -> str | None:
    if isinstance(a, ExploreCurrent) and isinstance(b, ExploreCurrent) and a.room == b.room:
        return SAME_ROOM_EXPLORE
    if isinstance(a, GoGrasp) and isinstance(b, GoGrasp) and a.item == b.item:
        if registry.is_container(a.item.id):
            return SAME_CONTAINER_GRAB
        return SAME_GRASP_TARGET
    return None


def head_indexes(plan: Plan) -> set[int]:
    head = {0}
    if len(plan.steps) > 1 and isinstance(plan.steps[0], GoTo):
        head.add(1)
    return head


def fact_is_goal_relevant(fact: AtomicBelief, registry: EntityRegistry) -> bool:
    for term in (fact.subject, fact.object):
        if isinstance(term, ObjectRef) and registry.is_target(term.id):
            return True
    if fact.relation == "EXPLORED" and isinstance(fact.object, StateAtom):
        return fact.object.value == ALL
    return False


def detect_miscoordination(
    my_plan: Plan | None,
    their_plans: list[Plan],
    world: BeliefWorld,
    collaborator: str,
    registry: EntityRegistry,
) -> MiscoordReport:
    """Pairwise conflict scan plus belief misalignment, with a heaviness
    verdict: an imminent conflict (both steps in their plans' opening
    moves) or a goal-relevant misaligned fact makes the report heavy.
    """
    conflicts: list[Conflict] = []
    if my_plan is not None:
        for p, theirs in enumerate(their_plans):
            for i, a in enumerate(my_plan.steps):
                for j, b in enumerate(theirs.steps):
                    kind = step_conflict(a, b, registry)
                    if kind:
                        conflicts.append(Conflict(i, p, j, a, b, kind))
    misaligned = world.misalignment(collaborator)
    heavy_conflict = False
    if my_plan is not None:
        my_head = head_indexes(my_plan)
        for c in conflicts:
            if c.my_index in my_head and c.their_index in head_indexes(their_plans[c.their_plan]):
                heavy_conflict = True
                break
    heavy_misalign = any(
        fact_is_goal_relevant(f, registry) for f in misaligned.facts
    )
    return MiscoordReport(
        collaborator=collaborator,
        conflicts=tuple(conflicts),
        misaligned=misaligned,
        heavy=heavy_conflict or heavy_misalign,
    )


# ---------------------------------------------------------------------------
# Messages.
# ---------------------------------------------------------------------------

_MESSAGE_RE = re.compile(r"^FACTS:\s*(?P<facts>.*?)\s*\|\s*PLAN:\s*(?P<plan>.*)$", re.S)


def compose_message(
    misaligned: list[AtomicBelief] | tuple[AtomicBelief, ...],
    plan: Plan | None,
    registry: EntityRegistry,
) -> str:
    """Render the structured two-part message: facts I hold, then my plan.

    Facts print in canonical order; when the 500-character budget is
    tight, the least goal-relevant facts are dropped first (plain facts
    before exploration facts before target facts, last-listed first).
    """
    facts = sorted(set(misaligned), key=str)

    def priority(fact: AtomicBelief) -> int:
        if any(
            isinstance(t, ObjectRef) and registry.is_target(t.id)
            for t in (fact.subject, fact.object)
        ):
            return 0
        if fact.relation == "EXPLORED":
            return 1
        return 2

    plan_text = str(plan) if plan is not None else "None"

    def render(kept: list[AtomicBelief]) -> str:
        parts = ["FACTS:"]
        if kept:
            parts.append("; ".join(str(f) for f in kept))
        parts.extend(["|", "PLAN:", plan_text])
        return " ".join(parts)

    text = render(facts)
    while len(text) > MAX_MESSAGE_CHARS and facts:
        worst = max(priority(f) for f in facts)
        for i in range(len(facts) - 1, -1, -1):
            if priority(facts[i]) == worst:
                del facts[i]
                break
        text = render(facts)
    return text[:MAX_MESSAGE_CHARS]


def parse_message(text: str) -> tuple[list[AtomicBelief], Plan | None]:
    """Parse the structured message grammar; raises ParseError otherwise."""
    m = _MESSAGE_RE.match(text.strip())
    if not m:
        raise ParseError("message does not match 'FACTS: ... | PLAN: ...'", 0)
    facts = []
    fact_part = m.group("facts").strip()
    if fact_part:
        for chunk in fact_part.split(";"):
            chunk = chunk.strip()
            if chunk:
                facts.append(parse_atomic(chunk))
    return facts, parse_plan(m.group("plan"))


# ---------------------------------------------------------------------------
# Belief updates.
# ---------------------------------------------------------------------------


def update_from_visual(
    world: BeliefWorld, obs: VisualObservation, registry: EntityRegistry
) -> None:
    """Fold one visual observation into the zero partition.

    Purely mechanical: position, exploration level (never downgraded),
    revealed room contents, own and co-located holdings (hands are fully
    visible, so holdings no longer seen are retracted), container loads,
    and the delivered pile when standing in the goal room.  A fully
    explored room is authoritative about its contents: believed locations
    contradicted by such an observation are forgotten.
    """
    owner = AgentName(world.owner)
    for ref, _ in obs.items + obs.hands:
        if not registry.knows(ref.id):
            raise CorruptObservation(f"unknown entity {ref} in observation")
    if not registry.is_room(obs.room.id):
        raise CorruptObservation(f"unknown room {obs.room} in observation")

    world.assert_fact(AtomicBelief(owner, "AT", obs.room))

    current = zero_view(world, registry).explored_level(obs.room.id)
    if sbl.EXPLORED_STATES.index(obs.exploration) >= sbl.EXPLORED_STATES.index(current):
        world.assert_fact(AtomicBelief(obs.room, "EXPLORED", StateAtom(obs.exploration)))

    for ref, _ in obs.items:
        world.assert_fact(AtomicBelief(ref, "IN", obs.room))

    if obs.exploration == ALL:
        visible = {ref.id for ref, _ in obs.items}
        stale = [
            f.subject
            for f in world.facts()
            if f.relation == "IN"
            and f.object == obs.room
            and isinstance(f.subject, ObjectRef)
            and f.subject.id not in visible
        ]
        for ref in stale:
            world.retract_location(ref)

    def sync_hands(agent: AgentName, hands: tuple[tuple[ObjectRef, str], ...]) -> None:
        held_now = {ref.id for ref, _ in hands}
        stale_holds = [
            f.object
            for f in world.facts()
            if f.relation == "HOLD"
            and f.subject == agent
            and isinstance(f.object, ObjectRef)
            and f.object.id not in held_now
        ]
        for ref in stale_holds:
            world.retract_location(ref)
        for ref, _ in hands:
            world.assert_fact(AtomicBelief(agent, "HOLD", ref))

    sync_hands(owner, obs.hands)
    for name, hands in obs.colocated:
        other = AgentName(name)
        world.assert_fact(AtomicBelief(other, "AT", obs.room))
        sync_hands(other, hands)

    for container, inner in obs.contents:
        world.assert_fact(AtomicBelief(container, "CONTAIN", inner))

    for ref in obs.at_bed:
        world.assert_fact(AtomicBelief(ref, "AT", registry.bed))


def ingest_facts(
    world: BeliefWorld, facts: list[AtomicBelief], about: str | None
) -> None:
    """Fold one coherent batch of reported facts into a partition.

    Location facts land before holdings so that delivered or contained
    items release hands first.  A holding report that would overflow the
    holder's hands displaces that holder's previously believed holdings
    (newest wins: the report is fresher than whatever went unmentioned).
    Facts that still violate the consensus rules are dropped individually
    with a warning.
    """
    ordered = sorted(facts, key=lambda f: (f.relation == "HOLD", str(f)))
    for fact in ordered:
        try:
            world.assert_fact(fact, about=about)
        except belief_store.RuleViolation:
            if fact.relation == "HOLD" and isinstance(fact.subject, AgentName):
                fresh = {
                    f.object for f in ordered
                    if f.relation == "HOLD" and f.subject == fact.subject
                }
                for held in world.facts(about=about):
                    if (
                        held.relation == "HOLD"
                        and held.subject == fact.subject
                        and held.object not in fresh
                    ):
                        world.retract_location(held.object, about=about)
            try:
                world.assert_fact(fact, about=about)
            except belief_store.RuleViolation as exc:
                log.warning("dropping non-conforming fact from message: %s", exc)


def _facts_from_lines(lines: str, order: int) -> list[AtomicBelief]:
    facts = []
    for line in lines.splitlines():
        line = line.strip().lstrip("-*").strip()
        if line.lower() in _NO_ANSWER:
            continue
        try:
            expr = parse(line)
        except ParseError:
            log.warning("skipping unparseable belief line: %r", line)
            continue
        if expr.order == order and expr.is_ground:
            facts.append(expr.body)
    return facts


# ---------------------------------------------------------------------------
# Reasoner-backed operations.
# ---------------------------------------------------------------------------


def zero_lines(world: BeliefWorld) -> str:
    lines = [f"{world.owner} BELIEVE {f}" for f in world.facts()]
    return "\n".join(lines) if lines else "None"

def first_lines(world: BeliefWorld, collab: str) -> str:
    lines = [f"{world.owner} BELIEVE {collab} BELIEVE {f}" for f in world.facts(about=collab)]
    return "\n".join(lines) if lines else "None"


def rules_text(world: BeliefWorld) -> str:
    return "\n".join(str(r) for r in sorted(world.rules, key=str))


def plans_text(plans: list[Plan]) -> str:
    lines = []
    for i in range(PREDICTED_PLANS):
        body = str(plans[i]) if i < len(plans) else "None"
        lines.append(f"plan{i + 1}: {body}")
    return "\n".join(lines)


def _safe_plan(text: str, registry: EntityRegistry) -> Plan | None:
    """Parse a plan reply; unknown entities or bad grammar yield None."""
    try:
        plan = parse_plan(text)
    except (ParseError, ValueError):
        return None
    return _known_plan(plan, registry)


def _known_plan(plan: Plan | None, registry: EntityRegistry) -> Plan | None:
    """The plan itself when every entity it names is known, else None."""
    if plan is None:
        return None
    for step in plan.steps:
        for ref in _step_refs(step):
            if not registry.knows(ref.id):
                return None
    return plan


def _step_refs(step: PlanStep) -> list[ObjectRef]:
    if isinstance(step, (GoTo, ExploreCurrent)):
        return [step.room]
    if isinstance(step, GoGrasp):
        return [step.item]
    if isinstance(step, Put):
        return [step.object, step.container]
    return []


def _remote(resp: prompts.ReasonerResponse) -> bool:
    """True when a remote model answered; otherwise the engine decides."""
    return resp.backend == "llm"


def _reply_facts(
    resp: prompts.ReasonerResponse, label: str, order: int
) -> list[AtomicBelief] | None:
    """The facts a remote model's belief section lists (``Owner BELIEVE
    fact`` lines of one order); None when no remote model answered or the
    section is missing or holds no readable line."""
    if not _remote(resp) or label not in resp.sections:
        return None
    lines = resp.sections[label]
    facts = _facts_from_lines(lines, order)
    if facts or lines.strip().lower() in _NO_ANSWER:
        return facts
    return None


def _plan_reply(resp: prompts.ReasonerResponse, registry: EntityRegistry, heuristic) -> Plan | None:
    """A remote model's single-plan answer ("None" means done); the
    heuristic decides when no remote model answered or the plan is bad."""
    if not _remote(resp):
        return heuristic()
    section = resp.section("plan")
    if section.strip().lower() in _NO_ANSWER:
        return None
    plan = _safe_plan(section, registry)
    return plan if plan is not None else heuristic()


def _heard(text: str, registry: EntityRegistry) -> tuple[list[AtomicBelief], Plan | None]:
    """The ground facts and the known-entity plan a structured message
    carries; nothing when it does not parse."""
    try:
        facts, plan = parse_message(text)
    except ParseError:
        log.warning("ignoring unparseable message: %r", text)
        return [], None
    return [f for f in facts if f.is_ground], _known_plan(plan, registry)


def update_from_messages(
    world: BeliefWorld,
    inbox: list[tuple[str, str]],
    reasoner,
    registry: EntityRegistry,
) -> dict[str, Plan]:
    """Fold inbox messages into both belief orders via the reasoner.

    Each message updates the zero partition (the owner now knows what it
    was told) and the sender's first-order partition (the sender plainly
    knows what it said).  Returns any plans the senders declared.  Where
    no usable remote reply arrives, the message grammar is read directly:
    unparseable messages are ignored with a warning, facts with variables
    are dropped, and plans naming unknown entities are not declared.
    Facts that violate the consensus rules are dropped individually.
    """
    declared: dict[str, Plan] = {}
    for sender, text in inbox:
        if sender not in world.first:
            log.warning("message from unregistered sender %r ignored", sender)
            continue
        vars = {
            "AGENT_NAME": world.owner,
            "OPPO_NAME": sender,
            "MESSAGE": f"{sender}: {text}",
            "RULE": rules_text(world),
        }
        zero_resp = reasoner.complete(prompts.ReasonerRequest("update_zero", vars))
        first_resp = reasoner.complete(prompts.ReasonerRequest("update_first", vars))
        # The message itself is parsed only when some reply is not usable.
        heard = functools.cache(lambda text=text: _heard(text, registry))
        zero = _reply_facts(zero_resp, "Zero order beliefs", 0)
        first = _reply_facts(first_resp, "First order beliefs", 1)
        ingest_facts(world, heard()[0] if zero is None else zero, None)
        ingest_facts(world, heard()[0] if first is None else first, sender)
        plan = _plan_reply(first_resp, registry, lambda: heard()[1])
        if plan is not None:
            declared[sender] = plan
    return declared


def predict_self(
    world: BeliefWorld,
    goal: GoalSpec,
    reasoner,
    registry: EntityRegistry,
    oppo_name: str,
) -> Plan | None:
    """Best next 1-3 step plan from the zero partition; None when done."""
    vars = {
        "AGENT_NAME": world.owner,
        "OPPO_NAME": oppo_name,
        "GOAL": goal.describe(),
        "ZERO_ORDER_BELIEF": zero_lines(world),
    }
    resp = reasoner.complete(prompts.ReasonerRequest("predict_zero", vars))
    return _plan_reply(resp, registry, lambda: best_plan(zero_view(world, registry)))


def predict_collaborator(
    world: BeliefWorld,
    collab: str,
    goal: GoalSpec,
    reasoner,
    registry: EntityRegistry,
) -> list[Plan]:
    """Up to three candidate plans for a collaborator, computed from the
    first-order partition only (never from the owner's zero beliefs)."""
    vars = {
        "AGENT_NAME": world.owner,
        "OPPO_NAME": collab,
        "GOAL": goal.describe(),
        "FIRST_ORDER_BELIEF": first_lines(world, collab),
    }
    resp = reasoner.complete(prompts.ReasonerRequest("predict_first", vars))
    plans = []
    if _remote(resp):
        for i in range(PREDICTED_PLANS):
            plan = _safe_plan(resp.section(f"plan{i + 1}"), registry)
            if plan is not None:
                plans.append(plan)
    return plans or candidate_plans(first_view(world, collab, registry))


def replan(
    world: BeliefWorld,
    collab_plan: Plan | None,
    goal: GoalSpec,
    reasoner,
    registry: EntityRegistry,
    oppo_name: str,
) -> Plan | None:
    """Like predict_self, but steering clear of the collaborator's plan."""
    vars = {
        "AGENT_NAME": world.owner,
        "OPPO_NAME": oppo_name,
        "GOAL": goal.describe(),
        "OPPO_PLAN": str(collab_plan) if collab_plan is not None else "None",
        "ZERO_ORDER_BELIEF": zero_lines(world),
    }
    resp = reasoner.complete(prompts.ReasonerRequest("replan", vars))
    return _plan_reply(
        resp, registry, lambda: avoiding_plan(zero_view(world, registry), collab_plan)
    )


def next_action(
    world: BeliefWorld,
    plan: Plan,
    history: list[PlanStep],
    reasoner,
    registry: EntityRegistry,
    goal: GoalSpec,
    oppo_name: str,
) -> PlanStep | str:
    """The first incomplete plan step, or SUBPLAN_DONE.

    The mechanical completion/staleness check runs first (raising
    :class:`StalePlan` deterministically); a remote model may then pick
    a different legal next step.
    """
    view = zero_view(world, registry)
    mechanical = next_step(view, plan, history)
    vars = {
        "AGENT_NAME": world.owner,
        "OPPO_NAME": oppo_name,
        "GOAL": goal.describe(),
        "MY_PLAN": str(plan),
        "PREVIOUS_ACTIONS": "; ".join(str(s) for s in history) if history else "None",
        "ZERO_ORDER_BELIEF": zero_lines(world),
        "ACTION_LIST": ACTION_LIST_TEXT,
    }
    resp = reasoner.complete(prompts.ReasonerRequest("plan_next", vars))
    if _remote(resp):
        answer = resp.section("answer").strip()
        if answer.upper().startswith("SUBPLAN DONE"):
            return SUBPLAN_DONE
        plan_step = _safe_plan(answer, registry)
        if plan_step is not None and len(plan_step.steps) == 1:
            return plan_step.steps[0]
    return mechanical


def compose_via(
    reasoner,
    owner: str,
    oppo_name: str,
    misaligned: list[AtomicBelief],
    plan: Plan | None,
    registry: EntityRegistry,
) -> str:
    """Draft the outgoing message through the reasoner; always <= 500 chars."""
    vars = {
        "AGENT_NAME": owner,
        "OPPO_NAME": oppo_name,
        "MISALIGNED_INFORMATION": "\n".join(str(f) for f in misaligned) or "None",
        "MY_PLAN": str(plan) if plan is not None else "None",
    }
    resp = reasoner.complete(prompts.ReasonerRequest("communicate", vars))
    text = resp.section("Message").strip() if _remote(resp) else ""
    if not text:
        text = compose_message(misaligned, plan, registry)
    return text[:MAX_MESSAGE_CHARS]


# ---------------------------------------------------------------------------
# The per-agent decision loop.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollabDecision:
    kind: str  # communicate | act
    message: str | None = None
    action: PlanStep | None = None


@dataclass
class AgentMind:
    """Decision state for one agent: beliefs, current plan, bookkeeping."""

    name: str
    world: BeliefWorld
    registry: EntityRegistry
    reasoner: object
    goal: GoalSpec
    mode: str = MODE_ADAPTIVE
    cooldown: int = 1
    plan: Plan | None = None
    plan_history: list[PlanStep] = field(default_factory=list)
    tick: int = 0
    last_comm_tick: int | None = None

    @property
    def collaborators(self) -> tuple[str, ...]:
        return self.world.collaborators

    @property
    def default_oppo(self) -> str:
        return self.collaborators[0]

    def adopt(self, plan: Plan | None) -> None:
        self.plan = plan
        self.plan_history = []

    def note_result(self, action, completed: bool) -> None:
        """Harness feedback after the simulator finishes an action."""
        if completed and self.plan is not None and not isinstance(action, str):
            if action in self.plan.steps:
                self.plan_history.append(action)

    def _cooldown_ok(self) -> bool:
        if self.last_comm_tick is None:
            return True
        return (self.tick - self.last_comm_tick) > self.cooldown

    def decide(
        self, obs: VisualObservation, inbox: list[tuple[str, str]]
    ) -> tuple[CollabDecision | None, dict]:
        """Run one decision tick; returns (decision, log payload).

        None means the agent has nothing left to do and idles this frame.
        """
        self.tick += 1
        fallbacks_before = self.reasoner.fallback_count
        update_from_visual(self.world, obs, self.registry)
        declared = update_from_messages(self.world, inbox, self.reasoner, self.registry)

        if self.plan is None:
            self.adopt(
                predict_self(self.world, self.goal, self.reasoner, self.registry, self.default_oppo)
            )

        step: PlanStep | str | None = None
        if self.plan is not None:
            step = self._advance(declared)

        reports: list[MiscoordReport] = []
        candidates_by_collab: dict[str, list[Plan]] = {}
        if self.plan is not None:
            for collab in self.collaborators:
                candidates = predict_collaborator(
                    self.world, collab, self.goal, self.reasoner, self.registry
                )
                if collab in declared:
                    candidates = [declared[collab]] + candidates[: PREDICTED_PLANS - 1]
                candidates_by_collab[collab] = candidates
                reports.append(self._judge(collab, candidates))

        heavy = [r for r in reports if r.heavy]
        comm_allowed = self._cooldown_ok()
        payload = {
            "tick": self.tick,
            "snapshot_hash": snapshot_hash(self.world),
            "plan": str(self.plan) if self.plan is not None else None,
            "reports": [r.to_payload() for r in reports],
            "declared": {k: str(v) for k, v in declared.items()},
            "comm_allowed": comm_allowed,
        }

        wants_message = {
            MODE_ADAPTIVE: bool(heavy),
            MODE_ALWAYS: self.plan is not None or bool(heavy),
            MODE_NEVER: False,
        }[self.mode]

        if wants_message and comm_allowed:
            misaligned: list[AtomicBelief] = []
            seen = set()
            for r in reports:
                for f in r.misaligned.facts:
                    if f not in seen:
                        seen.add(f)
                        misaligned.append(f)
            misaligned.sort(key=str)
            if self.mode == MODE_ADAPTIVE and heavy:
                first_heavy = heavy[0]
                avoid = declared.get(first_heavy.collaborator)
                if avoid is None:
                    cands = candidates_by_collab.get(first_heavy.collaborator, [])
                    avoid = cands[0] if cands else None
                self.adopt(
                    replan(
                        self.world, avoid, self.goal, self.reasoner,
                        self.registry, first_heavy.collaborator,
                    )
                )
            text = compose_via(
                self.reasoner, self.name, self.default_oppo,
                misaligned, self.plan, self.registry,
            )
            self._note_shared(text, misaligned)
            self.last_comm_tick = self.tick
            payload["plan"] = str(self.plan) if self.plan is not None else None
            payload["fallbacks"] = self.reasoner.fallback_count - fallbacks_before
            return CollabDecision(kind="communicate", message=text), payload

        payload["fallbacks"] = self.reasoner.fallback_count - fallbacks_before
        if self.plan is None or step is None or step == SUBPLAN_DONE:
            return None, payload
        return CollabDecision(kind="act", action=step), payload

    def _advance(self, declared: dict[str, Plan]) -> PlanStep | str | None:
        """Resolve the next step, replanning through staleness and
        completed subplans; None when the goal side is exhausted."""
        for _ in range(3):
            assert self.plan is not None
            try:
                step = next_action(
                    self.world, self.plan, self.plan_history, self.reasoner,
                    self.registry, self.goal, self.default_oppo,
                )
            except StalePlan as exc:
                log.debug("%s: stale plan (%s); replanning", self.name, exc)
                avoid = next(iter(declared.values()), None)
                self.adopt(
                    replan(
                        self.world, avoid, self.goal, self.reasoner,
                        self.registry, self.default_oppo,
                    )
                )
                if self.plan is None:
                    return None
                continue
            if step == SUBPLAN_DONE:
                self.adopt(
                    predict_self(
                        self.world, self.goal, self.reasoner, self.registry, self.default_oppo
                    )
                )
                if self.plan is None:
                    return None
                continue
            return step
        return None

    def _judge(self, collab: str, candidates: list[Plan]) -> MiscoordReport:
        """Pairwise miscoordination: mechanical scan; a remote model may
        overturn the heaviness verdict."""
        report = detect_miscoordination(
            self.plan, candidates, self.world, collab, self.registry
        )
        vars = {
            "AGENT_NAME": self.name,
            "OPPO_NAME": collab,
            "ZERO_ORDER_BELIEF": zero_lines(self.world),
            "MY_FIRST_ORDER_BELIEF": first_lines(self.world, collab),
            "MY_PLAN": str(self.plan) if self.plan is not None else "None",
            "OPPO_PLANS": plans_text(candidates),
        }
        resp = self.reasoner.complete(prompts.ReasonerRequest("adaptive", vars))
        answer = resp.section("answer").strip().lower()
        if _remote(resp) and answer:
            heavy = answer.startswith("yes")
            if heavy != report.heavy:
                report = MiscoordReport(
                    collaborator=report.collaborator,
                    conflicts=report.conflicts,
                    misaligned=report.misaligned,
                    heavy=heavy,
                )
        return report

    def _note_shared(self, text: str, misaligned: list[AtomicBelief]) -> None:
        """After broadcasting, credit every collaborator with the shared
        facts: the owner now believes they know what it just said."""
        try:
            facts, _ = parse_message(text)
        except ParseError:
            facts = misaligned
        for collab in self.collaborators:
            ingest_facts(self.world, facts, collab)


def snapshot_hash(world: BeliefWorld) -> str:
    return hashlib.sha256(world.snapshot().encode("utf-8")).hexdigest()[:16]
