"""The planner: plan ranking, plan stepping and miscoordination detection.

Pure functions of one belief partition (read through a
:class:`PlannerView`), of plans and of facts the caller passes in.  This
module stores no beliefs, asks no reasoner, runs no simulator and logs
nothing.

Plan stepping decides, for each step the plan's history has not yet
accounted for, one of three things: done (its effect already holds in the
beliefs, so it is skipped), pending (it is the next step) or stale (its
premise is gone, so :class:`StalePlan` is raised).  A plan with no
pending step is ``SUBPLAN_DONE``.

Miscoordination has two sources.  Plan conflicts are step pairs that
explore the same room or grasp the same object or container; a conflict is
imminent when both steps sit in their plan's opening move (the first step,
or the second when the first is the travel leg to it).  Belief
misalignment is everything the agent knows that its model of the
collaborator lacks; it weighs heavily when it touches a goal target or a
room becoming fully explored.  A report is heavy when it holds an imminent
conflict or a heavy misalignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import belief_store
from .actions import ExploreCurrent, GoGrasp, GoTo, Plan, PlanStep, Put, Transport
from .scenario import CONTAINER_CAPACITY, MAX_HANDS, EntityRegistry
from .sbl import EXPLORED_STATES, AgentName, AtomicBelief, ObjectRef, StateAtom

NONE, _PART, ALL = EXPLORED_STATES

SUBPLAN_DONE = "SUBPLAN_DONE"

SAME_ROOM_EXPLORE = "same-room-explore"
SAME_GRASP_TARGET = "same-grasp-target"
SAME_CONTAINER_GRAB = "same-container-grab"


class StalePlan(RuntimeError):
    """A plan step's premise no longer holds in the agent's beliefs."""


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
    slots: belief_store.Partition

    def holds(self, fact: AtomicBelief) -> bool:
        return self.slots.get(belief_store.slot(fact)) == fact

    def room_of(self, agent: str) -> int | None:
        f = self.slots.get(belief_store.position_slot(AgentName(agent)))
        if f is not None and isinstance(f.object, ObjectRef) and self.registry.is_room(f.object.id):
            return f.object.id
        return None

    def my_room(self) -> int:
        room = self.room_of(self.owner)
        return self.registry.start_room(self.owner).id if room is None else room

    def holdings(self, agent: str | None = None) -> list[ObjectRef]:
        held = belief_store.held_by(self.slots, AgentName(agent or self.owner))
        return sorted((r for r in held if isinstance(r, ObjectRef)), key=lambda r: r.id)

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

    def location(self, ref: ObjectRef) -> AtomicBelief | None:
        """The one fact that says where ``ref`` is (IN, HOLD, CONTAIN or AT)."""
        return self.slots.get(belief_store.location_slot(ref))


# ---------------------------------------------------------------------------
# The planning heuristic.
# ---------------------------------------------------------------------------


def plan_options(view: PlannerView, avoid: Plan | None = None) -> list[Plan]:
    """Ranked plan candidates, best first; the one plan ranking.

    Priority order: fill a held container (put a held target in, or grasp
    a known same-room target into it); transport when payload is aboard
    and either capacity is exhausted or no graspable target is known;
    fetch the nearest known target; otherwise explore the nearest
    not-fully-explored room, unexplored rooms first.  Ties break on
    ascending room id, then ascending object id.  Options that
    :func:`plan_conflicts` with ``avoid`` (another agent's projected
    plan) keep that order but move behind every other option.
    """
    reg = view.registry
    here = view.my_room()
    held = view.holdings()
    container = next((r for r in held if reg.is_container(r.id)), None)
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
    options = [plan for _, plan in ranked]
    if avoid is not None:
        options.sort(key=lambda plan: plan_conflicts(plan, avoid, reg))
    return options


def best_plan(view: PlannerView, avoid: Plan | None = None) -> Plan | None:
    """The head of :func:`plan_options`; None when nothing is left to do."""
    options = plan_options(view, avoid)
    return options[0] if options else None


# ---------------------------------------------------------------------------
# Plan stepping.
# ---------------------------------------------------------------------------


def _pending(view: PlannerView, plan: Plan, index: int) -> bool:
    """Whether step ``index`` of ``plan`` is still to do: False when its
    effect already holds in the beliefs, True when it is pending.  Raises
    :class:`StalePlan` when a pending step's premise is gone.

    A grasp's premise is that the object lies IN the room the plan grasps
    it in: the room of the plan's last earlier ``go to``, else the agent's
    own.  A put's is that the agent holds the container and the object, a
    transport's that it holds anything; a transport's progress is tracked
    through history alone.
    """
    step = plan.steps[index]
    me = AgentName(view.owner)
    if isinstance(step, GoTo):
        return view.room_of(view.owner) != step.room.id
    if isinstance(step, ExploreCurrent):
        return view.explored_level(step.room.id) != ALL
    if isinstance(step, GoGrasp):
        if view.holds(AtomicBelief(me, "HOLD", step.object)):
            return False
        gotos = [earlier.room.id for earlier in plan.steps[:index] if isinstance(earlier, GoTo)]
        room = gotos[-1] if gotos else view.my_room()
        fact = view.location(step.object)
        where = fact.object if fact is not None and fact.relation == "IN" else None
        if not (isinstance(where, ObjectRef) and where.id == room and view.registry.is_room(room)):
            raise StalePlan(f"{step.object} not believed in the grasp room: {fact}")
        return True
    if isinstance(step, Put):
        if view.holds(AtomicBelief(step.container, "CONTAIN", step.object)):
            return False
        for ref in (step.container, step.object):
            if not view.holds(AtomicBelief(me, "HOLD", ref)):
                raise StalePlan(f"not holding {ref}")
        return True
    if not view.holdings():
        raise StalePlan("nothing held to transport")
    return True


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
        if _pending(view, plan, index):
            return step
    return SUBPLAN_DONE


# ---------------------------------------------------------------------------
# Miscoordination detection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conflict:
    """One conflicting step pair; the fields are the episode log's keys."""

    kind: str
    mine: str
    theirs: str
    my_index: int
    their_plan: int
    their_index: int


@dataclass(frozen=True)
class MiscoordReport:
    collaborator: str
    conflicts: tuple[Conflict, ...]
    misaligned: tuple[AtomicBelief, ...]
    heavy: bool

    def to_payload(self) -> dict:
        return {
            "collaborator": self.collaborator,
            # A shallow copy: every field is a str or an int, so the deep
            # copy of dataclasses.asdict buys nothing.
            "conflicts": [dict(vars(c)) for c in self.conflicts],
            "misaligned": [str(f) for f in self.misaligned],
            "heavy": self.heavy,
        }


def step_conflict(a: PlanStep, b: PlanStep, registry: EntityRegistry) -> str | None:
    """The conflict kind when both steps explore one room or grasp one
    object, else None.  Entities match by id: a remote reply may name a
    known id under another name."""
    if isinstance(a, ExploreCurrent) and isinstance(b, ExploreCurrent) and a.room.id == b.room.id:
        return SAME_ROOM_EXPLORE
    if isinstance(a, GoGrasp) and isinstance(b, GoGrasp) and a.object.id == b.object.id:
        if registry.is_container(a.object.id):
            return SAME_CONTAINER_GRAB
        return SAME_GRASP_TARGET
    return None


def plan_conflicts(mine: Plan, theirs: Plan, registry: EntityRegistry) -> bool:
    """Whether any step of ``mine`` conflicts with any step of ``theirs``."""
    return any(step_conflict(a, b, registry) for a in mine.steps for b in theirs.steps)


def head_indexes(plan: Plan) -> set[int]:
    head = {0}
    if len(plan.steps) > 1 and isinstance(plan.steps[0], GoTo):
        head.add(1)
    return head


def names_target(fact: AtomicBelief, registry: EntityRegistry) -> bool:
    return any(
        isinstance(term, ObjectRef) and registry.is_target(term.id)
        for term in (fact.subject, fact.object)
    )


def fact_is_goal_relevant(fact: AtomicBelief, registry: EntityRegistry) -> bool:
    """A fact about a target object, or a room becoming fully explored."""
    if names_target(fact, registry):
        return True
    if fact.relation == "EXPLORED" and isinstance(fact.object, StateAtom):
        return fact.object.value == ALL
    return False


def detect_miscoordination(
    my_plan: Plan | None,
    their_plans: list[Plan],
    misaligned: tuple[AtomicBelief, ...],
    collaborator: str,
    registry: EntityRegistry,
) -> MiscoordReport:
    """Pairwise conflict scan plus belief misalignment, with a heaviness
    verdict: an imminent conflict (both steps in their plans' opening
    moves) or a goal-relevant misaligned fact makes the report heavy.
    ``misaligned`` is :meth:`BeliefWorld.misalignment` of ``collaborator``.
    """
    conflicts: list[Conflict] = []
    if my_plan is not None:
        for p, theirs in enumerate(their_plans):
            for i, a in enumerate(my_plan.steps):
                for j, b in enumerate(theirs.steps):
                    kind = step_conflict(a, b, registry)
                    if kind:
                        conflicts.append(Conflict(kind, str(a), str(b), i, p, j))
    heavy_conflict = any(
        c.my_index in head_indexes(my_plan)
        and c.their_index in head_indexes(their_plans[c.their_plan])
        for c in conflicts
    )
    heavy_misalign = any(fact_is_goal_relevant(f, registry) for f in misaligned)
    return MiscoordReport(
        collaborator=collaborator,
        conflicts=tuple(conflicts),
        misaligned=misaligned,
        heavy=heavy_conflict or heavy_misalign,
    )
