"""Per-agent belief worlds: own facts, per-collaborator models, shared rules.

A :class:`BeliefWorld` keeps the beliefs of one owning agent, under the
consensus rule set ``rules`` every stored fact must conform to, and
carries the episode's :class:`~beliefworld.scenario.EntityRegistry`, the
catalog of rooms and object kinds those beliefs are about.  One map,
``partitions``, holds each partition under the ``about`` key every method
takes:

* ``None`` — the zero partition, what the owner itself holds true about
  the world,
* a collaborator ``c`` — the first-order partition, what the owner thinks
  ``c`` holds true.

Facts are bare :class:`~beliefworld.sbl.AtomicBelief` triples; the believer
chain is implicit in the partition (``owner BELIEVE ...`` for zero,
``owner BELIEVE c BELIEVE ...`` for first).  The rules are the one
schema of what a partition may hold: a fact is admitted
(:meth:`BeliefWorld.admits`) when the rules of its partition's belief
order admit its subject's and object's kinds for its relation
(:func:`~beliefworld.scenario.kind_pairs`: ``?agent HOLD ?object`` admits
an agent holding a target or a container).  Each term's kind is read
from the registry or the roster, so a variable, an unknown id or an
unknown agent has none, and a stored fact is ground.  The believer chain
of a rule constrains nothing: ``?agent BELIEVE ?agent HOLD ?object``
repeats ``?agent`` across the chain and the body, yet the owner must be
able to store an observed collaborator's holdings.

A partition maps each fact's :func:`slot` to the fact, so it holds at most
one fact per slot by construction and the newest assertion wins.
Exploration level is one slot per room and position one slot per agent.
The location of a thing is one slot across relations: IN a room, HOLD by
an agent, CONTAINed, or AT the goal all describe where one entity is, so
asserting any of them displaces the others for that entity.  A fact of any
other relation is its own slot.  Holdings are additionally bounded: at
most ``MAX_HANDS`` held items per agent, at most one of them a container.

The store has two writers, and both apply the rules' check and the hand
bound to every fact they store, so every partition holds only facts the
rules admit, and their readers (the planner's slot reads, the belief
updates) trust the sorts they read.  :meth:`BeliefWorld.assert_fact`
stores one fact and raises :class:`RuleViolation` for a fact it refuses:
the visual update writes through it, and a refused observation is a bug.
:func:`ingest_facts` folds one batch of reported facts, which come from
outside (a teammate's message or a remote model's reply).  It judges
each fact once, skips what the rules do not admit, stores locations
before holdings, and owns the overflow rule: a fresh holding report
displaces the holder's older holdings, and a report that still breaks
the bound is dropped with a warning.

A partition changes only through these two writers and
:meth:`BeliefWorld.retract_location`; each drops the partition's cached
sorted text (:meth:`BeliefWorld.lines`), which every prompt and the
snapshot read.  Facts and the terms in slot keys are
:class:`~beliefworld.sbl.Interned`: each value has one shared instance
whose hash and text were computed once, so a slot lookup hashes no field
and meets the stored fact by identity, and sorting by ``str`` renders
nothing; equality stays by value.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from . import sbl
from .scenario import AGENT, CONTAINER, MAX_HANDS, STATE, EntityRegistry, kind_pairs
from .sbl import AgentName, AtomicBelief, BeliefExpr, ObjectRef, StateAtom

log = logging.getLogger(__name__)

# A partition: slot -> the one fact occupying it.
Partition = dict[object, AtomicBelief]


class RuleViolation(ValueError):
    """Raised when the rules do not admit a fact (no rule of its order
    states its relation, or none admits its kinds) or it breaks a bound."""

    def __init__(self, message: str, fact: AtomicBelief):
        super().__init__(f"{message}: {fact}")


class UnknownCollaborator(KeyError):
    pass


# The functional slots: an agent's position, a room's exploration level,
# and an entity's location (shared by IN, HOLD, CONTAIN and AT).
def position_slot(agent: AgentName) -> tuple[str, sbl.Term]:
    return ("AT", agent)


def explored_slot(room: ObjectRef) -> tuple[str, sbl.Term]:
    return ("EXPLORED", room)


def location_slot(entity: sbl.Term) -> tuple[str, sbl.Term]:
    return ("LOC", entity)


def slot(fact: AtomicBelief) -> object:
    """The partition key of a fact: the functional slot it occupies, or
    the fact itself for non-functional facts.

    Facts sharing a slot within one partition are mutually exclusive and
    the newest assertion wins.
    """
    if fact.relation == "EXPLORED":
        return explored_slot(fact.subject)
    if fact.relation == "AT" and isinstance(fact.subject, AgentName):
        return position_slot(fact.subject)
    if fact.relation in ("IN", "AT"):
        return location_slot(fact.subject)
    if fact.relation in ("HOLD", "CONTAIN"):
        return location_slot(fact.object)
    return fact


def held_by(partition: Partition, holder: sbl.Term) -> list[sbl.Term]:
    """What ``holder`` holds in one partition, in partition order."""
    return [f.object for f in partition.values() if f.relation == "HOLD" and f.subject == holder]


@dataclass
class BeliefWorld:
    owner: str
    rules: tuple[BeliefExpr, ...]
    collaborators: tuple[str, ...]
    registry: EntityRegistry
    partitions: dict[str | None, Partition] = field(init=False)  # about -> partition

    def __post_init__(self):
        self.partitions = {about: {} for about in (None, *self.collaborators)}
        # The sorted rule strings (the rules never change), and lines() per partition.
        self.rule_lines = tuple(sorted(map(str, self.rules)))
        self._lines: dict[str | None, tuple[str, ...]] = {}
        # (belief order, relation) -> the kind pairs the rules admit.
        self._pairs = kind_pairs(self.rules)

    # -- partitions ---------------------------------------------------

    def partition(self, about: str | None = None) -> Partition:
        """The zero partition, or the first-order one about a collaborator."""
        try:
            return self.partitions[about]
        except KeyError:
            raise UnknownCollaborator(about) from None

    def believers(self, about: str | None = None) -> tuple[str, ...]:
        """Who believes a partition's facts: the owner, then ``about``."""
        return (self.owner,) if about is None else (self.owner, about)

    def facts(self, about: str | None = None) -> list[AtomicBelief]:
        """Partition contents in canonical order."""
        return sorted(self.partition(about).values(), key=str)

    def lines(self, about: str | None = None) -> tuple[str, ...]:
        """``str`` of each fact, in :meth:`facts` order; cached until the partition changes."""
        text = self._lines.get(about)
        if text is None:
            text = self._lines[about] = tuple(sorted(map(str, self.partition(about).values())))
        return text

    # -- the rules' check and the hand bound ---------------------------

    def _overflow(self, fact: AtomicBelief, partition: Partition) -> str | None:
        """Why storing a HOLD fact in ``partition`` would break the hand
        bound (a third held item, or a second held container), or None."""
        if fact.relation != "HOLD":
            return None
        held = [t for t in held_by(partition, fact.subject) if t != fact.object]
        if len(held) >= MAX_HANDS:
            return f"{fact.subject} already holds {MAX_HANDS} items"
        if self._kind(fact.object) == CONTAINER and any(self._kind(t) == CONTAINER for t in held):
            return f"{fact.subject} already holds a container"
        return None

    def _kind(self, term: sbl.Term) -> str | None:
        if isinstance(term, ObjectRef):
            return self.registry.kind_of(term.id)
        if isinstance(term, AgentName):
            return AGENT if term.name == self.owner or term.name in self.collaborators else None
        return STATE if isinstance(term, StateAtom) else None

    def admits(self, fact: AtomicBelief, about: str | None = None) -> bool:
        """Whether a fact may enter the partition about ``about``: the
        rules of that belief order admit its subject's and object's kinds
        for its relation (:func:`~beliefworld.scenario.kind_pairs`)."""
        kinds = (self._kind(fact.subject), self._kind(fact.object))
        return kinds in self._pairs.get((0 if about is None else 1, fact.relation), ())

    # -- operations ----------------------------------------------------

    def assert_fact(self, fact: AtomicBelief, *, about: str | None = None) -> None:
        """Insert one fact, displacing whatever occupied its slot: the
        gate for a single fact, whose refusal is the caller's bug.

        ``about=None`` targets the zero partition, a collaborator name its
        first-order partition.  Re-asserting an identical fact is a no-op
        that skips every check (the stored fact passed them, and the
        rules and the registry never change), so an unknown ``about``
        raises :class:`UnknownCollaborator` before any
        :class:`RuleViolation` for a fact the rules do not admit
        (:meth:`admits`: no rule of its order states its relation, or its
        terms are not ground or of the wrong kinds), or one that would
        break the hand bound (:meth:`_overflow`).  Nothing is displaced to
        make room; a batch of reported facts goes through
        :func:`ingest_facts`, which does.  Storing a fact drops the cached
        :meth:`lines`.
        """
        partition = self.partition(about)
        key = slot(fact)
        if partition.get(key) == fact:
            return
        if not self.admits(fact, about):
            if (0 if about is None else 1, fact.relation) in self._pairs:
                raise RuleViolation("only ground, well-sorted facts can be stored", fact)
            raise RuleViolation("fact conforms to no consensus rule", fact)
        if reason := self._overflow(fact, partition):
            raise RuleViolation(reason, fact)
        partition[key] = fact
        self._lines.pop(about, None)

    def retract_location(self, entity: ObjectRef, *, about: str | None = None) -> None:
        """Forget where an entity is (its location became unknown)."""
        if self.partition(about).pop(location_slot(entity), None) is not None:
            self._lines.pop(about, None)

    def clear_holdings(self, holder: AgentName, keep, *, about: str | None = None) -> None:
        """Forget where each thing ``holder`` is believed to hold is, in
        partition order, except the references in ``keep``."""
        for ref in held_by(self.partition(about), holder):
            if ref not in keep:
                self.retract_location(ref, about=about)

    def holds(self, fact: AtomicBelief, *, about: str | None = None) -> bool:
        return self.partition(about).get(slot(fact)) == fact

    def misalignment(self, collaborator: str) -> tuple[AtomicBelief, ...]:
        """Everything the owner knows that its model of ``collaborator``
        does not: facts in zero that are absent from (or, for functional
        facts, displaced by a different value in) the first-order set.
        """
        zero, theirs = self.partition(), self.partition(collaborator)
        # Identity first: a fact both partitions hold is usually one instance.
        missing = (f for key, f in zero.items() if (g := theirs.get(key)) is not f and g != f)
        return tuple(sorted(missing, key=str))

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> str:
        """Canonical line-per-fact dump, sorted; stable across runs."""
        lines = [f"world: {self.owner}"]
        lines += [f"collaborator: {c}" for c in sorted(self.collaborators)]
        lines += [f"rule: {r}" for r in self.rule_lines]
        lines += [f"zero: {f}" for f in self.lines()]
        for c in sorted(self.collaborators):
            lines += [f"first[{c}]: {f}" for f in self.lines(c)]
        return "\n".join(lines) + "\n"


def ingest_facts(
    world: BeliefWorld,
    facts: list[AtomicBelief] | tuple[AtomicBelief, ...],
    about: str | None,
) -> None:
    """Fold one coherent batch of reported facts into a partition.

    A reported fact comes from outside the store (a teammate's message or
    a remote model's reply), so each one is judged once
    (:meth:`BeliefWorld.admits`) and a fact the rules do not admit is
    skipped.  Location facts land before holdings so that delivered or
    contained items release hands first.  A holding report that would
    overflow the holder's hands displaces the holder's believed holdings
    that the batch does not report (newest wins: the report is fresher
    than whatever went unmentioned); a fact that still overflows is
    dropped with a warning.  An unknown ``about`` raises
    :class:`UnknownCollaborator`.
    """
    partition = world.partition(about)
    admitted = [f for f in facts if world.admits(f, about)]
    for fact in sorted(admitted, key=lambda f: (f.relation == "HOLD", str(f))):
        key = slot(fact)
        if partition.get(key) == fact:
            continue
        if world._overflow(fact, partition):
            fresh = {f.object for f in admitted if f.relation == "HOLD" and f.subject == fact.subject}
            world.clear_holdings(fact.subject, keep=fresh, about=about)
            if reason := world._overflow(fact, partition):
                log.warning("dropping a reported fact: %s: %s", reason, fact)
                continue
        partition[key] = fact
        world._lines.pop(about, None)
