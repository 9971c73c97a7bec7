"""Per-agent belief worlds: own facts, per-collaborator models, shared rules.

A :class:`BeliefWorld` keeps three partitions for one owning agent:

* ``zero`` — what the owner itself holds true about the world,
* ``first[c]`` — what the owner thinks collaborator ``c`` holds true,
* ``rules`` — the consensus rule set every stored fact must conform to.

Facts are bare :class:`~beliefworld.sbl.AtomicBelief` triples; the believer
chain is implicit in the partition (``owner BELIEVE ...`` for zero,
``owner BELIEVE c BELIEVE ...`` for first).  Conformance is checked against
rule bodies of the matching order: several canonical rules repeat the same
variable across the believer chain and the body, which would reject
perfectly ordinary facts such as an observed collaborator's holdings, so
chain variables do not constrain body variables here.

A partition maps each fact's :func:`slot` to the fact, so it holds at most
one fact per slot by construction and the newest assertion wins.
Exploration level is one slot per room and position one slot per agent.
The location of a thing is one slot across relations: IN a room, HOLD by
an agent, CONTAINed, or AT the goal all describe where one entity is, so
asserting any of them displaces the others for that entity.  A fact of any
other relation is its own slot.  Holdings are additionally bounded: at
most ``MAX_HANDS`` held items per agent, at most one of them a container.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from . import sbl
from .scenario import MAX_HANDS
from .sbl import AgentName, AtomicBelief, BeliefExpr, ObjectRef

log = logging.getLogger(__name__)

# A partition: slot -> the one fact occupying it.
Partition = dict[object, AtomicBelief]


class RuleViolation(ValueError):
    """Raised when a fact conforms to no consensus rule or breaks a bound."""

    def __init__(self, message: str, fact: AtomicBelief):
        super().__init__(f"{message}: {fact}")
        self.fact = fact


class UnknownCollaborator(KeyError):
    pass


class SnapshotError(ValueError):
    pass


# The functional slots: an agent's position, a room's exploration level,
# and an entity's location (shared by IN, HOLD, CONTAIN and AT).
def position_slot(agent: AgentName) -> tuple[str, sbl.Term]:
    return ("AT", agent)


def explored_slot(room: ObjectRef) -> tuple[str, sbl.Term]:
    return ("EXPLORED", room)


def location_slot(entity: sbl.Term) -> tuple[str, sbl.Term]:
    return ("LOC", entity)


def functional_key(fact: AtomicBelief) -> tuple[str, sbl.Term] | None:
    """The slot a fact occupies, or None for non-functional facts.

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
    return None


def slot(fact: AtomicBelief) -> object:
    """The partition key of a fact: its functional key, or the fact itself."""
    key = functional_key(fact)
    return fact if key is None else key


@dataclass(frozen=True)
class MisalignmentReport:
    """Facts the owner holds that its model of a collaborator lacks."""

    collaborator: str
    facts: tuple[AtomicBelief, ...]

    def __bool__(self) -> bool:
        return bool(self.facts)


@dataclass
class BeliefWorld:
    owner: str
    rules: tuple[BeliefExpr, ...]
    collaborators: tuple[str, ...]
    container_ids: frozenset[int] = frozenset()
    zero: Partition = field(default_factory=dict)
    first: dict[str, Partition] = field(default_factory=dict)

    def __post_init__(self):
        for c in self.collaborators:
            self.first.setdefault(c, {})

    # -- partitions ---------------------------------------------------

    def _partition(self, about: str | None) -> Partition:
        if about is None:
            return self.zero
        if about not in self.first:
            raise UnknownCollaborator(about)
        return self.first[about]

    def facts(self, about: str | None = None) -> list[AtomicBelief]:
        """Partition contents in canonical order."""
        return sorted(self._partition(about).values(), key=sbl.sort_key)

    # -- conformance ---------------------------------------------------

    def _conforms(self, fact: AtomicBelief, order: int) -> bool:
        for rule in self.rules:
            if rule.order == order and sbl.unify_atomic(rule.body, fact) is not None:
                return True
        return False

    def _check_bounds(self, fact: AtomicBelief, partition: Partition) -> None:
        if fact.relation != "HOLD":
            return
        holder = fact.subject
        held = [
            f for f in partition.values()
            if f.relation == "HOLD" and f.subject == holder and f.object != fact.object
        ]
        if len(held) >= MAX_HANDS:
            raise RuleViolation(f"{holder} already holds {MAX_HANDS} items", fact)
        if self._is_container(fact.object):
            if any(self._is_container(f.object) for f in held):
                raise RuleViolation(f"{holder} already holds a container", fact)

    def _is_container(self, term: sbl.Term) -> bool:
        return isinstance(term, ObjectRef) and term.id in self.container_ids

    # -- operations ----------------------------------------------------

    def assert_fact(self, fact: AtomicBelief, *, about: str | None = None) -> None:
        """Insert a ground fact, displacing whatever occupied its slot.

        ``about=None`` targets the zero partition, a collaborator name its
        first-order partition.  Re-asserting an identical fact is a no-op;
        a fact matching no consensus rule, a third held item, or a second
        held container raises :class:`RuleViolation`.
        """
        if not fact.is_ground:
            raise RuleViolation("only ground facts can be stored", fact)
        order = 0 if about is None else 1
        if not self._conforms(fact, order):
            raise RuleViolation("fact conforms to no consensus rule", fact)
        partition = self._partition(about)
        key = slot(fact)
        if partition.get(key) == fact:
            return
        self._check_bounds(fact, partition)
        partition[key] = fact

    def retract_location(self, entity: ObjectRef, *, about: str | None = None) -> None:
        """Forget where an entity is (its location became unknown)."""
        self._partition(about).pop(location_slot(entity), None)

    def holds(self, fact: AtomicBelief, *, about: str | None = None) -> bool:
        return self._partition(about).get(slot(fact)) == fact

    def misalignment(self, collaborator: str) -> MisalignmentReport:
        """Everything the owner knows that its model of ``collaborator``
        does not: facts in zero that are absent from (or, for functional
        facts, displaced by a different value in) the first-order set.
        """
        theirs = self._partition(collaborator)
        missing = sorted(
            (f for key, f in self.zero.items() if theirs.get(key) != f), key=sbl.sort_key
        )
        return MisalignmentReport(collaborator, tuple(missing))

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> str:
        """Canonical line-per-fact dump, sorted; stable across runs."""
        lines = [f"world: {self.owner}"]
        for c in sorted(self.first):
            lines.append(f"collaborator: {c}")
        for rule in sorted(self.rules, key=sbl.sort_key):
            lines.append(f"rule: {rule}")
        for fact in self.facts():
            lines.append(f"zero: {fact}")
        for c in sorted(self.first):
            for fact in self.facts(about=c):
                lines.append(f"first[{c}]: {fact}")
        return "\n".join(lines) + "\n"


def load_snapshot(text: str, container_ids: frozenset[int] = frozenset()) -> BeliefWorld:
    """Rebuild a world from :meth:`BeliefWorld.snapshot` output."""
    owner = None
    collaborators: list[str] = []
    rules: list[BeliefExpr] = []
    facts: list[tuple[str | None, AtomicBelief]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        rest = rest.strip()
        if head == "world":
            owner = rest
        elif head == "collaborator":
            collaborators.append(rest)
        elif head == "rule":
            rules.append(sbl.parse(rest))
        elif head == "zero":
            facts.append((None, sbl.parse_atomic(rest)))
        elif head.startswith("first[") and head.endswith("]"):
            facts.append((head[6:-1], sbl.parse_atomic(rest)))
        else:
            raise SnapshotError(f"unrecognized snapshot line {lineno}: {raw!r}")
    if owner is None:
        raise SnapshotError("snapshot lacks a world header line")
    world = BeliefWorld(owner, tuple(rules), tuple(collaborators), container_ids)
    for about, fact in facts:
        world.assert_fact(fact, about=about)
    return world
