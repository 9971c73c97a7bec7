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

A partition changes only through :meth:`BeliefWorld.assert_fact` and
:meth:`BeliefWorld.retract_location`; both drop the partition's cached
sorted text (:meth:`BeliefWorld.lines`), which every prompt and the
snapshot read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sbl
from .scenario import MAX_HANDS
from .sbl import AgentName, AtomicBelief, BeliefExpr, ObjectRef

# A partition: slot -> the one fact occupying it.
Partition = dict[object, AtomicBelief]


class RuleViolation(ValueError):
    """Raised when a fact conforms to no consensus rule or breaks a bound."""

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
    container_ids: frozenset[int] = frozenset()
    zero: Partition = field(default_factory=dict, init=False)
    first: dict[str, Partition] = field(default_factory=dict, init=False)

    def __post_init__(self):
        for c in self.collaborators:
            self.first[c] = {}
        # The sorted rule strings (the rules never change), and lines() per partition.
        self.rule_lines = tuple(sorted(map(str, self.rules)))
        # Rule bodies by (order, relation): unify_atomic rejects any other relation.
        self._bodies: dict[tuple[int, str], list[AtomicBelief]] = {}
        for rule in self.rules:
            self._bodies.setdefault((rule.order, rule.body.relation), []).append(rule.body)
        self._lines: dict[str | None, tuple[str, ...]] = {}

    # -- partitions ---------------------------------------------------

    def partition(self, about: str | None = None) -> Partition:
        """The zero partition, or the first-order one about a collaborator."""
        if about is None:
            return self.zero
        if about not in self.first:
            raise UnknownCollaborator(about)
        return self.first[about]

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

    # -- conformance ---------------------------------------------------

    def _conforms(self, fact: AtomicBelief, order: int) -> bool:
        return any(
            sbl.unify_atomic(body, fact) is not None
            for body in self._bodies.get((order, fact.relation), ())
        )

    def _check_bounds(self, fact: AtomicBelief, partition: Partition) -> None:
        if fact.relation != "HOLD":
            return
        holder = fact.subject
        held = [t for t in held_by(partition, holder) if t != fact.object]
        if len(held) >= MAX_HANDS:
            raise RuleViolation(f"{holder} already holds {MAX_HANDS} items", fact)
        if self._is_container(fact.object):
            if any(self._is_container(t) for t in held):
                raise RuleViolation(f"{holder} already holds a container", fact)

    def _is_container(self, term: sbl.Term) -> bool:
        return isinstance(term, ObjectRef) and term.id in self.container_ids

    # -- operations ----------------------------------------------------

    def assert_fact(self, fact: AtomicBelief, *, about: str | None = None) -> None:
        """Insert a ground fact, displacing whatever occupied its slot.

        ``about=None`` targets the zero partition, a collaborator name its
        first-order partition.  Re-asserting an identical fact is a no-op
        that skips the conformance scan (the stored fact passed it, and the
        rules never change), so an unknown ``about`` raises
        :class:`UnknownCollaborator` before any :class:`RuleViolation` for
        a fact matching no consensus rule, a third held item, or a second
        held container.  Storing a fact drops the cached :meth:`lines`.
        """
        if not fact.is_ground:
            raise RuleViolation("only ground facts can be stored", fact)
        partition = self.partition(about)
        key = slot(fact)
        if partition.get(key) == fact:
            return
        if not self._conforms(fact, 0 if about is None else 1):
            raise RuleViolation("fact conforms to no consensus rule", fact)
        self._check_bounds(fact, partition)
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
        theirs = self.partition(collaborator)
        missing = (f for key, f in self.zero.items() if theirs.get(key) != f)
        return tuple(sorted(missing, key=str))

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> str:
        """Canonical line-per-fact dump, sorted; stable across runs."""
        lines = [f"world: {self.owner}"]
        lines += [f"collaborator: {c}" for c in sorted(self.first)]
        lines += [f"rule: {r}" for r in self.rule_lines]
        lines += [f"zero: {f}" for f in self.lines()]
        for c in sorted(self.first):
            lines += [f"first[{c}]: {f}" for f in self.lines(c)]
        return "\n".join(lines) + "\n"
