"""Belief revision: what an agent sees and hears, folded into its beliefs.

The perceive step of a decision tick has two parts.  The agent folds its
visual observation into its zero partition (:func:`update_from_visual`),
then its inbox into both belief orders (:func:`update_from_messages`).
Both keep each fact once.  An observation names entities by reference
alone (the registry knows their kinds).  The inbox update folds one
tick's inbox as one batch per belief partition (:func:`inbox_batches`):
all of it for the zero partition, then each sender's own lines, each
with the remote model's reply to that partition's update request, if
any.  A reply's belief lines, read with :func:`sbl.belief_lines` like
any statement line, are kept only under the partition's believer chain
(:meth:`BeliefWorld.believers`).  Without a usable reply the structured
message grammar (:func:`compose_message`, :func:`parse_message`) is read
directly, and every batch of heard facts goes through
:func:`ingest_facts`.  The owner's own broadcast is folded by
:func:`note_sent`.  A fact read from any of these texts is kept only when
the agent could know it (:func:`_knowable`): a remote model or a
teammate may name an entity the scenario does not have.

Every function here is a fold over the evidence it is handed: none takes
a callable or sends a request.  ``AgentMind`` builds and sends every
engine prompt, the inbox update's included, so this module asks no
reasoner, runs no simulator and logs no episode.  The readers of a
remote model's plan answers (:func:`plan_reply`, :func:`safe_plan`) sit
here too, beside the reader of a declared plan.
"""

from __future__ import annotations

import functools
import itertools
import logging
import re

from . import belief_store, prompts, sbl
from .actions import MAX_MESSAGE_CHARS, NO_ANSWER, Plan, parse_plan, plan_text
from .belief_store import BeliefWorld
from .planner import PlannerView, names_target
from .scenario import BED, CONTAINER, TARGET, EntityRegistry
from .sbl import AgentName, AtomicBelief, ObjectRef, ParseError, StateAtom, parse, parse_atomic
from .world_sim import ALL, VisualObservation

log = logging.getLogger(__name__)


class CorruptObservation(ValueError):
    """An observation referenced entities outside the scenario registry."""


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
        if names_target(fact, registry):
            return 0
        if fact.relation == "EXPLORED":
            return 1
        return 2

    def render(kept: list[AtomicBelief]) -> str:
        parts = ["FACTS:"]
        if kept:
            parts.append("; ".join(str(f) for f in kept))
        parts.extend(["|", "PLAN:", plan_text(plan)])
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


@functools.lru_cache(maxsize=64)
def parse_message(text: str) -> tuple[tuple[AtomicBelief, ...], Plan | None]:
    """Parse the structured message grammar; raises ParseError otherwise.

    Every recipient of a broadcast parses the same text, and so does its
    sender, so results are memoized; they are immutable to be shared.
    """
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
    try:
        plan = parse_plan(m.group("plan"))
    except ValueError as exc:  # Plan rejects too many steps with a plain ValueError
        raise ParseError(str(exc), 0) from exc
    return tuple(facts), plan


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
    contradicted by such an observation are forgotten.  An entity the
    registry does not know, anywhere in the observation, raises
    :class:`CorruptObservation` before any belief changes.
    """
    owner = AgentName(world.owner)
    refs = itertools.chain(
        obs.items, obs.hands, obs.at_bed, *(hands for _, hands in obs.colocated), *obs.contents
    )
    for ref in refs:
        if not registry.knows(ref.id):
            raise CorruptObservation(f"unknown entity {ref} in observation")
    if not registry.is_room(obs.room.id):
        raise CorruptObservation(f"unknown room {obs.room} in observation")

    world.assert_fact(AtomicBelief(owner, "AT", obs.room))

    current = PlannerView(world.owner, registry, world.partition()).explored_level(obs.room.id)
    if sbl.EXPLORED_STATES.index(obs.exploration) >= sbl.EXPLORED_STATES.index(current):
        world.assert_fact(AtomicBelief(obs.room, "EXPLORED", StateAtom(obs.exploration)))

    for ref in obs.items:
        world.assert_fact(AtomicBelief(ref, "IN", obs.room))

    if obs.exploration == ALL:
        # By reference, as in sync_hands: a location believed under another
        # name for a seen id is stale too.
        visible = set(obs.items)
        stale = [
            f.subject
            for f in world.partition().values()
            if f.relation == "IN"
            and f.object == obs.room
            and isinstance(f.subject, ObjectRef)
            and f.subject not in visible
        ]
        for ref in stale:
            world.retract_location(ref)

    def sync_hands(agent: AgentName, hands: tuple[ObjectRef, ...]) -> None:
        # By reference, not by id: a holding believed under another name
        # for a seen id is stale too, or it would overflow the hands.
        world.clear_holdings(agent, keep=hands)
        for ref in hands:
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
    world: BeliefWorld,
    facts: list[AtomicBelief] | tuple[AtomicBelief, ...],
    about: str | None,
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
                world.clear_holdings(fact.subject, keep=fresh, about=about)
            try:
                world.assert_fact(fact, about=about)
            except belief_store.RuleViolation as exc:
                log.warning("dropping non-conforming fact from message: %s", exc)


# ---------------------------------------------------------------------------
# Reading replies and messages.
# ---------------------------------------------------------------------------


def safe_plan(text: str, registry: EntityRegistry) -> Plan | None:
    """Parse a plan reply; unknown entities or bad grammar yield None."""
    try:
        plan = parse_plan(text)
    except (ParseError, ValueError):
        return None
    return _known_plan(plan, registry)


# The kinds each relation the engine reads may relate, subject to object.
# A term's kind is its registry kind, "room", "agent" (the owner or a
# collaborator) or "state"; an unknown id or agent, or a variable, has none.
_SORTS = {
    "AT": {("agent", "room"), (TARGET, BED), (CONTAINER, BED)},
    "IN": {(TARGET, "room"), (CONTAINER, "room"), (BED, "room")},
    "HOLD": {("agent", TARGET), ("agent", CONTAINER)},
    "CONTAIN": {(CONTAINER, TARGET)},
    "EXPLORED": {("room", "state")},
}


def _kind(term: sbl.Term, world: BeliefWorld, registry: EntityRegistry) -> str | None:
    if isinstance(term, ObjectRef):
        return "room" if registry.is_room(term.id) else registry.kind_of(term.id)
    if isinstance(term, AgentName):
        return "agent" if term.name in (world.owner, *world.collaborators) else None
    return "state" if isinstance(term, StateAtom) else None


def _knowable(fact: AtomicBelief, world: BeliefWorld, registry: EntityRegistry) -> bool:
    """Whether a reported fact may enter the owner's beliefs: its terms
    have the kinds :data:`_SORTS` allows its relation.  A relation the
    table does not name needs only that every term has a kind: it is
    ground, the registry knows each object's id (by id alone, as for
    plans) and each agent is the owner or a collaborator."""
    kinds = (_kind(fact.subject, world, registry), _kind(fact.object, world, registry))
    sorts = _SORTS.get(fact.relation)
    return kinds in sorts if sorts is not None else None not in kinds


def _known_plan(plan: Plan | None, registry: EntityRegistry) -> Plan | None:
    """The plan itself when every entity it names is known, else None."""
    # Every field of a plan step is an ObjectRef.
    if plan is not None and all(
        registry.knows(ref.id) for step in plan.steps for ref in vars(step).values()
    ):
        return plan
    return None


def _reply_facts(
    resp: prompts.ReasonerResponse | None, world: BeliefWorld, about: str | None,
    registry: EntityRegistry,
) -> list[AtomicBelief] | None:
    """The facts a remote model's belief section lists for the zero
    partition, or the one about ``about``, read from the section's
    :func:`sbl.belief_lines`: a line under another believer chain than
    :meth:`BeliefWorld.believers` gives for the partition, or whose fact
    is not :func:`_knowable`, is skipped.  None when no reply arrived or
    the section is missing or holds no readable line."""
    label = "Zero order beliefs" if about is None else "First order beliefs"
    if resp is None or label not in resp.sections:
        return None
    section = resp.sections[label]
    believers = tuple(map(AgentName, world.believers(about)))
    facts = []
    for line in sbl.belief_lines(section):
        try:
            expr = parse(line)
        except ParseError:
            log.warning("skipping unparseable belief line: %r", line)
            continue
        if expr.believers != believers or not _knowable(expr.body, world, registry):
            log.warning("skipping belief line outside the partition: %r", line)
            continue
        facts.append(expr.body)
    if facts or section.strip().lower() in NO_ANSWER:
        return facts
    return None


def plan_reply(
    resp: prompts.ReasonerResponse | None, registry: EntityRegistry, heuristic
) -> Plan | None:
    """A remote model's single-plan answer ("None" means done); the
    heuristic decides when no reply arrived or the plan is bad."""
    if resp is None:
        return heuristic()
    section = resp.section("plan")
    if section.strip().lower() in NO_ANSWER:
        return None
    plan = safe_plan(section, registry)
    return plan if plan is not None else heuristic()


def _heard(
    text: str, world: BeliefWorld, registry: EntityRegistry
) -> tuple[list[AtomicBelief], Plan | None]:
    """The :func:`_knowable` facts and the known-entity plan a structured
    message carries; nothing when it does not parse."""
    try:
        facts, plan = parse_message(text)
    except ParseError:
        log.warning("ignoring unparseable message: %r", text)
        return [], None
    return [f for f in facts if _knowable(f, world, registry)], _known_plan(plan, registry)


# One tick's mail per belief partition: None (the zero partition) or a
# sender, to its ``(sender, text)`` lines.
Batches = dict[str | None, list[tuple[str, str]]]


def inbox_batches(world: BeliefWorld, inbox: list[tuple[str, str]]) -> Batches:
    """One tick's registered mail per belief partition: the zero partition
    (``None``) holds every ``(sender, text)`` line, then each sender, in
    order of first arrival, holds its own lines, in arrival order.  Mail
    from an unregistered sender is ignored with a warning; no registered
    mail gives ``{}``."""
    batches: Batches = {}
    for sender, text in inbox:
        if sender not in world.collaborators:
            log.warning("message from unregistered sender %r ignored", sender)
            continue
        batches.setdefault(None, []).append((sender, text))
        batches.setdefault(sender, []).append((sender, text))
    return batches


def update_from_messages(
    world: BeliefWorld, batches: Batches,
    replies: dict[str | None, prompts.ReasonerResponse | None], registry: EntityRegistry,
) -> dict[str, Plan]:
    """Fold one tick's inbox, split by :func:`inbox_batches`, into both
    belief orders, given the reply to each partition's update request.

    One pass per partition, in batch order: the zero partition first (the
    owner now knows what it was told), then each sender's first-order
    partition (the sender plainly knows what it said).  A pass ingests
    ``replies.get(about)``'s facts as one batch when that reply is usable;
    a missing entry means no usable reply.  Without one, the message
    grammar is read directly, message by message in arrival order:
    unparseable messages are ignored with a warning, facts that are not
    :func:`_knowable` are dropped, and plans naming unknown entities are
    not declared.
    Facts that violate the consensus rules are dropped individually.

    Returns the plans the senders declared, keyed in the order of each
    sender's first message declaring one; a sender's later declaration
    replaces its earlier one.
    """
    # A message text is parsed only when some reply is not usable.
    heard = functools.cache(lambda text: _heard(text, world, registry))
    for about, lines in batches.items():
        facts = _reply_facts(replies.get(about), world, about, registry)
        if facts is not None:
            ingest_facts(world, facts, about)
        else:
            for _, text in lines:
                ingest_facts(world, heard(text)[0], about)

    declared: dict[str, Plan] = {}
    for sender, text in batches.get(None, ()):
        plan = plan_reply(replies.get(sender), registry, lambda: heard(text)[1])
        if plan is not None:
            declared[sender] = plan
    return declared


def note_sent(
    world: BeliefWorld, text: str, misaligned: list[AtomicBelief], registry: EntityRegistry
) -> None:
    """Fold the owner's own broadcast: every collaborator is credited with
    the :func:`_knowable` facts the message carries (the owner now believes
    they know what it just said), or with ``misaligned`` when the text does
    not parse."""
    try:
        facts, _ = parse_message(text)
    except ParseError:
        facts = misaligned
    facts = [f for f in facts if _knowable(f, world, registry)]
    for collab in world.collaborators:
        ingest_facts(world, facts, collab)
