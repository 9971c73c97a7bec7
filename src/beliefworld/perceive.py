"""Belief revision: what an agent sees and hears, folded into its beliefs.

The perceive step of a decision tick has two parts.  The agent folds its
visual observation into its zero partition (:func:`update_from_visual`),
then its inbox into both belief orders (:func:`update_from_messages`).
Both keep each fact once.  An observation names entities by reference
alone: their kinds come from the registry the world carries
(:attr:`BeliefWorld.registry`), and the store refuses a fact that names
an unknown entity or one of the wrong kind
(:meth:`BeliefWorld.assert_fact` applies :meth:`BeliefWorld.admits`), so
an observation needs no check of its own.

A broadcast reaches every other agent, so it is a public announcement
(Plaza, "Logics of public communications", 1989): whoever hears it
believes that every other hearer heard it too.  The sender credits each
collaborator with what it said (:func:`note_sent`), and a hearer credits
each collaborator but the sender with the facts the message grammar
reads from it (:func:`update_from_messages`).  That third-party credit
deviates from the paper, whose belief updates are prompted: here no
request asks for it, although the one ``update_first`` request of a
tick carries every sender's lines.

The inbox update (:func:`update_from_messages`) reads each of the tick's
two replies once: ``update_zero``'s for the zero partition and
``update_first``'s for every sender's first-order partition.  The paper
asks about each collaborator in a prompt of its own, while here one
``update_first`` request covers every sender of the tick.  A reply's
belief lines, read with :func:`sbl.belief_lines` like any statement
line, are each parsed once and routed to the partition their believer
chain names (:func:`_reply_facts`, :meth:`BeliefWorld.believers`), and a
sender's declared plan is its ``<sender>: <plan>`` line when the tick
has several senders (:func:`_reply_plans`).  For a partition the reply
gives no usable line, the structured message grammar
(:func:`compose_message`, :func:`parse_message`) is read directly.  A
fact read from any of these texts may name an entity the scenario does
not have, or relate kinds the agreed rules do not relate: a remote model
or a teammate wrote it.  So every batch of heard facts goes to the
store's own fold, :func:`~beliefworld.belief_store.ingest_facts`, which
judges each fact once, skips what the rules do not admit and applies the
hand bound's overflow rule; nothing here catches a refusal.  A remote
reply's lines are also read against their partition's rules one by one,
so that a partition whose every line is refused reads as unanswered, and
the message grammar is read for it instead.

Every function here is a fold over the evidence it is handed: a belief
update takes the world and the evidence alone, and none takes a
callable or sends a request.  ``AgentMind`` builds and sends every
engine prompt, the inbox update's included, so this module asks no
reasoner, runs no simulator and logs no episode.  The readers of a
remote model's plan answers (:func:`plan_reply`, :func:`safe_plan`) sit
here too, beside the reader of a declared plan.
"""

from __future__ import annotations

import functools
import logging
import re

from . import prompts, sbl
from .actions import MAX_MESSAGE_CHARS, NO_ANSWER, Plan, parse_plan, plan_text
from .belief_store import BeliefWorld, ingest_facts
from .planner import PlannerView, names_target
from .scenario import SORTS, EntityRegistry
from .sbl import AgentName, AtomicBelief, ObjectRef, ParseError, StateAtom, parse, parse_atomic
from .world_sim import ALL, VisualObservation

log = logging.getLogger(__name__)


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


def update_from_visual(world: BeliefWorld, obs: VisualObservation) -> None:
    """Fold one visual observation into the zero partition.

    Purely mechanical: position, exploration level (never downgraded),
    revealed room contents, own and co-located holdings (hands are fully
    visible, so holdings no longer seen are retracted), container loads,
    and the delivered pile when standing in the goal room.  A fully
    explored room is authoritative about its contents: believed locations
    contradicted by such an observation are forgotten.  A fact the store
    does not admit (an entity the registry does not know, or one of the
    wrong kind where the observation names it) raises
    :class:`~beliefworld.belief_store.RuleViolation`; the beliefs folded
    before it stay.
    """
    owner, registry = AgentName(world.owner), world.registry
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
            if f.relation == "IN" and f.object == obs.room and f.subject not in visible
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


# ---------------------------------------------------------------------------
# Reading replies and messages.
# ---------------------------------------------------------------------------


def safe_plan(text: str, registry: EntityRegistry) -> Plan | None:
    """Parse a plan reply; bad grammar, or an entity unknown or of the
    wrong kind for its step, yields None."""
    try:
        plan = parse_plan(text)
    except (ParseError, ValueError):
        return None
    return _known_plan(plan, registry)


def _known_plan(plan: Plan | None, registry: EntityRegistry) -> Plan | None:
    """The plan itself when every entity it names is known and of the
    kind its step field needs, else None."""
    # Every field of a plan step is an ObjectRef, named by its sort.
    if plan is not None and all(
        registry.kind_of(getattr(step, name).id) in SORTS[name]
        for step in plan.steps
        for name in step.__match_args__
    ):
        return plan
    return None


def _reply_facts(
    resp: prompts.ReasonerResponse | None, world: BeliefWorld, label: str,
    partitions: tuple[str | None, ...],
) -> dict[str | None, list[AtomicBelief]]:
    """The facts a remote model's ``label`` section lists for each of
    ``partitions`` (None the zero partition, a name a first-order one).

    Each of the section's :func:`sbl.belief_lines` is parsed once and goes
    to the partition whose believer chain (:meth:`BeliefWorld.believers`)
    it names, when that partition's rules admit its fact
    (:meth:`BeliefWorld.admits`); any other line is skipped with a
    warning.  A partition no line reaches is missing from the result, as
    is every partition when no reply arrived or the section is missing;
    a section that says None gives every partition an empty list."""
    if resp is None or label not in resp.sections:
        return {}
    section = resp.sections[label]
    if section.strip().lower() in NO_ANSWER:
        return {about: [] for about in partitions}
    chains = {tuple(map(AgentName, world.believers(about))): about for about in partitions}
    facts: dict[str | None, list[AtomicBelief]] = {}
    for line in sbl.belief_lines(section):
        try:
            expr = parse(line)
        except ParseError:
            log.warning("skipping unparseable belief line: %r", line)
            continue
        # The store's fold (ingest_facts) would skip such a fact too, but a
        # partition whose every line is refused must read as unanswered
        # (missing, above), so that the message grammar is read instead.
        if expr.believers not in chains or not world.admits(expr.body, chains[expr.believers]):
            log.warning("skipping belief line outside the partition: %r", line)
            continue
        facts.setdefault(chains[expr.believers], []).append(expr.body)
    return facts


def _reply_plans(resp: prompts.ReasonerResponse | None, senders: tuple[str, ...]) -> dict[str, str]:
    """The plan text each sender declared in a remote model's ``plan``
    section: all of it for a lone sender, else each sender's first
    ``<sender>: <plan>`` line (bullet stripped).  A sender without one is
    missing from the result, as is every sender when no reply arrived."""
    if resp is None:
        return {}
    section = resp.section("plan")
    if len(senders) == 1:
        return {senders[0]: section}
    plans: dict[str, str] = {}
    for line in section.splitlines():
        name, colon, plan = line.strip().lstrip("-*").partition(":")
        if colon and name.strip() in senders:
            plans.setdefault(name.strip(), plan.strip())
    return plans


def plan_reply(text: str | None, registry: EntityRegistry, heuristic) -> Plan | None:
    """A remote model's single-plan answer ("None" means done); the
    heuristic decides when no answer arrived (``text`` is None) or the
    plan is bad."""
    if text is None:
        return heuristic()
    if text.strip().lower() in NO_ANSWER:
        return None
    plan = safe_plan(text, registry)
    return plan if plan is not None else heuristic()


def _heard(text: str, world: BeliefWorld) -> tuple[tuple[AtomicBelief, ...], Plan | None]:
    """The facts and the well-kinded plan (:func:`_known_plan`) a
    structured message carries; nothing when it does not parse."""
    try:
        facts, plan = parse_message(text)
    except ParseError:
        log.warning("ignoring unparseable message: %r", text)
        return (), None
    return facts, _known_plan(plan, world.registry)


def registered_mail(world: BeliefWorld, inbox: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """One tick's ``(sender, text)`` lines from registered senders, in
    arrival order; mail from an unregistered sender is ignored with a
    warning."""
    mail = []
    for sender, text in inbox:
        if sender in world.collaborators:
            mail.append((sender, text))
        else:
            log.warning("message from unregistered sender %r ignored", sender)
    return mail


def update_from_messages(
    world: BeliefWorld, mail: list[tuple[str, str]],
    zero_reply: prompts.ReasonerResponse | None, first_reply: prompts.ReasonerResponse | None,
) -> dict[str, Plan]:
    """Fold one tick's registered mail (:func:`registered_mail`) into both
    belief orders, given the replies to the tick's ``update_zero`` and
    ``update_first`` requests, or None where no reply arrived.

    First, the broadcast is public: each message's facts, as the message
    grammar reads them (an unparseable text has none), are ingested into
    every collaborator's partition but its sender's, in arrival order,
    then roster order.  This crediting is mechanical, a deviation from
    the paper's prompted updates: no request asks for it and no reply is
    read for it.

    Then one fold per partition: the zero partition (the owner now knows
    what it was told), then each sender's first-order partition in order
    of first arrival (the sender plainly knows what it said), so that a
    sender's own words land last in its own partition.  Each reply is read
    once (:func:`_reply_facts`): the zero partition's facts from
    ``zero_reply``, every sender's from ``first_reply``, by believer
    chain.  A partition the reply gives facts for ingests them as one
    batch; for any other, the message grammar is read directly, message
    by message in arrival order (all the mail for the zero partition, the
    sender's own for a sender's): unparseable messages are ignored with a
    warning, and plans naming unknown entities, or entities of the wrong
    kind, are not declared.  The store's fold
    (:func:`~beliefworld.belief_store.ingest_facts`) skips the facts the
    rules do not admit and applies the overflow rule.

    A sender's declared plan is its text in ``first_reply``'s ``plan``
    section (:func:`_reply_plans`); a sender without a readable one
    declares the plan its message grammar reads.  Returns the plans the
    senders declared, keyed in the order of each sender's first message
    declaring one; a sender's later declaration replaces its earlier one.
    """
    if not mail:
        return {}
    heard = functools.cache(lambda text: _heard(text, world))
    for sender, text in mail:
        for collab in world.collaborators:
            if collab != sender:
                ingest_facts(world, heard(text)[0], collab)
    senders = tuple(dict.fromkeys(sender for sender, _ in mail))
    replied = {
        **_reply_facts(zero_reply, world, "Zero order beliefs", (None,)),
        **_reply_facts(first_reply, world, "First order beliefs", senders),
    }
    for about in (None, *senders):
        if about in replied:
            ingest_facts(world, replied[about], about)
        else:
            for sender, text in mail:
                if about is None or sender == about:
                    ingest_facts(world, heard(text)[0], about)

    plans = _reply_plans(first_reply, senders)
    declared: dict[str, Plan] = {}
    for sender, text in mail:
        plan = plan_reply(plans.get(sender), world.registry, lambda: heard(text)[1])
        if plan is not None:
            declared[sender] = plan
    return declared


def note_sent(world: BeliefWorld, text: str, misaligned: list[AtomicBelief]) -> None:
    """Fold the owner's own broadcast, a public announcement: every
    collaborator is credited with the facts the message carries that the
    rules admit (the owner now believes they know what it just said), or
    with ``misaligned`` when the text does not parse.  The hearers'
    side of the same rule is :func:`update_from_messages`'s crediting."""
    try:
        facts, _ = parse_message(text)
    except ParseError:
        facts = misaligned
    for collab in world.collaborators:
        ingest_facts(world, facts, collab)
