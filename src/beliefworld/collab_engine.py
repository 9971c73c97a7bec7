"""The per-agent collaboration loop: perceive, plan, infer and judge, act.

Each decision tick an idle agent takes four steps.  (1) Perceive: it
folds its visual observation, then its inbox, into its belief world.
(2) Plan: it keeps, advances or replaces its own 1-3 step plan.
(3) Infer and judge: when it ends with a plan, it takes each collaborator
in turn, predicts up to three candidate plans from its first-order
beliefs alone (a plan the collaborator declared first), and checks its
own plan against them for miscoordination.  (4) Act: it either
broadcasts a message or executes the next plan step.

The rules that rank plans, step through them and flag miscoordination
are pure functions in :mod:`beliefworld.planner`; this module keeps the
agent: messages, belief updates, reading replies and :class:`AgentMind`.

Every reasoning step is a call to a pluggable backend through its
prompt template, whichever backend is plugged in; the backend answers
with a reply or with None.  The steps of the loop (predict self, predict
a collaborator, replan, next action, compose, judge) are methods of
:class:`AgentMind`, which reads its beliefs, registry and backend from
itself.  Perceiving keeps each fact once: an observation names entities
by reference alone (the registry knows their kinds), and the inbox
update is a module function that folds one tick's inbox as one batch,
one pass per belief partition: one ``update_zero`` request for all of
it, then one ``update_first`` request per sender, each reply kept once.
All of them send their request through the mind's one ask path,
``AgentMind._ask``, which sets the ``AGENT_NAME``/``OPPO_NAME`` header;
each other prompt input is written in one place too: :func:`belief_text`
for belief lines (a reply's belief lines, read with
:func:`sbl.belief_lines` like any statement line, are kept only under
the believer chain it writes), :func:`plan_text` for a plan,
``EntityRegistry.goal`` for the goal and ``actions.ACTION_LIST`` for the
step grammar.  Each mind sends a request
once per distinct input, the inbox update included: per slot, a template
and a collaborator, it keeps the last vars it sent and the outcome, and
an unchanged input gets that outcome back without a call.  A call that
fell back is not remembered, so the same input goes to the remote model
again.  A collaborator's ``predict_first`` request is sent only where
its answer can change the tick's intent: outside ``never`` mode, off
cooldown, with a plan, and until one report on the tick is heavy;
elsewhere the candidates are mechanical: :func:`plan_options` on the
first-order view, a declared plan first.  The ``adaptive`` ("is this
miscoordination heavy?") verdict is asked under the same condition, in
adaptive mode only; elsewhere the mechanical report stands, and the log
shows its ``heavy``.  A plan adopted on the tick (the agent had none, its
plan went stale, or its subplan was done) takes its first pending step
from :func:`planner.next_step` without a ``plan_next`` request, which
would read the zero-order beliefs the plan was just chosen from; a plan
carried over from an earlier tick is stepped through ``plan_next``.
This module alone decides: a remote model's answer is taken when one
arrives and parses, and whenever no reply arrives the step asks the
planner (or reads the message grammar here), straight off the
structured beliefs.
The scripted backend answers only the rule dialogue, so scripted runs
are exactly replayable.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import re
from dataclasses import dataclass, field, replace

from . import belief_store, prompts, sbl
from .actions import ACTION_LIST, MAX_MESSAGE_CHARS, Plan, PlanStep, SendMessage, parse_plan
from .belief_store import BeliefWorld
from .planner import (
    SUBPLAN_DONE,
    MiscoordReport,
    PlannerView,
    StalePlan,
    best_plan,
    detect_miscoordination,
    names_target,
    next_step,
    plan_options,
)
from .scenario import EntityRegistry
from .sbl import AgentName, AtomicBelief, ObjectRef, ParseError, StateAtom, parse, parse_atomic
from .world_sim import ALL, VisualObservation

log = logging.getLogger(__name__)

MODE_ADAPTIVE = "adaptive"
MODE_ALWAYS = "always"
MODE_NEVER = "never"

# An agent that broadcast a message stays silent for this many decision
# ticks after it.
COOLDOWN = 1

# Candidate plans predicted per collaborator; the predict_first prompt's
# answer format names them plan1..plan3.
PREDICTED_PLANS = 3

# Replies that mean "nothing": no plan, no belief lines.
_NO_ANSWER = ("", "none", "none.")


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
        for ref in belief_store.held_by(world.partition(), agent):
            if ref not in hands:
                world.retract_location(ref)
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
                for held in belief_store.held_by(world.partition(about), fact.subject):
                    if held not in fresh:
                        world.retract_location(held, about=about)
            try:
                world.assert_fact(fact, about=about)
            except belief_store.RuleViolation as exc:
                log.warning("dropping non-conforming fact from message: %s", exc)


# ---------------------------------------------------------------------------
# Reasoner-backed operations.
# ---------------------------------------------------------------------------


def _believers(world: BeliefWorld, about: str | None) -> tuple[str, ...]:
    """Who believes a partition's facts: the owner, then ``about``."""
    return (world.owner,) if about is None else (world.owner, about)


def belief_text(world: BeliefWorld, about: str | None = None) -> str:
    """The zero partition, or the one about ``about``, one ``Owner BELIEVE
    [About BELIEVE] fact`` line per fact; "None" when it is empty."""
    prefix = " BELIEVE ".join(_believers(world, about)) + " BELIEVE "
    lines = world.lines(about)
    return prefix + ("\n" + prefix).join(lines) if lines else "None"


def plan_text(plan: Plan | None) -> str:
    return str(plan) if plan is not None else "None"


def plans_text(plans: list[Plan]) -> str:
    padded = plans[:PREDICTED_PLANS] + [None] * (PREDICTED_PLANS - len(plans))
    return "\n".join(f"plan{i + 1}: {plan_text(p)}" for i, p in enumerate(padded))


def _safe_plan(text: str, registry: EntityRegistry) -> Plan | None:
    """Parse a plan reply; unknown entities or bad grammar yield None."""
    try:
        plan = parse_plan(text)
    except (ParseError, ValueError):
        return None
    return _known_plan(plan, registry)


def _known_plan(plan: Plan | None, registry: EntityRegistry) -> Plan | None:
    """The plan itself when every entity it names is known, else None."""
    # Every field of a plan step is an ObjectRef.
    if plan is not None and all(
        registry.knows(ref.id) for step in plan.steps for ref in vars(step).values()
    ):
        return plan
    return None


def _reply_facts(
    resp: prompts.ReasonerResponse | None, world: BeliefWorld, about: str | None
) -> list[AtomicBelief] | None:
    """The facts a remote model's belief section lists for the zero
    partition, or the one about ``about``, read from the section's
    :func:`sbl.belief_lines`: a line under another believer chain than
    :func:`belief_text` writes for the partition is skipped.  None when no
    reply arrived or the section is missing or holds no readable line."""
    label = "Zero order beliefs" if about is None else "First order beliefs"
    if resp is None or label not in resp.sections:
        return None
    section = resp.sections[label]
    believers = tuple(map(AgentName, _believers(world, about)))
    facts = []
    for line in sbl.belief_lines(section):
        try:
            expr = parse(line)
        except ParseError:
            log.warning("skipping unparseable belief line: %r", line)
            continue
        if expr.believers != believers or not expr.is_ground:
            log.warning("skipping belief line outside the partition: %r", line)
            continue
        facts.append(expr.body)
    if facts or section.strip().lower() in _NO_ANSWER:
        return facts
    return None


def _plan_reply(
    resp: prompts.ReasonerResponse | None, registry: EntityRegistry, heuristic
) -> Plan | None:
    """A remote model's single-plan answer ("None" means done); the
    heuristic decides when no reply arrived or the plan is bad."""
    if resp is None:
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
    ask,
    registry: EntityRegistry,
) -> dict[str, Plan]:
    """Fold one tick's inbox into both belief orders through ``ask``, the
    owner's ``AgentMind._ask``.

    The inbox is one batch, folded in one pass per partition.  The zero
    partition goes first: a single ``update_zero`` request carries every
    ``sender: text`` line in arrival order (the owner now knows what it
    was told).  Then each sender's first-order partition, in order of
    first arrival: one ``update_first`` request carries that sender's
    lines alone (the sender plainly knows what it said).  A pass ingests
    its usable remote reply as one batch.  Without one, the message
    grammar is read directly, message by message in arrival order:
    unparseable messages are ignored with a warning, facts with variables
    are dropped, and plans naming unknown entities are not declared.
    Facts that violate the consensus rules are dropped individually.
    Messages from unregistered senders are ignored with a warning.

    Returns the plans the senders declared, keyed in the order of each
    sender's first message declaring one; a sender's later declaration
    replaces its earlier one.
    """
    mail = []
    for sender, text in inbox:
        if sender not in world.first:
            log.warning("message from unregistered sender %r ignored", sender)
        else:
            mail.append((sender, text))
    if not mail:
        return {}
    senders = tuple(dict.fromkeys(sender for sender, _ in mail))
    rule = "\n".join(world.rule_lines)
    # A message text is parsed only when some reply is not usable.
    heard = functools.cache(lambda text: _heard(text, registry))
    replies = {}
    for about in (None, *senders):
        lines = [(sender, text) for sender, text in mail if about in (None, sender)]
        template, oppo = (
            ("update_zero", ", ".join(senders)) if about is None else ("update_first", about)
        )
        message = "\n".join(f"{sender}: {text}" for sender, text in lines)
        replies[about] = ask(template, oppo, MESSAGE=message, RULE=rule)
        facts = _reply_facts(replies[about], world, about)
        if facts is not None:
            ingest_facts(world, facts, about)
        else:
            for _, text in lines:
                ingest_facts(world, heard(text)[0], about)

    declared: dict[str, Plan] = {}
    for sender, text in mail:
        plan = _plan_reply(replies[sender], registry, lambda: heard(text)[1])
        if plan is not None:
            declared[sender] = plan
    return declared


# ---------------------------------------------------------------------------
# The per-agent decision loop.
# ---------------------------------------------------------------------------


@dataclass
class AgentMind:
    """Decision state for one agent: beliefs, current plan, bookkeeping.

    The caller chooses the beliefs (whose owner is the agent), registry,
    backend and mode; the plan and the tick counters start empty.
    """

    world: BeliefWorld
    registry: EntityRegistry
    reasoner: object
    mode: str = MODE_ADAPTIVE
    plan: Plan | None = field(default=None, init=False)
    plan_history: list[PlanStep] = field(default_factory=list, init=False)
    tick: int = field(default=0, init=False)
    last_comm_tick: int | None = field(default=None, init=False)
    # (template_id, oppo) -> the vars last sent from that slot and the reply.
    _last_reply: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def name(self) -> str:
        return self.world.owner

    @property
    def collaborators(self) -> tuple[str, ...]:
        return self.world.collaborators

    @property
    def default_oppo(self) -> str:
        return self.collaborators[0]

    def view(self, about: str | None = None) -> PlannerView:
        """The planner's view of the zero partition, or of the one about ``about``."""
        return PlannerView(about or self.name, self.registry, self.world.partition(about))

    def adopt(self, plan: Plan | None) -> None:
        self.plan = plan
        self.plan_history = []

    def note_done(self, action: PlanStep) -> None:
        """Harness feedback after the simulator completes a plan step."""
        if self.plan is not None and action in self.plan.steps:
            self.plan_history.append(action)

    def decide(
        self, obs: VisualObservation, inbox: list[tuple[str, str]]
    ) -> tuple[SendMessage | PlanStep | None, dict]:
        """Run one decision tick; returns (intent, log payload).

        A tick is four steps.  Perceive: fold the observation, then the
        inbox, into the beliefs.  Plan: keep, advance or replace the
        agent's own plan (:meth:`_advance`).  Infer and judge: when the
        plan step ends with a plan, predict each collaborator's candidate
        plans in turn, a plan it declared first, and judge them against
        the plan.  Act: when the mode calls for a message and the cooldown
        allows one, broadcast it (in adaptive mode after replanning around
        the collaborator that made the tick heavy), else take the next
        plan step.

        A collaborator is asked about only where the answer can change
        the intent: outside ``never`` mode, when the cooldown allows a
        message, and until one report on the tick is heavy.  Under that
        condition its ``predict_first`` request is sent, and in adaptive
        mode its ``adaptive`` verdict too.  In ``never`` mode no message
        goes out whatever they say; on a cooldown tick neither; after a
        heavy report the message, its addressee and the replan's
        ``avoid`` are settled, and every report's misaligned facts, which
        no candidate changes, are shared regardless.  In ``always`` mode
        the addressee is the first mechanically heavy collaborator, else
        :attr:`default_oppo`.  A collaborator not asked about gets the
        mechanical candidates (:func:`plan_options` on its first-order
        view) and a report whose verdict was not asked logs the
        mechanical ``heavy``, on the HTTP path too.  Likewise only a plan
        carried over from an earlier tick sends ``plan_next``; a plan
        adopted on this tick takes the planner's first pending step.

        The intent goes to the simulator as it is: a :class:`SendMessage`
        to broadcast, or the next plan step to execute.  None means the
        agent has nothing left to do and idles this frame.
        """
        self.tick += 1
        fallbacks_before = self.reasoner.fallback_count
        update_from_visual(self.world, obs, self.registry)
        declared = update_from_messages(self.world, inbox, self._ask, self.registry)

        intent: SendMessage | PlanStep | None = self._advance(declared)
        comm_allowed = self.last_comm_tick is None or self.tick - self.last_comm_tick > COOLDOWN
        candidates: dict[str, list[Plan]] = {}
        reports: list[MiscoordReport] = []
        if self.plan is not None:
            for c in self.collaborators:
                # Only here can an answer about c change the intent.
                ask = self.mode != MODE_NEVER and comm_allowed and not any(r.heavy for r in reports)
                candidates[c] = self.predict_collaborator(c, declared.get(c), ask)
                reports.append(self.judge(c, candidates[c], ask and self.mode == MODE_ADAPTIVE))
        heavy = [r for r in reports if r.heavy]
        wants_message = {
            MODE_ADAPTIVE: bool(heavy),
            MODE_ALWAYS: self.plan is not None,
            MODE_NEVER: False,
        }[self.mode]
        # The hash is of the beliefs the agent decided on, before sharing.
        beliefs = snapshot_hash(self.world)

        if wants_message and comm_allowed:
            misaligned = sorted({f for r in reports for f in r.misaligned}, key=str)
            oppo = heavy[0].collaborator if heavy else self.default_oppo
            if self.mode == MODE_ADAPTIVE:
                self.adopt(self.replan(next(iter(candidates[oppo]), None), oppo))
            text = self.compose(misaligned, oppo)
            self._note_shared(text, misaligned)
            self.last_comm_tick = self.tick
            intent = SendMessage(text)
        payload = {
            "tick": self.tick,
            "snapshot_hash": beliefs,
            "plan": str(self.plan) if self.plan is not None else None,
            "reports": [r.to_payload() for r in reports],
            "declared": {k: str(v) for k, v in declared.items()},
            "comm_allowed": comm_allowed,
            "fallbacks": self.reasoner.fallback_count - fallbacks_before,
        }
        return intent, payload

    def _advance(self, declared: dict[str, Plan]) -> PlanStep | None:
        """Adopt a plan when there is none, then resolve the next step,
        replanning through staleness and completed subplans; None when
        the goal side is exhausted.

        Only the plan carried over from an earlier tick asks for its next
        step (``plan_next``).  A plan adopted here, by ``predict_self`` or
        ``replan``, was chosen from the same zero-order beliefs a moment
        ago, so its first pending step is :func:`planner.next_step`'s.
        """
        carried = self.plan is not None
        if not carried:
            self.adopt(self.predict_self())
        for _ in range(3):
            if self.plan is None:
                break
            try:
                step = self.next_action(ask=carried)
            except StalePlan as exc:
                log.debug("%s: stale plan (%s); replanning", self.name, exc)
                oppo, avoid = next(iter(declared.items()), (self.default_oppo, None))
                self.adopt(self.replan(avoid, oppo))
            else:
                if step != SUBPLAN_DONE:
                    return step
                self.adopt(self.predict_self())
            carried = False
        return None

    # -- reasoning steps: one reasoner call per distinct input ----------

    def _ask(self, template_id: str, oppo: str, **vars: str) -> prompts.ReasonerResponse | None:
        """Send one reasoning step about teammate ``oppo``, once per
        distinct input per slot; the reply, or None: the engine decides.

        A slot is a template and a collaborator.  When the vars equal the
        ones the slot last sent, the slot's last outcome is returned and
        nothing is sent.  A call that fell back (``fallback_count`` rose)
        leaves its slot as it was, so the same input is asked again.
        """
        vars = {"AGENT_NAME": self.name, "OPPO_NAME": oppo, **vars}
        slot = (template_id, oppo)
        sent, reply = self._last_reply.get(slot, (None, None))
        if sent == vars:
            return reply
        fallbacks = self.reasoner.fallback_count
        resp = self.reasoner.complete(prompts.ReasonerRequest(template_id, vars))
        if self.reasoner.fallback_count == fallbacks:
            self._last_reply[slot] = (vars, resp)
        return resp

    def predict_self(self) -> Plan | None:
        """Best next 1-3 step plan from the zero partition; None when done."""
        resp = self._ask(
            "predict_zero", self.default_oppo,
            GOAL=self.registry.goal, ZERO_ORDER_BELIEF=belief_text(self.world),
        )
        return _plan_reply(resp, self.registry, lambda: best_plan(self.view()))

    def predict_collaborator(
        self, collab: str, declared: Plan | None = None, ask: bool = True
    ) -> list[Plan]:
        """Up to three candidate plans for a collaborator, computed from the
        first-order partition only (never from the owner's zero beliefs);
        a plan the collaborator ``declared`` heads them.

        Without ``ask`` no ``predict_first`` request is sent and its memo
        slot stays as it was: the candidates are :func:`plan_options` on
        the first-order view.
        """
        resp = self._ask(
            "predict_first", collab,
            GOAL=self.registry.goal, FIRST_ORDER_BELIEF=belief_text(self.world, collab),
        ) if ask else None
        plans = []
        if resp is not None:
            for i in range(PREDICTED_PLANS):
                plan = _safe_plan(resp.section(f"plan{i + 1}"), self.registry)
                if plan is not None:
                    plans.append(plan)
        plans = plans or plan_options(self.view(collab))
        if declared is not None:
            plans = [declared] + plans
        return plans[:PREDICTED_PLANS]

    def replan(self, avoid: Plan | None, oppo: str) -> Plan | None:
        """Like predict_self, but steering clear of ``avoid``, the plan
        projected for collaborator ``oppo``."""
        resp = self._ask(
            "replan", oppo,
            GOAL=self.registry.goal,
            OPPO_PLAN=plan_text(avoid),
            ZERO_ORDER_BELIEF=belief_text(self.world),
        )
        return _plan_reply(resp, self.registry, lambda: best_plan(self.view(), avoid))

    def next_action(self, ask: bool = True) -> PlanStep | str:
        """The first incomplete step of the current plan, or SUBPLAN_DONE.

        The mechanical completion/staleness check runs first (raising
        :class:`StalePlan` deterministically); when ``ask`` is set, a remote
        model may then pick a different legal next step.  Without ``ask`` no
        ``plan_next`` request is sent and its memo slot stays as it was:
        :meth:`_advance` unsets it for a plan adopted on this tick, whose
        first pending step is :func:`planner.next_step`'s.
        """
        assert self.plan is not None
        history = self.plan_history
        mechanical = next_step(self.view(), self.plan, history)
        if not ask:
            return mechanical
        resp = self._ask(
            "plan_next", self.default_oppo,
            GOAL=self.registry.goal,
            MY_PLAN=plan_text(self.plan),
            PREVIOUS_ACTIONS="; ".join(str(s) for s in history) if history else "None",
            ZERO_ORDER_BELIEF=belief_text(self.world),
            ACTION_LIST=ACTION_LIST,
        )
        if resp is not None:
            answer = resp.section("answer").strip()
            if answer.upper().startswith("SUBPLAN DONE"):
                return SUBPLAN_DONE
            plan_step = _safe_plan(answer, self.registry)
            if plan_step is not None and len(plan_step.steps) == 1:
                return plan_step.steps[0]
        return mechanical

    def compose(self, misaligned: list[AtomicBelief], oppo: str) -> str:
        """Draft the outgoing message through the reasoner, addressed to
        ``oppo``, the collaborator that prompted it; always <= 500 chars."""
        resp = self._ask(
            "communicate", oppo,
            MISALIGNED_INFORMATION="\n".join(str(f) for f in misaligned) or "None",
            MY_PLAN=plan_text(self.plan),
        )
        text = resp.section("Message").strip() if resp is not None else ""
        if not text:
            text = compose_message(misaligned, self.plan, self.registry)
        return text[:MAX_MESSAGE_CHARS]

    def judge(self, collab: str, candidates: list[Plan], ask: bool = True) -> MiscoordReport:
        """Pairwise miscoordination: mechanical scan; when ``ask`` is set,
        a remote model's answer whose first word is yes or no
        (:func:`prompts.yes_no`) overturns the heaviness verdict.

        :meth:`decide` sets ``ask`` only where the verdict can change the
        tick's intent; otherwise the mechanical report is returned, no
        ``adaptive`` request is sent and its memo slot stays as it was.
        """
        report = detect_miscoordination(
            self.plan, candidates, self.world.misalignment(collab), collab, self.registry
        )
        if not ask:
            return report
        resp = self._ask(
            "adaptive", collab,
            ZERO_ORDER_BELIEF=belief_text(self.world),
            MY_FIRST_ORDER_BELIEF=belief_text(self.world, collab),
            MY_PLAN=plan_text(self.plan),
            OPPO_PLANS=plans_text(candidates),
        )
        heavy = prompts.yes_no(resp.section("answer")) if resp is not None else None
        if heavy is not None:
            report = replace(report, heavy=heavy)
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
