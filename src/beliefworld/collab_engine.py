"""The per-agent collaboration loop: perceive, plan, infer and judge, act.

Each decision tick an idle agent takes four steps.  (1) Perceive: it
folds its visual observation, then its inbox, into its belief world.
(2) Plan: it keeps, advances or replaces its own 1-3 step plan.
(3) Infer and judge: when it ends with a plan, it takes each collaborator
in turn, predicts up to three candidate plans from its first-order
beliefs alone (a plan the collaborator declared first), and checks its
own plan against them for miscoordination.  (4) Act: it either
broadcasts a message or executes the next plan step.

Belief revision, the message grammar and the readers of a remote
model's replies are pure folds in :mod:`beliefworld.perceive`, over the
evidence and replies they are handed; the rules that rank plans, step
through them and flag miscoordination are pure functions in
:mod:`beliefworld.planner`, which read a partition through the one
:class:`PlannerView` the mind keeps for it (:meth:`AgentMind.view`).
This module keeps the agent, :class:`AgentMind`, and builds every engine
prompt it sends.

Every reasoning step is a call to a pluggable backend through its
prompt template, whichever backend is plugged in; the backend answers
with a reply or with None.  The steps of the loop (hear the inbox,
predict self, predict a collaborator, replan, next action, compose,
judge) are methods of :class:`AgentMind`, which reads its beliefs and
backend from itself, and its name, collaborators and registry from its
belief world.
All of them send their request through one path, ``AgentMind._ask``,
which fills exactly the vars its template names.  A step passes only
its own inputs: the inbox lines, the plan to steer clear of, the
candidate plans, the steps taken so far or the misaligned facts.  Every
other input is standard and is built by the one table
:data:`STANDARD_VARS` from the mind and the collaborator: the two
names, the goal (``EntityRegistry.goal``), either belief order
(:func:`belief_text`), the agent's plan (:func:`actions.plan_text`), the
agreed rule lines and the step grammar (``actions.ACTION_LIST``).  The
inbox update is batched: one ``update_zero`` and one ``update_first``
request carry the tick's whole inbox and name every sender, where the
paper sends ``update_first`` about each collaborator on its own.  The
fold reads each of the two replies once and routes every belief line to
the partition its believer chain names, and every ``<sender>: <plan>``
line to its sender (:func:`perceive.update_from_messages`).  The
template text is the paper's, so a request with one sender is what the
paper's would be; with several, the model is not told to label each
sender's plan, and a sender whose reply line is missing falls back to
its message grammar.  Each mind sends a request once per distinct
input, the inbox update included: per slot, a template and a
collaborator, it keeps the last vars it sent and the outcome, and an
unchanged input gets that outcome back without a call.  A call that fell back is not remembered, so the
same input goes to the remote model again.

The ask rule: a step is sent only where its answer can change the
tick's intent.  A collaborator is asked about outside ``never`` mode,
off cooldown, with a plan, and until one report on the tick is heavy.  In ``never`` mode no
message goes out whatever the answers say; on a cooldown tick neither;
after a heavy report the message, its addressee and the replan's
``avoid`` are settled, and every report's misaligned facts, which no
candidate changes, are shared regardless.  Under that condition the
collaborator's ``predict_first`` request is sent, and in adaptive mode
its ``adaptive`` ("is this miscoordination heavy?") verdict too.
Elsewhere the candidates are mechanical, :func:`plan_options` on the
first-order view with a declared plan first, and the report logs the
mechanical ``heavy``, on the HTTP path too.  A plan adopted on the tick
(the agent had none, its plan went stale, or its subplan was done)
takes its first pending step from :func:`planner.next_step` without a
``plan_next`` request, which would read the zero-order beliefs the plan
was just chosen from; a plan carried over from an earlier tick is
stepped through ``plan_next`` while the beliefs leave one of its steps
pending.  A carried plan the beliefs find done, like one they find
stale, is replaced without a ``plan_next`` request, and the
``predict_zero`` request that chooses the next plan asks the model what
to do next on the same beliefs.  This deviates from the paper, whose
model says when a subplan is done: here the beliefs say it first, and
the model can still end a plan early by answering SUBPLAN DONE to a
pending step.

This module alone decides: a remote model's answer is taken when one
arrives and parses, and whenever no reply arrives the step asks the
planner (or reads the message grammar), straight off the
structured beliefs.
The scripted backend answers only the rule dialogue, so scripted runs
are exactly replayable.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace

from . import prompts
from .actions import ACTION_LIST, MAX_MESSAGE_CHARS, Plan, PlanStep, SendMessage, plan_text
from .belief_store import BeliefWorld
from .perceive import (
    compose_message, note_sent, plan_reply, registered_mail, safe_plan, update_from_messages,
    update_from_visual,
)
# Unused here, but bench/layers.py wraps ``collab_engine.ingest_facts`` by
# name (and with it every module binding it: belief_store, which defines
# it, and perceive, which calls it), so the name must stay bound.
from .belief_store import ingest_facts  # noqa: F401
from .planner import (
    SUBPLAN_DONE,
    MiscoordReport,
    PlannerView,
    StalePlan,
    best_plan,
    detect_miscoordination,
    next_step,
    plan_options,
)
from .scenario import EntityRegistry
from .sbl import AtomicBelief, believer_chain
# Unused here, but bench/smoke.py checks that ``collab_engine.parse`` is
# the original ``sbl.parse`` after a traced run, so the name must stay bound.
from .sbl import parse  # noqa: F401
from .world_sim import VisualObservation

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


def belief_text(world: BeliefWorld, about: str | None = None) -> str:
    """The zero partition, or the one about ``about``, one ``Owner BELIEVE
    [About BELIEVE] fact`` line per fact; "None" when it is empty."""
    prefix = believer_chain(world.believers(about))
    lines = world.lines(about)
    return prefix + ("\n" + prefix).join(lines) if lines else "None"


# The standard prompt inputs: a var name -> its value for a mind asking
# about collaborator ``oppo``.  A request builds only the ones its
# template names.
STANDARD_VARS = {
    "AGENT_NAME": lambda mind, oppo: mind.name,
    "OPPO_NAME": lambda mind, oppo: oppo,
    "GOAL": lambda mind, oppo: mind.registry.goal,
    "ZERO_ORDER_BELIEF": lambda mind, oppo: belief_text(mind.world),
    "FIRST_ORDER_BELIEF": lambda mind, oppo: belief_text(mind.world, oppo),
    "MY_FIRST_ORDER_BELIEF": lambda mind, oppo: belief_text(mind.world, oppo),
    "MY_PLAN": lambda mind, oppo: plan_text(mind.plan),
    "RULE": lambda mind, oppo: "\n".join(mind.world.rule_lines),
    "ACTION_LIST": lambda mind, oppo: ACTION_LIST,
}


def plans_text(plans: list[Plan]) -> str:
    padded = plans[:PREDICTED_PLANS] + [None] * (PREDICTED_PLANS - len(plans))
    return "\n".join(f"plan{i + 1}: {plan_text(p)}" for i, p in enumerate(padded))


# ---------------------------------------------------------------------------
# The per-agent decision loop.
# ---------------------------------------------------------------------------


@dataclass
class AgentMind:
    """Decision state for one agent: beliefs, current plan, bookkeeping.

    The caller chooses the beliefs (whose owner is the agent and whose
    registry is the episode's), backend and mode; the plan and the tick
    counters start empty.
    """

    world: BeliefWorld
    reasoner: object
    mode: str = MODE_ADAPTIVE
    plan: Plan | None = field(default=None, init=False)
    plan_history: list[PlanStep] = field(default_factory=list, init=False)
    tick: int = field(default=0, init=False)
    last_comm_tick: int | None = field(default=None, init=False)
    # (template_id, oppo) -> the vars last sent from that slot and the reply.
    _last_reply: dict = field(default_factory=dict, init=False, repr=False)
    # about -> the planner's view of that partition (see view).
    _views: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def name(self) -> str:
        return self.world.owner

    @property
    def collaborators(self) -> tuple[str, ...]:
        return self.world.collaborators

    @property
    def registry(self) -> EntityRegistry:
        return self.world.registry

    @property
    def default_oppo(self) -> str:
        return self.collaborators[0]

    def view(self, about: str | None = None) -> PlannerView:
        """The planner's view of the zero partition, or of the one about
        ``about``; one view per partition for the life of the mind.  A
        partition is one dict that is changed in place and never replaced,
        so the view always reads its current facts."""
        view = self._views.get(about)
        if view is None:
            view = self._views[about] = PlannerView(
                about or self.name, self.registry, self.world.partition(about)
            )
        return view

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
        """Run one decision tick; returns (intent, the episode log's
        ``decision`` record, the decision taken included).

        A tick is four steps.  Perceive: fold the observation, then the
        inbox, into the beliefs.  Plan: keep, advance or replace the
        agent's own plan (:meth:`_advance`).  Infer and judge: when the
        plan step ends with a plan, predict each collaborator's candidate
        plans in turn, a plan it declared first, and judge them against
        the plan.  Act: when the mode calls for a message and the cooldown
        allows one, broadcast it (in adaptive mode after replanning around
        the collaborator that made the tick heavy), else take the next
        plan step.  Which of these steps are asked follows the module's
        ask rule.  In ``always`` mode the addressee is the first
        mechanically heavy collaborator, else :attr:`default_oppo`.

        The intent goes to the simulator as it is: a :class:`SendMessage`
        to broadcast, or the next plan step to execute.  None means the
        agent has nothing left to do and idles this frame.
        """
        self.tick += 1
        fallbacks_before = self.reasoner.fallback_count
        update_from_visual(self.world, obs)
        declared = self.hear(inbox)

        intent: SendMessage | PlanStep | None = self._advance(declared)
        decision = {"type": "idle"} if intent is None else {"type": "act", "action": str(intent)}
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
            note_sent(self.world, text, misaligned)
            self.last_comm_tick = self.tick
            intent = SendMessage(text)
            decision = {"type": "communicate", "message": text}
        payload = {
            "tick": self.tick,
            "decision": decision,
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

        Only a carried plan with a pending step is sent to ``plan_next``
        (:meth:`next_action`).  A stale or done one is replaced, through
        ``replan`` or ``predict_self``, without that request: the beliefs,
        not the model, say that the subplan is done (the module's ask rule).
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

    def _vars(self, template_id: str, oppo: str, own_vars: dict[str, str]) -> dict[str, str]:
        """The vars ``template_id`` names, in its order: the step's own
        value where it passed one, else the standard one (:data:`STANDARD_VARS`)."""
        return {
            var: own_vars[var] if var in own_vars else STANDARD_VARS[var](self, oppo)
            for var in prompts.template(template_id).required_vars
        }

    def _ask(self, template_id: str, oppo: str, **own_vars: str) -> prompts.ReasonerResponse | None:
        """Send one reasoning step about teammate ``oppo``, once per
        distinct input per slot; the reply, or None: the engine decides.

        A slot is a template and a collaborator.  When the vars equal the
        ones the slot last sent, the slot's last outcome is returned and
        nothing is sent.  A call that fell back (``fallback_count`` rose)
        leaves its slot as it was, so the same input is asked again.
        """
        vars = self._vars(template_id, oppo, own_vars)
        slot = (template_id, oppo)
        sent, reply = self._last_reply.get(slot, (None, None))
        if sent == vars:
            return reply
        fallbacks = self.reasoner.fallback_count
        resp = self.reasoner.complete(prompts.ReasonerRequest(template_id, vars))
        if self.reasoner.fallback_count == fallbacks:
            self._last_reply[slot] = (vars, resp)
        return resp

    def hear(self, inbox: list[tuple[str, str]]) -> dict[str, Plan]:
        """Fold one tick's inbox into both belief orders; returns the plans
        the senders declared (:func:`perceive.update_from_messages`).

        A tick with registered mail sends two requests, each carrying every
        ``sender: text`` line in arrival order and naming the senders, in
        order of first arrival, as one ``", "``-joined ``OPPO_NAME``:
        ``update_zero``, then ``update_first``, whose one reply holds every
        sender's first-order lines and plan (the module's batching
        deviation).  No request reads the beliefs, so both go out before
        the fold, which reads each reply once.
        """
        mail = registered_mail(self.world, inbox)
        zero = first = None
        if mail:
            oppo = ", ".join(dict.fromkeys(sender for sender, _ in mail))
            message = "\n".join(f"{sender}: {text}" for sender, text in mail)
            zero = self._ask("update_zero", oppo, MESSAGE=message)
            first = self._ask("update_first", oppo, MESSAGE=message)
        return update_from_messages(self.world, mail, zero, first)

    def predict_self(self) -> Plan | None:
        """Best next 1-3 step plan from the zero partition; None when done."""
        resp = self._ask("predict_zero", self.default_oppo)
        text = resp.section("plan") if resp is not None else None
        return plan_reply(text, self.registry, lambda: best_plan(self.view()))

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
        resp = self._ask("predict_first", collab) if ask else None
        plans = []
        if resp is not None:
            for i in range(PREDICTED_PLANS):
                plan = safe_plan(resp.section(f"plan{i + 1}"), self.registry)
                if plan is not None:
                    plans.append(plan)
        plans = plans or plan_options(self.view(collab))
        if declared is not None:
            plans = [declared] + plans
        return plans[:PREDICTED_PLANS]

    def replan(self, avoid: Plan | None, oppo: str) -> Plan | None:
        """Like predict_self, but steering clear of ``avoid``, the plan
        projected for collaborator ``oppo``."""
        resp = self._ask("replan", oppo, OPPO_PLAN=plan_text(avoid))
        text = resp.section("plan") if resp is not None else None
        return plan_reply(text, self.registry, lambda: best_plan(self.view(), avoid))

    def next_action(self, ask: bool = True) -> PlanStep | str:
        """The first incomplete step of the current plan, or SUBPLAN_DONE.

        The mechanical completion/staleness check runs first (raising
        :class:`StalePlan` deterministically); when ``ask`` is set and it
        leaves a step pending, a remote model may then pick a different
        legal next step or answer SUBPLAN DONE.  Without ``ask``, or when
        the beliefs already hold every step's effect, no ``plan_next``
        request is sent and its memo slot stays as it was.
        """
        assert self.plan is not None
        history = self.plan_history
        mechanical = next_step(self.view(), self.plan, history)
        if not ask or mechanical == SUBPLAN_DONE:
            return mechanical
        previous = "; ".join(str(s) for s in history) if history else "None"
        resp = self._ask("plan_next", self.default_oppo, PREVIOUS_ACTIONS=previous)
        if resp is not None:
            answer = resp.section("answer").strip()
            if answer.upper().startswith("SUBPLAN DONE"):
                return SUBPLAN_DONE
            plan_step = safe_plan(answer, self.registry)
            if plan_step is not None and len(plan_step.steps) == 1:
                return plan_step.steps[0]
        return mechanical

    def compose(self, misaligned: list[AtomicBelief], oppo: str) -> str:
        """Draft the outgoing message through the reasoner, addressed to
        ``oppo``, the collaborator that prompted it; always <= 500 chars."""
        facts = "\n".join(str(f) for f in misaligned) or "None"
        resp = self._ask("communicate", oppo, MISALIGNED_INFORMATION=facts)
        text = resp.section("Message").strip() if resp is not None else ""
        if not text:
            text = compose_message(misaligned, self.plan, self.registry)
        return text[:MAX_MESSAGE_CHARS]

    def judge(self, collab: str, candidates: list[Plan], ask: bool = True) -> MiscoordReport:
        """Pairwise miscoordination: mechanical scan; when ``ask`` is set,
        a remote model's answer whose first word is yes or no
        (:func:`prompts.yes_no`) overturns the heaviness verdict.

        Without ``ask`` the mechanical report is returned, no ``adaptive``
        request is sent and its memo slot stays as it was.
        """
        report = detect_miscoordination(
            self.plan, candidates, self.world.misalignment(collab), collab, self.registry
        )
        if not ask:
            return report
        resp = self._ask("adaptive", collab, OPPO_PLANS=plans_text(candidates))
        heavy = prompts.yes_no(resp.section("answer")) if resp is not None else None
        if heavy is not None:
            report = replace(report, heavy=heavy)
        return report


def snapshot_hash(world: BeliefWorld) -> str:
    return hashlib.sha256(world.snapshot().encode("utf-8")).hexdigest()[:16]
