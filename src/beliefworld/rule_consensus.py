"""Pre-task rule construction: one agent proposes, another reviews.

Before an episode starts, the first two agents agree on the rule schema
every stored belief must conform to.  The proposer drafts zero- and
first-order rules from the task description, the reviewer checks them for
parseability, duplicates, and coverage (agent position, holdings, room
exploration, object locations, container contents), and the loop repeats
with refinement suggestions until the reviewer is satisfied or the round
budget runs out.  A reply that does not parse into rules or a yes/no
verdict is asked for once more (:func:`_ask_twice`) before the dialogue
fails.  The accepted rules, as parsed, are broadcast to every agent.

With the deterministic backend on both sides this converges in one round
to the canonical sixteen-rule set below.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache

from . import prompts, sbl
from .prompts import ReasonerRequest

log = logging.getLogger(__name__)

CANONICAL_ZERO_RULES = (
    "?agent BELIEVE ?object IN ?room",
    "?agent BELIEVE ?bed IN ?room",
    "?agent BELIEVE ?container IN ?room",
    "?agent BELIEVE ?agent HOLD ?object",
    "?agent BELIEVE ?agent HOLD ?container",
    "?agent BELIEVE ?container CONTAIN ?object",
    "?agent BELIEVE ?room EXPLORED ?exploration_state",
    "?agent BELIEVE ?agent AT ?room",
)

CANONICAL_FIRST_RULES = (
    "?agentA BELIEVE ?agentB BELIEVE ?object IN ?room",
    "?agentA BELIEVE ?agentB BELIEVE ?bed IN ?room",
    "?agentA BELIEVE ?agentB BELIEVE ?container IN ?room",
    "?agentA BELIEVE ?agentB BELIEVE ?agent HOLD ?object",
    "?agentA BELIEVE ?agentB BELIEVE ?agent HOLD ?container",
    "?agentA BELIEVE ?agentB BELIEVE ?container CONTAIN ?object",
    "?agentA BELIEVE ?agentB BELIEVE ?room EXPLORED ?exploration_state",
    "?agentA BELIEVE ?agentB BELIEVE ?agent AT ?room",
)

# Coverage the reviewer insists on, per believer order.
COVERAGE = (
    ("AT", "the agent position rule (?agent AT ?room)"),
    ("HOLD", "a holdings rule (?agent HOLD ?object)"),
    ("EXPLORED", "the room exploration rule (?room EXPLORED ?exploration_state)"),
    ("IN", "object location rules (?object IN ?room)"),
    ("CONTAIN", "the container contents rule (?container CONTAIN ?object)"),
)

BELIEF_LANGUAGE_TEXT = (
    "A belief statement is 'X BELIEVE subject RELATION object' (zero order)"
    " or 'X BELIEVE Y BELIEVE subject RELATION object' (first order)."
    " Believers are agent names or ?variables. Concrete non-agent entities"
    " are written <name>(id); relation symbols are uppercase; attribute"
    " values such as exploration states are lowercase (none, part, all)."
    " Rules carry ?variables in entity and state positions."
)


class ConsensusFailure(RuntimeError):
    def __init__(self, message: str, review=None):
        super().__init__(message)
        self.review = review


@cache
def canonical_rules() -> tuple[sbl.BeliefExpr, ...]:
    return tuple(sbl.parse(line) for line in CANONICAL_ZERO_RULES + CANONICAL_FIRST_RULES)


@dataclass(frozen=True)
class RuleProposal:
    """One side's draft rule set.

    Deliberately lenient: duplicated or misfiled rules are kept as stated
    so the reviewer can see and reject them.  The accepted consensus
    output is deduplicated and order-partitioned in :meth:`all_rules`.
    """

    reasoning: str
    zero_rules: tuple[sbl.BeliefExpr, ...]
    first_rules: tuple[sbl.BeliefExpr, ...]

    def all_rules(self) -> tuple[sbl.BeliefExpr, ...]:
        return tuple(dict.fromkeys(self.zero_rules + self.first_rules))

    def render(self) -> str:
        return (
            f"Reasoning: {self.reasoning or 'None'}\n"
            "Zero order belief rules:\n"
            + "\n".join(str(r) for r in self.zero_rules)
            + "\nFirst order belief rules:\n"
            + "\n".join(str(r) for r in self.first_rules)
            + "\n"
        )


@dataclass(frozen=True)
class Review:
    suggestions: str
    satisfied: bool

    def __post_init__(self):
        if not self.satisfied and not self.suggestions.strip():
            object.__setattr__(self, "suggestions", "no specific suggestions given")


def _rule_lines(text: str) -> list[str]:
    lines = []
    for line in text.splitlines():
        line = line.strip().lstrip("-*").strip()
        if line and " BELIEVE " in line:
            lines.append(line)
    return lines


def checklist_review(proposal_text: str) -> tuple[str, ...]:
    """The deterministic reviewer: parse, dedupe, and coverage checks.

    Returns the problems found; empty when the proposal passes."""
    problems: list[str] = []
    rules: list[sbl.BeliefExpr] = []
    seen: set[str] = set()
    for line in _rule_lines(proposal_text):
        try:
            rule = sbl.parse(line)
        except sbl.ParseError as exc:
            problems.append(f"unparseable rule '{line}' ({exc})")
            continue
        if not rule.is_rule:
            problems.append(f"'{line}' is ground, not a rule")
            continue
        text = str(rule)
        if text in seen:
            problems.append(f"duplicate rule '{text}'; deletion advised")
            continue
        seen.add(text)
        rules.append(rule)
    if not rules:
        problems.append("no rules found")
        return tuple(problems)
    for order, label in ((0, "zero-order"), (1, "first-order")):
        present = {r.body.relation for r in rules if r.order == order}
        for relation, description in COVERAGE:
            if relation not in present:
                problems.append(f"{label} rules are missing {description}")
    return tuple(problems)


def _parse_proposal(sections: dict[str, str]) -> RuleProposal:
    def rules(label: str) -> tuple[sbl.BeliefExpr, ...]:
        return tuple(sbl.parse(line) for line in _rule_lines(sections.get(label, "")))

    reasoning = sections.get("Entity and predicate reasoning") or sections.get("Reasoning", "")
    return RuleProposal(
        reasoning, rules("Zero order belief rules"), rules("First order belief rules")
    )


def _parse_review(sections: dict[str, str]) -> Review:
    verdict = sections.get("Satisfied", "").strip().lower()
    if not verdict.startswith(("yes", "no")):
        raise ValueError("no yes/no verdict")
    return Review(sections.get("Suggestions", ""), satisfied=verdict.startswith("yes"))


def _ask_twice(reasoner, template_id: str, vars: dict[str, str], read):
    """``read`` the reply's sections; ask once more if it raises ValueError
    (an :class:`sbl.ParseError` is one)."""
    for attempt in (1, 2):
        response = reasoner.complete(ReasonerRequest(template_id, vars))
        try:
            return read(response.sections)
        except ValueError as exc:
            log.warning("%s attempt %d is unusable: %s", template_id, attempt, exc)
    raise ConsensusFailure(f"{template_id} reply did not parse after one retry")


def propose_rules(reasoner, task_description: str) -> RuleProposal:
    """Ask the proposer role for an initial rule set."""
    vars = {
        "BELIEF_LANGUAGE": BELIEF_LANGUAGE_TEXT,
        "TASK_DESCRIPTION": task_description,
    }
    return _ask_twice(reasoner, "rules_propose", vars, _parse_proposal)


def refine_rules(
    reasoner, task_description: str, previous: RuleProposal, suggestions: str
) -> RuleProposal:
    vars = {
        "BELIEF_LANGUAGE": BELIEF_LANGUAGE_TEXT,
        "TASK_DESCRIPTION": task_description,
        "PREVIOUS_CONTENT": previous.render(),
        "SUGGESTIONS": suggestions,
    }
    return _ask_twice(reasoner, "rules_refine", vars, _parse_proposal)


def review_rules(reasoner, proposal: RuleProposal, task_description: str) -> Review:
    """Ask the reviewer role for a verdict on a proposal."""
    vars = {
        "BELIEF_LANGUAGE": BELIEF_LANGUAGE_TEXT,
        "TASK_DESCRIPTION": task_description,
        "ALICE_CONTENT": proposal.render(),
    }
    return _ask_twice(reasoner, "rules_review", vars, _parse_review)


@dataclass(frozen=True)
class ConsensusResult:
    rules: tuple[sbl.BeliefExpr, ...]
    rounds: int


def consensus_loop(
    proposer, reviewer, task_description: str, max_rounds: int = 3
) -> ConsensusResult:
    """Propose, review, and refine until the reviewer accepts.

    Raises :class:`ConsensusFailure` carrying the last review when no
    acceptance happens within ``max_rounds`` rounds (one proposer call and
    one reviewer call each, each asked once more when its reply is
    unusable).
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    proposal: RuleProposal | None = None
    review: Review | None = None
    for round_number in range(1, max_rounds + 1):
        if proposal is None or review is None:
            proposal = propose_rules(proposer, task_description)
        else:
            proposal = refine_rules(proposer, task_description, proposal, review.suggestions)
        review = review_rules(reviewer, proposal, task_description)
        if review.satisfied:
            return ConsensusResult(rules=proposal.all_rules(), rounds=round_number)
    raise ConsensusFailure(f"no accepted proposal within {max_rounds} rounds", review)
