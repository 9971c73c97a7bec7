"""Pre-task rule construction: one agent proposes, another reviews.

Before an episode starts, the first two agents agree on the rule schema
every stored belief must conform to.  The proposer drafts zero- and
first-order rules from the task description, the reviewer answers with a
verdict and suggestions, and the loop repeats with refinement until the
reviewer is satisfied or the round budget, :data:`MAX_ROUNDS`, runs out.
A proposal keeps its rule lines as text, as written; a review without a
yes/no verdict is asked for once more (:func:`_review`) before the
dialogue fails.

:func:`judge` is the one judge of a proposal's text: every rule line must
parse, no rule may be ground or stated twice, and every canonical rule
below must be unified with by some rule of its order, since a narrower
rule would reject observed facts.  The scripted reviewer and
:func:`agree_rules` both ask it about the same rendered proposal, so a
reviewer that falls back to the scripted one rejects during the dialogue
exactly what :func:`agree_rules` would replace afterwards.
:func:`agree_rules` runs the dialogue and puts the canonical rules in
place of a failed dialogue or of an accepted proposal the judge rejects;
the rules it returns go to every agent.

With the deterministic backend on both sides this converges in one round
to the canonical sixteen-rule set below.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache

from . import sbl
from .prompts import ReasonerRequest, yes_no

log = logging.getLogger(__name__)

MAX_ROUNDS = 3

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
    """One side's draft rule set: its rule lines as written.

    Nothing is parsed or deduplicated here, so the reviewer sees, and can
    reject, duplicated, misfiled and unparseable rules alike.
    """

    reasoning: str
    zero_rules: tuple[str, ...]
    first_rules: tuple[str, ...]

    def render(self) -> str:
        return f"Reasoning: {self.reasoning or 'None'}\n" + rule_sections(
            self.zero_rules, self.first_rules
        )


def rule_sections(
    zero_rules: Iterable = CANONICAL_ZERO_RULES, first_rules: Iterable = CANONICAL_FIRST_RULES
) -> str:
    """The two rule sections of a proposal, one rule line a line; by
    default the canonical rules, as the scripted proposer states them."""
    return (
        "Zero order belief rules:\n" + "\n".join(zero_rules)
        + "\nFirst order belief rules:\n" + "\n".join(first_rules) + "\n"
    )


@dataclass(frozen=True)
class Review:
    suggestions: str
    satisfied: bool

    def __post_init__(self):
        if not self.satisfied and not self.suggestions.strip():
            object.__setattr__(self, "suggestions", "no specific suggestions given")


def _rule_lines(text: str) -> list[str]:
    stripped = (line.strip().lstrip("-*").strip() for line in text.splitlines())
    return [line for line in stripped if " BELIEVE " in line]


def judge(text: str) -> tuple[tuple[sbl.BeliefExpr, ...], tuple[str, ...]]:
    """The rules a proposal's text states in its rule sections, as
    :func:`rule_sections` writes them, and what makes them unacceptable:
    empty when they are acceptable.  The reasoning above the sections may
    quote a belief; it holds no rule.

    A rule line does not parse, or a rule is ground, or stated more than
    once, or a canonical rule is unified with by no rule of its order (a
    narrower rule, such as one pinned to a room, would reject facts
    observed anywhere else)."""
    rules, problems = [], []
    for line in _rule_lines(text.partition("Zero order belief rules:")[2]):
        try:
            rules.append(sbl.parse(line))
        except sbl.ParseError as exc:
            problems.append(f"unparseable rule '{line}' ({exc})")
    problems += [f"'{r}' is ground, not a rule" for r in rules if not r.is_rule]
    problems += [
        f"duplicate rule '{r}'; deletion advised" for r, n in Counter(rules).items() if n > 1
    ]
    problems += [
        f"no rule covers the canonical rule '{c}'"
        for c in canonical_rules()
        if not any(r.order == c.order and sbl.unify_atomic(r.body, c.body) is not None
                   for r in rules)
    ]
    return tuple(rules), tuple(problems)


def _parse_proposal(sections: dict[str, str]) -> RuleProposal:
    def rules(label: str) -> tuple[str, ...]:
        return tuple(_rule_lines(sections.get(label, "")))

    reasoning = sections.get("Entity and predicate reasoning") or sections.get("Reasoning", "")
    return RuleProposal(
        reasoning, rules("Zero order belief rules"), rules("First order belief rules")
    )


def _parse_review(sections: dict[str, str]) -> Review:
    satisfied = yes_no(sections.get("Satisfied", ""))
    if satisfied is None:
        raise ValueError("no yes/no verdict")
    return Review(sections.get("Suggestions", ""), satisfied=satisfied)


def _review(reviewer, vars: dict[str, str]) -> Review:
    """The reviewer's verdict, asked for once more when a reply has none."""
    for attempt in (1, 2):
        response = reviewer.complete(ReasonerRequest("rules_review", vars))
        try:
            return _parse_review(response.sections)
        except ValueError as exc:
            log.warning("rules_review attempt %d is unusable: %s", attempt, exc)
    raise ConsensusFailure("rules_review reply did not parse after one retry")


def consensus_loop(
    proposer, reviewer, task_description: str, max_rounds: int = MAX_ROUNDS
) -> tuple[RuleProposal, int]:
    """Propose, review, and refine until the reviewer accepts; returns the
    accepted proposal and the round it was accepted in.

    Raises :class:`ConsensusFailure` carrying the last review when no
    acceptance happens within ``max_rounds`` rounds (one proposer call and
    one reviewer call each, the review asked once more when it has no
    verdict).
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    task = {"BELIEF_LANGUAGE": BELIEF_LANGUAGE_TEXT, "TASK_DESCRIPTION": task_description}
    request = ReasonerRequest("rules_propose", task)
    for round_number in range(1, max_rounds + 1):
        proposal = _parse_proposal(proposer.complete(request).sections)
        review = _review(reviewer, task | {"ALICE_CONTENT": proposal.render()})
        if review.satisfied:
            return proposal, round_number
        previous = {"PREVIOUS_CONTENT": proposal.render(), "SUGGESTIONS": review.suggestions}
        request = ReasonerRequest("rules_refine", task | previous)
    raise ConsensusFailure(f"no accepted proposal within {max_rounds} rounds", review)


def agree_rules(
    reasoner, task_description: str
) -> tuple[tuple[sbl.BeliefExpr, ...], int, int]:
    """The rules, the consensus rounds, and 1 when the canonical rules
    stand in, else 0.  They stand in when the dialogue fails (the rounds
    are then the whole budget) or when :func:`judge` rejects the accepted
    proposal."""
    try:
        proposal, rounds = consensus_loop(reasoner, reasoner, task_description)
    except ConsensusFailure as exc:
        log.warning("rule consensus failed (%s); using the canonical rules", exc)
        return canonical_rules(), MAX_ROUNDS, 1
    rules, problems = judge(proposal.render())
    if problems:
        log.warning("accepted rules fail review (%s); using the canonical rules",
                    "; ".join(problems))
        return canonical_rules(), rounds, 1
    return rules, rounds, 0
