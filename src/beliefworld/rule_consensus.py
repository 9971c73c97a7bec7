"""Pre-task rule construction: one agent proposes, another reviews.

Before an episode starts, the first two agents agree on the rule schema
every stored belief must conform to.  The proposer drafts zero- and
first-order rules from the task description, the reviewer answers with a
verdict and suggestions, and the loop repeats with refinement until the
reviewer is satisfied or the round budget, :data:`MAX_ROUNDS`, runs out.
The dialogue passes text: a proposal is the text the reviewer reads, its
reasoning and its rule lines as written (read with
:func:`sbl.belief_lines`), and a review is a verdict and its suggestions.
A review without a yes/no verdict is asked for once more
(:func:`_review`) before the dialogue fails; a :class:`ConsensusFailure`
carries the last review's suggestions.

:func:`judge` is the one judge of a proposal's text: every rule line must
parse, no rule may be ground or stated twice, and every canonical rule
below must be unified with by some rule of its order, since a narrower
rule would reject observed facts.  The scripted reviewer and
:func:`agree_rules` both ask it about the same proposal text, so a
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
from functools import cache

from . import sbl
from .prompts import ReasonerRequest, yes_no

log = logging.getLogger(__name__)

MAX_ROUNDS = 3

# The canonical rule bodies, stated once for each belief order.
_RULE_BODIES = (
    "?object IN ?room",
    "?bed IN ?room",
    "?container IN ?room",
    "?agent HOLD ?object",
    "?agent HOLD ?container",
    "?container CONTAIN ?object",
    "?room EXPLORED ?exploration_state",
    "?agent AT ?room",
)
CANONICAL_ZERO_RULES = tuple(f"?agent BELIEVE {body}" for body in _RULE_BODIES)
CANONICAL_FIRST_RULES = tuple(f"?agentA BELIEVE ?agentB BELIEVE {body}" for body in _RULE_BODIES)

BELIEF_LANGUAGE_TEXT = (
    "A belief statement is 'X BELIEVE subject RELATION object' (zero order)"
    " or 'X BELIEVE Y BELIEVE subject RELATION object' (first order)."
    " Believers are agent names or ?variables. Concrete non-agent entities"
    " are written <name>(id); relation symbols are uppercase; attribute"
    " values such as exploration states are lowercase (none, part, all)."
    " Rules carry ?variables in entity and state positions."
)


class ConsensusFailure(RuntimeError):
    def __init__(self, message: str, suggestions: str | None = None):
        super().__init__(message)
        self.suggestions = suggestions


@cache
def canonical_rules() -> tuple[sbl.BeliefExpr, ...]:
    return tuple(sbl.parse(line) for line in CANONICAL_ZERO_RULES + CANONICAL_FIRST_RULES)


def rule_sections(
    zero_rules: Iterable = CANONICAL_ZERO_RULES, first_rules: Iterable = CANONICAL_FIRST_RULES
) -> str:
    """The two rule sections of a proposal, one rule line a line; by
    default the canonical rules, as the scripted proposer states them."""
    return (
        "Zero order belief rules:\n" + "\n".join(zero_rules)
        + "\nFirst order belief rules:\n" + "\n".join(first_rules) + "\n"
    )


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
    for line in sbl.belief_lines(text.partition("Zero order belief rules:")[2]):
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


def _proposal(sections: dict[str, str]) -> str:
    """A proposal reply as the reviewer reads it: its reasoning, then its
    rule lines as written.  Nothing is parsed or deduplicated here, so the
    reviewer sees, and can reject, duplicated, misfiled and unparseable
    rules alike."""
    reasoning = sections.get("Entity and predicate reasoning") or sections.get("Reasoning", "")
    return f"Reasoning: {reasoning or 'None'}\n" + rule_sections(
        sbl.belief_lines(sections.get("Zero order belief rules", "")),
        sbl.belief_lines(sections.get("First order belief rules", "")),
    )


def _review(reviewer, vars: dict[str, str]) -> tuple[bool, str]:
    """The reviewer's verdict and suggestions, asked for once more when a
    reply has no verdict; a rejection always names some suggestion."""
    for attempt in (1, 2):
        sections = reviewer.complete(ReasonerRequest("rules_review", vars)).sections
        satisfied = yes_no(sections.get("Satisfied", ""))
        if satisfied is not None:
            suggestions = sections.get("Suggestions", "")
            if not suggestions.strip():
                suggestions = "no specific suggestions given"
            return satisfied, suggestions
        log.warning("rules_review attempt %d is unusable: no yes/no verdict", attempt)
    raise ConsensusFailure("rules_review reply did not parse after one retry")


def consensus_loop(proposer, reviewer, task_description: str) -> tuple[str, int]:
    """Propose, review, and refine until the reviewer accepts; returns the
    accepted proposal's text and the round it was accepted in.

    Raises :class:`ConsensusFailure` carrying the last review's
    suggestions when no acceptance happens within :data:`MAX_ROUNDS`
    rounds (one proposer call and one reviewer call each, the review asked
    once more when it has no verdict).
    """
    task = {"BELIEF_LANGUAGE": BELIEF_LANGUAGE_TEXT, "TASK_DESCRIPTION": task_description}
    request = ReasonerRequest("rules_propose", task)
    for round_number in range(1, MAX_ROUNDS + 1):
        proposal = _proposal(proposer.complete(request).sections)
        satisfied, suggestions = _review(reviewer, task | {"ALICE_CONTENT": proposal})
        if satisfied:
            return proposal, round_number
        previous = {"PREVIOUS_CONTENT": proposal, "SUGGESTIONS": suggestions}
        request = ReasonerRequest("rules_refine", task | previous)
    raise ConsensusFailure(f"no accepted proposal within {MAX_ROUNDS} rounds", suggestions)


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
    rules, problems = judge(proposal)
    if problems:
        log.warning("accepted rules fail review (%s); using the canonical rules",
                    "; ".join(problems))
        return canonical_rules(), rounds, 1
    return rules, rounds, 0
