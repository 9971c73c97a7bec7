"""Pre-task rule construction: one agent proposes, another reviews.

Before an episode starts, the first two agents agree on the rule schema
every stored belief must conform to.  The proposer drafts zero- and
first-order rules from the task description, the reviewer answers with a
verdict and suggestions, and the loop repeats with refinement until the
reviewer is satisfied or the round budget, :data:`MAX_ROUNDS`, runs out.
The dialogue passes text: a proposal is the text the reviewer reads, its
reasoning and its rule lines as written (read with
:func:`sbl.belief_lines`), and a review is a verdict and its suggestions.
A None reply reads as a reply with no sections: a None proposal is an
empty one, which the reviewer judges, and a None review has no verdict.
A review without a yes/no verdict is asked for once more
(:func:`_review`) before the dialogue fails; a :class:`ConsensusFailure`
carries the last review's suggestions.

:func:`judge` is the one judge of a proposal's text, a pure function of
it that is memoized per process.  Every rule line must parse, and no rule
may be stated twice.  A rule body must be two distinct variables, whose
sorts (:func:`scenario.kind_pairs`) say exactly which facts the rule
admits.  Per belief order, the rules must admit every kind pair a
canonical rule below admits, since narrower rules would reject observed
facts, and no rule of a canonical relation may admit a pair the
canonical rules do not, since the planner trusts the kinds it reads.
The scripted reviewer and :func:`agree_rules` both ask it about the same
proposal text, so a reviewer that falls back to the scripted one rejects
during the dialogue exactly what :func:`agree_rules` would replace
afterwards.
:func:`agree_rules` runs the dialogue and puts the canonical rules in
place of a failed dialogue or of an accepted proposal the judge rejects;
the rules it returns go to every agent.

With the deterministic backend on both sides this converges in one round
to the canonical rules below, seven bodies stated for each belief order.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable
from functools import cache, lru_cache

from . import sbl
from .prompts import ReasonerRequest, yes_no
from .scenario import kind_pairs

log = logging.getLogger(__name__)

MAX_ROUNDS = 3

# Bound of the memo of judged proposal texts.
_JUDGED_LIMIT = 64

# The canonical rule bodies, stated once for each belief order.
_RULE_BODIES = (
    "?object IN ?room",
    "?bed IN ?room",
    "?agent HOLD ?object",
    "?container CONTAIN ?target",
    "?room EXPLORED ?exploration_state",
    "?agent AT ?room",
    "?object AT ?bed",
)
CANONICAL_ZERO_RULES = tuple(f"?agent BELIEVE {body}" for body in _RULE_BODIES)
CANONICAL_FIRST_RULES = tuple(f"?agentA BELIEVE ?agentB BELIEVE {body}" for body in _RULE_BODIES)

BELIEF_LANGUAGE_TEXT = (
    "A belief statement is 'X BELIEVE subject RELATION object' (zero order)"
    " or 'X BELIEVE Y BELIEVE subject RELATION object' (first order)."
    " Believers are agent names or ?variables. Concrete non-agent entities"
    " are written <name>(id); relation symbols are uppercase; attribute"
    " values such as exploration states are lowercase (none, part, all)."
    " A rule ?variable's sort is its stem: agent, room, object, target,"
    " container, bed or exploration_state."
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


@lru_cache(maxsize=_JUDGED_LIMIT)
def judge(text: str) -> tuple[tuple[sbl.BeliefExpr, ...], tuple[str, ...]]:
    """The rules a proposal's text states in its rule sections, as
    :func:`rule_sections` writes them, and what makes them unacceptable:
    empty when they are acceptable.  The reasoning above the sections may
    quote a belief; it holds no rule.

    A pure function of the text, memoized: the scripted reviewer and
    :func:`agree_rules` judge the same proposal in every episode, and the
    verdict, immutable, is shared.

    A rule line does not parse, or a rule's body is not two distinct
    variables (a ground statement is no rule), or a rule is stated more
    than once.  Or, per belief order, the rules admit less than a
    canonical rule (a narrower rule, such as one pinned to a room, would
    reject facts observed anywhere else) or, for a canonical relation,
    more than the canonical rules (``?agent AT ?object`` would let an
    agent stand at a target)."""
    rules, problems = [], []
    for line in sbl.belief_lines(text.partition("Zero order belief rules:")[2]):
        try:
            rules.append(sbl.parse(line))
        except sbl.ParseError as exc:
            problems.append(f"unparseable rule '{line}' ({exc})")
    problems += [
        f"'{r}' is no rule: its body must relate two distinct ?variables"
        for r in rules
        if not _two_variables(r.body)
    ]
    problems += [
        f"duplicate rule '{r}'; deletion advised" for r, n in Counter(rules).items() if n > 1
    ]
    agreed, canonical = kind_pairs(rules), kind_pairs(canonical_rules())
    for c in canonical_rules():
        key, pairs = _admitted(c)
        if not pairs <= agreed.get(key, set()):
            problems.append(f"no rule covers the canonical rule '{c}'")
    for r in rules:
        key, pairs = _admitted(r)
        if key in canonical and (extra := pairs - canonical[key]):
            s, o = min(extra)
            problems.append(f"'{r}' admits kinds no canonical rule does, such as {s} {key[1]} {o}")
    return tuple(rules), tuple(problems)


def _two_variables(body: sbl.AtomicBelief) -> bool:
    subject, obj = body.subject, body.object
    return isinstance(subject, sbl.Variable) and isinstance(obj, sbl.Variable) and subject != obj


def _admitted(rule: sbl.BeliefExpr) -> tuple[tuple[int, str], set[tuple[str, str]]]:
    """A rule's (belief order, relation) and the kind pairs it admits."""
    (item,) = kind_pairs((rule,)).items()
    return item


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
    reply has no verdict (a None reply has none); a rejection always names
    some suggestion."""
    for attempt in (1, 2):
        reply = reviewer.complete(ReasonerRequest("rules_review", vars))
        sections = reply.sections if reply else {}
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
        reply = proposer.complete(request)
        proposal = _proposal(reply.sections if reply else {})
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
