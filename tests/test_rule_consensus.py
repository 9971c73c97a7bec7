"""Propose-and-revise consensus: canonical output, review checks, loop."""

import pytest

from beliefworld import sbl
from beliefworld.prompts import ReasonerRequest
from beliefworld.reasoner import ScriptedReasoner
from beliefworld.rule_consensus import (
    CANONICAL_FIRST_RULES,
    CANONICAL_ZERO_RULES,
    ConsensusFailure,
    RuleProposal,
    canonical_rules,
    checklist_review,
    consensus_loop,
    propose_rules,
    review_rules,
)

TASK = "Transport ten food items to the bed with two containers."


@pytest.fixture
def scripted():
    return ScriptedReasoner()


def proposal_without(relation: str) -> RuleProposal:
    zero = tuple(sbl.parse(l) for l in CANONICAL_ZERO_RULES if f" {relation} " not in l)
    first = tuple(sbl.parse(l) for l in CANONICAL_FIRST_RULES if f" {relation} " not in l)
    return RuleProposal(reasoning="trimmed", zero_rules=zero, first_rules=first)


def test_scripted_proposal_is_canonical(scripted):
    proposal = propose_rules(scripted, TASK)
    assert [str(r) for r in proposal.zero_rules] == list(CANONICAL_ZERO_RULES)
    assert [str(r) for r in proposal.first_rules] == list(CANONICAL_FIRST_RULES)


def test_scripted_proposal_ignores_task_text(scripted):
    assert propose_rules(scripted, "") == propose_rules(scripted, TASK)


def test_review_accepts_canonical(scripted):
    proposal = propose_rules(scripted, TASK)
    review = review_rules(scripted, proposal, TASK)
    assert review.satisfied


def test_review_flags_missing_position_rule(scripted):
    review = review_rules(scripted, proposal_without("AT"), TASK)
    assert not review.satisfied
    assert "position" in review.suggestions


def test_review_flags_duplicates():
    text = (
        "Zero order belief rules:\n"
        "?agent BELIEVE ?object IN ?room\n"
        "?agent BELIEVE ?object IN ?room\n"
    )
    verdict = checklist_review(text)
    assert any("duplicate" in p for p in verdict.problems)
    assert any("deletion" in p for p in verdict.problems)


def test_review_flags_unparseable_rule():
    verdict = checklist_review("?agent BELIEVE in the mission\n")
    assert any("unparseable" in p for p in verdict.problems)


def test_proposal_keeps_duplicates_for_review_but_dedupes_output():
    rule = sbl.parse(CANONICAL_ZERO_RULES[0])
    proposal = RuleProposal(reasoning="", zero_rules=(rule, rule), first_rules=())
    assert proposal.all_rules() == (rule,)
    verdict = checklist_review(proposal.render())
    assert any("duplicate" in p for p in verdict.problems)


def test_consensus_scripted_one_round(scripted):
    result = consensus_loop(scripted, scripted, TASK, max_rounds=3)
    assert result.rounds == 1
    assert [str(r) for r in result.rules] == list(CANONICAL_ZERO_RULES + CANONICAL_FIRST_RULES)
    assert len({str(r) for r in result.rules}) == 16
    assert all(r.order in (0, 1) for r in result.rules)


def test_consensus_matches_canonical_rules_helper(scripted):
    result = consensus_loop(scripted, scripted, TASK)
    assert result.rules == canonical_rules()


class RejectingReviewer:
    """Reviewer double that is never satisfied."""

    fallback_count = 0

    def complete(self, request: ReasonerRequest):
        from beliefworld.prompts import ReasonerResponse

        assert request.template_id == "rules_review"
        text = "Reasoning: no\nSuggestions: start over\nSatisfied: no\n"
        return ReasonerResponse(
            sections={"Reasoning": "no", "Suggestions": "start over", "Satisfied": "no"},
            raw=text,
            backend="scripted",
        )


def test_consensus_exhausts_rounds(scripted):
    with pytest.raises(ConsensusFailure) as err:
        consensus_loop(scripted, RejectingReviewer(), TASK, max_rounds=2)
    assert err.value.review is not None
    assert not err.value.review.satisfied


class FaultyThenFixedProposer:
    """Proposer double: first a duplicated rule set, then the canonical."""

    def __init__(self):
        self.inner = ScriptedReasoner()
        self.calls = 0

    fallback_count = 0

    def complete(self, request: ReasonerRequest):
        from beliefworld.prompts import ReasonerResponse, parse_sections, template

        self.calls += 1
        if request.template_id == "rules_propose":
            dup = CANONICAL_ZERO_RULES[0]
            text = (
                "Entity and predicate reasoning: entities and relations.\n"
                "Zero order belief rules:\n"
                + "\n".join(CANONICAL_ZERO_RULES) + f"\n{dup}\n"
                "First order belief rules:\n"
                + "\n".join(CANONICAL_FIRST_RULES) + "\n"
            )
            return ReasonerResponse(
                sections=parse_sections(template("rules_propose"), text),
                raw=text,
                backend="scripted",
            )
        return self.inner.complete(request)


def test_consensus_duplicate_then_fixed_accepted_round_two(scripted):
    proposer = FaultyThenFixedProposer()
    result = consensus_loop(proposer, scripted, TASK, max_rounds=3)
    assert result.rounds == 2
    assert result.rules == canonical_rules()


def test_consensus_failure_on_unparseable_proposer(food_registry):
    class Garbage:
        fallback_count = 0

        def complete(self, request):
            from beliefworld.prompts import ReasonerResponse

            return ReasonerResponse(
                sections={
                    "Entity and predicate reasoning": "",
                    "Zero order belief rules": "?agent BELIEVE broken(",
                    "First order belief rules": "",
                },
                raw="?agent BELIEVE broken(",
                backend="scripted",
            )

    with pytest.raises(ConsensusFailure, match="did not parse"):
        propose_rules(Garbage(), TASK)


def test_max_rounds_validation(scripted):
    with pytest.raises(ValueError):
        consensus_loop(scripted, scripted, TASK, max_rounds=0)
