"""Propose-and-revise consensus: canonical output, review checks, loop."""

import hashlib
import json

import pytest

from beliefworld import rule_consensus, sbl
from beliefworld.prompts import ReasonerRequest
from beliefworld.reasoner import ScriptedReasoner
from beliefworld.rule_consensus import (
    CANONICAL_FIRST_RULES,
    CANONICAL_ZERO_RULES,
    ConsensusFailure,
    _proposal,
    agree_rules,
    canonical_rules,
    consensus_loop,
    judge,
    rule_sections,
)
from test_harness import DuplicateRule, GroundRule, NarrowIn, NoPositionRules

TASK = "Transport ten food items to the bed with two containers."


@pytest.fixture
def scripted():
    return ScriptedReasoner()


def test_scripted_proposal_is_canonical(scripted):
    proposal, _ = consensus_loop(scripted, scripted, TASK)
    rules = proposal.partition("\n")[2]
    assert rules == rule_sections(CANONICAL_ZERO_RULES, CANONICAL_FIRST_RULES)


def test_scripted_proposal_ignores_task_text(scripted):
    assert consensus_loop(scripted, scripted, "") == consensus_loop(scripted, scripted, TASK)


def test_review_accepts_canonical(scripted, monkeypatch):
    canonical = rule_sections(CANONICAL_ZERO_RULES, CANONICAL_FIRST_RULES)
    assert judge(canonical) == (canonical_rules(), ())
    monkeypatch.setattr(rule_consensus, "MAX_ROUNDS", 1)
    assert consensus_loop(scripted, scripted, TASK)[1] == 1


def test_review_flags_missing_position_rule(scripted, monkeypatch):
    monkeypatch.setattr(rule_consensus, "MAX_ROUNDS", 1)
    with pytest.raises(ConsensusFailure) as err:
        consensus_loop(NoPositionRules(), scripted, TASK)
    for rule in canonical_rules():
        assert (f"'{rule}'" in err.value.suggestions) == (rule.body.relation == "AT")


def test_review_flags_duplicates():
    text = (
        "Zero order belief rules:\n"
        "?agent BELIEVE ?object IN ?room\n"
        "?agent BELIEVE ?object IN ?room\n"
    )
    _, verdict = judge(text)
    assert any("duplicate" in p for p in verdict)
    assert any("deletion" in p for p in verdict)


def test_review_flags_unparseable_rule():
    bad = "?agent BELIEVE in the mission"
    _, verdict = judge(rule_sections(CANONICAL_ZERO_RULES + (bad,), CANONICAL_FIRST_RULES))
    assert any("unparseable" in p and bad in p for p in verdict)


class QuotingProposer(ScriptedReasoner):
    """Proposes its own rules, a reordered canonical set, with reasoning
    that quotes a belief; the scripted reviewer judges them."""

    def _answer_rules_propose(self, vars):
        return (
            "Entity and predicate reasoning: each line reads like"
            " Alice BELIEVE <apple>(101) IN <kitchen>(2000)\n"
            + rule_sections(CANONICAL_ZERO_RULES[::-1], CANONICAL_FIRST_RULES[::-1])
        )


def test_agree_rules_keeps_rules_whose_reasoning_quotes_a_belief():
    rules, rounds, fell_back = agree_rules(QuotingProposer(), TASK)
    assert (rounds, fell_back) == (1, 0)
    own = CANONICAL_ZERO_RULES[::-1] + CANONICAL_FIRST_RULES[::-1]
    assert rules == tuple(sbl.parse(line) for line in own)


def test_judge_reads_a_rule_line_in_the_prompts_spaced_entity_form():
    spaced = "?agent BELIEVE <bed> (9000) IN ?room"
    rules, problems = judge(rule_sections(CANONICAL_ZERO_RULES + (spaced,), CANONICAL_FIRST_RULES))
    assert sbl.parse("?agent BELIEVE <bed>(9000) IN ?room") in rules
    assert not any("unparseable" in p for p in problems)


def test_proposal_keeps_duplicates_for_review():
    rule = CANONICAL_ZERO_RULES[0]
    proposal = _proposal({"Zero order belief rules": f"{rule}\n{rule}"})
    rules, verdict = judge(proposal)
    assert rules == (sbl.parse(rule),) * 2
    assert any("duplicate" in p for p in verdict)


def test_consensus_scripted_one_round(scripted):
    proposal, rounds = consensus_loop(scripted, scripted, TASK)
    assert rounds == 1
    rules, problems = judge(proposal)
    assert [str(r) for r in rules] == list(CANONICAL_ZERO_RULES + CANONICAL_FIRST_RULES)
    assert problems == ()


def test_consensus_matches_canonical_rules_helper(scripted):
    assert agree_rules(scripted, TASK) == (canonical_rules(), 1, 0)


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
        )


def test_consensus_exhausts_rounds(scripted, monkeypatch):
    monkeypatch.setattr(rule_consensus, "MAX_ROUNDS", 2)
    with pytest.raises(ConsensusFailure, match="within 2 rounds") as err:
        consensus_loop(scripted, RejectingReviewer(), TASK)
    assert err.value.suggestions == "start over"


class FaultyThenFixedProposer:
    """Proposer double: first the canonical rule set plus one faulty zero
    order line, then the canonical rule set; it keeps every request."""

    fallback_count = 0

    def __init__(self, faulty_line: str = CANONICAL_ZERO_RULES[0]):
        self.inner = ScriptedReasoner()
        self.faulty_line = faulty_line
        self.requests = []

    def complete(self, request: ReasonerRequest):
        from beliefworld.prompts import ReasonerResponse, parse_sections, template

        self.requests.append(request)
        if request.template_id == "rules_propose":
            text = (
                "Entity and predicate reasoning: entities and relations.\n"
                "Zero order belief rules:\n"
                + "\n".join(CANONICAL_ZERO_RULES) + f"\n{self.faulty_line}\n"
                "First order belief rules:\n"
                + "\n".join(CANONICAL_FIRST_RULES) + "\n"
            )
            return ReasonerResponse(
                sections=parse_sections(template("rules_propose"), text),
                raw=text,
            )
        return self.inner.complete(request)


def test_consensus_duplicate_then_fixed_accepted_round_two(scripted):
    proposer = FaultyThenFixedProposer()
    proposal, rounds = consensus_loop(proposer, scripted, TASK)
    assert rounds == 2
    assert judge(proposal) == (canonical_rules(), ())


def test_unparseable_rule_line_is_reviewed_and_refined(scripted):
    # The line reaches the reviewer, whose suggestions name it; the
    # refinement fixes it.
    proposer = FaultyThenFixedProposer("?agent BELIEVE broken(")
    proposal, rounds = consensus_loop(proposer, scripted, TASK)
    assert rounds == 2
    assert judge(proposal) == (canonical_rules(), ())
    refine = proposer.requests[1]
    assert refine.template_id == "rules_refine"
    assert "unparseable rule '?agent BELIEVE broken('" in refine.vars["SUGGESTIONS"]
    assert "?agent BELIEVE broken(" in refine.vars["PREVIOUS_CONTENT"]


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
            )

    with pytest.raises(ConsensusFailure, match="no accepted proposal within 3 rounds") as err:
        consensus_loop(Garbage(), ScriptedReasoner(), TASK)
    assert "unparseable rule '?agent BELIEVE broken('" in err.value.suggestions


class VerdictlessReviewer:
    """Reviewer double that gives the listed verdicts, one per call."""

    fallback_count = 0

    def __init__(self, verdicts: list[str]):
        self.verdicts = verdicts
        self.calls = 0

    def complete(self, request: ReasonerRequest):
        from beliefworld.prompts import ReasonerResponse

        assert request.template_id == "rules_review"
        verdict = self.verdicts[self.calls]
        self.calls += 1
        return ReasonerResponse(
            sections={"Reasoning": "x", "Suggestions": "None", "Satisfied": verdict},
            raw=f"Reasoning: x\nSuggestions: None\nSatisfied: {verdict}\n",
        )


def test_review_without_verdict_is_asked_again(scripted):
    reviewer = VerdictlessReviewer(["maybe", "yes, all covered"])
    proposal, rounds = consensus_loop(scripted, reviewer, TASK)
    assert (rounds, reviewer.calls) == (1, 2)
    assert judge(proposal) == (canonical_rules(), ())


def test_review_without_verdict_twice_fails(scripted):
    reviewer = VerdictlessReviewer(["maybe", ""])
    with pytest.raises(ConsensusFailure, match="did not parse"):
        consensus_loop(scripted, reviewer, TASK)
    assert reviewer.calls == 2


# (verdict, review calls, rounds): a yes accepts the first proposal, a no
# asks for a refinement reviewed in round 2, and anything else is no
# verdict, so the review is asked again.
@pytest.mark.parametrize("verdict,calls,rounds", [
    ("yes", 1, 1), ("Yes.", 1, 1), ("yes - all covered", 1, 1),
    ("no", 2, 2), ("No, start over", 2, 2),
    ("not sure", 2, 1), ("none", 2, 1), ("nothing to add", 2, 1),
])
def test_review_verdict_is_yes_or_no_as_a_word(verdict, calls, rounds, scripted):
    reviewer = VerdictlessReviewer([verdict, "yes"])
    _, accepted_in = consensus_loop(scripted, reviewer, TASK)
    assert (reviewer.calls, accepted_in) == (calls, rounds)


@pytest.mark.parametrize(
    "reasoner_cls", (NoPositionRules, NarrowIn, GroundRule, DuplicateRule)
)
def test_scripted_reviewer_and_agree_rules_reject_the_same_rules(reasoner_cls, monkeypatch):
    # Each double proposes a flawed rule set and approves it; the scripted
    # reviewer and agree_rules must both turn it down.
    _, problems = judge(reasoner_cls()._answer_rules_propose({}))
    assert problems
    rules, rounds, fell_back = agree_rules(reasoner_cls(), TASK)
    assert (rules, rounds, fell_back) == (canonical_rules(), 1, 1)
    monkeypatch.setattr(rule_consensus, "MAX_ROUNDS", 1)
    with pytest.raises(ConsensusFailure) as err:
        consensus_loop(reasoner_cls(), ScriptedReasoner(), TASK)
    assert err.value.suggestions == "; ".join(problems)


class EmptySuggestionsReviewer:
    """Reviewer double that rejects every proposal and suggests nothing."""

    fallback_count = 0

    def complete(self, request: ReasonerRequest):
        from beliefworld.prompts import ReasonerResponse

        return ReasonerResponse(
            sections={"Reasoning": "no", "Suggestions": "", "Satisfied": "no"},
            raw="Reasoning: no\nSuggestions:\nSatisfied: no\n",
        )


def test_empty_suggestions_still_name_a_suggestion(scripted, monkeypatch):
    monkeypatch.setattr(rule_consensus, "MAX_ROUNDS", 1)
    with pytest.raises(ConsensusFailure) as err:
        consensus_loop(scripted, EmptySuggestionsReviewer(), TASK)
    assert err.value.suggestions == "no specific suggestions given"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:12]


class Recorded:
    """Passes requests on to ``inner``, adding each one's digest to a list
    it shares with the other side of the dialogue."""

    def __init__(self, inner, requests: list[str]):
        self.inner, self.requests = inner, requests

    def complete(self, request: ReasonerRequest):
        self.requests.append(_digest([request.template_id, request.vars]))
        return self.inner.complete(request)


def _dialogue(proposer, reviewer):
    requests = []
    try:
        proposal, rounds = consensus_loop(
            Recorded(proposer, requests), Recorded(reviewer, requests), TASK
        )
        outcome = ("accepted", rounds, _digest(proposal))
    except ConsensusFailure as exc:
        outcome = ("failed", str(exc), _digest(exc.suggestions))
    return requests, outcome


def _agreed(double):
    requests = []
    rules, rounds, fell_back = agree_rules(Recorded(double, requests), TASK)
    return requests, ("agreed", rounds, fell_back, _digest([str(r) for r in rules]))


DIALOGUES = {
    "duplicate_line": lambda: _dialogue(FaultyThenFixedProposer(), ScriptedReasoner()),
    "unparseable_line": lambda: _dialogue(
        FaultyThenFixedProposer("?agent BELIEVE broken("), ScriptedReasoner()
    ),
    "rounds_exhausted": lambda: _dialogue(ScriptedReasoner(), RejectingReviewer()),
    "verdictless": lambda: _dialogue(
        ScriptedReasoner(), VerdictlessReviewer(["maybe", "no", "yes"])
    ),
    "no_position_rules": lambda: _dialogue(NoPositionRules(), ScriptedReasoner()),
    "no_position_rules_agreed": lambda: _agreed(NoPositionRules()),
    "narrow_in": lambda: _dialogue(NarrowIn(), ScriptedReasoner()),
    "narrow_in_agreed": lambda: _agreed(NarrowIn()),
    "empty_suggestions": lambda: _dialogue(ScriptedReasoner(), EmptySuggestionsReviewer()),
}

# Per dialogue: the digest of each request's [template_id, vars], in the
# order sent by either side, and the outcome (the accepted proposal text,
# the failure and its suggestions, or the rules agree_rules returns).  A
# refactor of the dialogue keeps every request and every decision.
DIALOGUE_DIGESTS = {
    "duplicate_line": (
        ["2eeda416926a", "442e77a48c5b", "520d42d5fb5f", "74003e9ffe3d"],
        ("accepted", 2, "86ce7f5f560f"),
    ),
    "unparseable_line": (
        ["2eeda416926a", "57cc2e99f96c", "903d26d351cd", "74003e9ffe3d"],
        ("accepted", 2, "86ce7f5f560f"),
    ),
    "rounds_exhausted": (
        ["2eeda416926a", "7151666790e9", "ab7d890e3df1", "74003e9ffe3d", "48a14446e8b8",
         "74003e9ffe3d"],
        ("failed", "no accepted proposal within 3 rounds", "0f2e02dd66ae"),
    ),
    "verdictless": (
        ["2eeda416926a", "7151666790e9", "7151666790e9", "1f650f0a8142", "74003e9ffe3d"],
        ("accepted", 2, "86ce7f5f560f"),
    ),
    "no_position_rules": (
        ["2eeda416926a", "9179a35865bc", "eac53c96ff55", "74003e9ffe3d"],
        ("accepted", 2, "86ce7f5f560f"),
    ),
    "no_position_rules_agreed": (
        ["2eeda416926a", "9179a35865bc"],
        ("agreed", 1, 1, "6b981468ec07"),
    ),
    "narrow_in": (
        ["2eeda416926a", "dd37bb1e48cd", "fa3fd1c6d954", "74003e9ffe3d"],
        ("accepted", 2, "86ce7f5f560f"),
    ),
    "narrow_in_agreed": (
        ["2eeda416926a", "dd37bb1e48cd"],
        ("agreed", 1, 1, "6b981468ec07"),
    ),
    "empty_suggestions": (
        ["2eeda416926a", "7151666790e9", "67c57f02da68", "74003e9ffe3d", "3a4a5c594918",
         "74003e9ffe3d"],
        ("failed", "no accepted proposal within 3 rounds", "396a71750838"),
    ),
}


@pytest.mark.parametrize("name", DIALOGUE_DIGESTS)
def test_rule_dialogue_requests_and_outcome_keep_their_digests(name):
    assert DIALOGUES[name]() == DIALOGUE_DIGESTS[name]
