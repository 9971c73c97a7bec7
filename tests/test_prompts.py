"""Templates: catalog integrity, rendering fidelity, section parsing."""

from pathlib import Path

import pytest

from beliefworld import prompts
from beliefworld.prompts import ParseFailure, TemplateError, parse_sections, render, template

FIXTURES = Path(__file__).parent / "data" / "prompts"

SAMPLE_VARS = {
    "AGENT_NAME": "Alice",
    "OPPO_NAME": "Bob",
    "MESSAGE": "Bob: FACTS: | PLAN: transport",
    "RULE": "?agent BELIEVE ?object IN ?room",
    "GOAL": "Transport the targets to the bed.",
    "ZERO_ORDER_BELIEF": "Alice BELIEVE <apple>(1) IN <kitchen>(2000)",
    "FIRST_ORDER_BELIEF": "Alice BELIEVE Bob BELIEVE <apple>(1) IN <kitchen>(2000)",
    "MY_FIRST_ORDER_BELIEF": "Alice BELIEVE Bob BELIEVE <apple>(1) IN <kitchen>(2000)",
    "MY_PLAN": "transport",
    "OPPO_PLAN": "transport",
    "OPPO_PLANS": "plan1: transport\nplan2: None\nplan3: None",
    "PREVIOUS_ACTIONS": "None",
    "ACTION_LIST": "go to; explore current room; go grasp; put; transport",
    "MISALIGNED_INFORMATION": "<apple>(1) IN <kitchen>(2000)",
    "BELIEF_LANGUAGE": "statement grammar",
    "TASK_DESCRIPTION": "transport things",
    "PREVIOUS_CONTENT": "previous rules",
    "SUGGESTIONS": "add the position rule",
    "ALICE_CONTENT": "Zero order belief rules:\n?agent BELIEVE ?agent AT ?room",
}


def test_catalog_has_all_eleven_templates():
    # The bench prints its per-template rows in this order.
    ids = (
        "rules_propose", "rules_refine", "rules_review", "update_first",
        "update_zero", "predict_first", "predict_zero", "adaptive",
        "communicate", "plan_next", "replan",
    )
    assert prompts.TEMPLATE_IDS == ids
    assert tuple(prompts._load_catalog()) == ids
    for tid in prompts.TEMPLATE_IDS:
        assert template(tid).output_labels


@pytest.mark.parametrize("tid", prompts.TEMPLATE_IDS)
def test_rendered_text_differs_from_fixture_only_at_var_sites(tid):
    tmpl = template(tid)
    fixture = (FIXTURES / f"{tid}.txt").read_text(encoding="utf-8")
    expected = fixture
    for name in tmpl.required_vars:
        expected = expected.replace(f"${name}$", SAMPLE_VARS[name])
    assert render(tmpl, SAMPLE_VARS) == expected


@pytest.mark.parametrize("tid", prompts.TEMPLATE_IDS)
def test_render_leaves_no_placeholder(tid):
    rendered = render(tid, SAMPLE_VARS)
    assert "$" not in rendered or not prompts._PLACEHOLDER_RE.search(rendered)


def test_render_missing_var_named():
    vars = dict(SAMPLE_VARS)
    del vars["RULE"]
    with pytest.raises(TemplateError, match="unbound RULE"):
        render("update_zero", vars)


def test_render_inserts_values_verbatim():
    message = "Bob: FACTS: | PLAN: None; the bowl costs $USD$, see $RULE$"
    rendered = render("update_zero", {**SAMPLE_VARS, "MESSAGE": message})
    assert message in rendered
    assert SAMPLE_VARS["RULE"] in rendered  # the real $RULE$ site is still filled
    with pytest.raises(TemplateError, match="unbound RULE"):
        render("update_zero", {k: v for k, v in SAMPLE_VARS.items() if k != "RULE"})


def test_render_distinct_var_maps_distinct_output():
    import random

    rng = random.Random(13)
    seen = set()
    for i in range(50):
        vars = dict(SAMPLE_VARS)
        vars["ZERO_ORDER_BELIEF"] = f"Alice BELIEVE <apple>({rng.randrange(10**6)}) IN <kitchen>(2000)"
        vars["GOAL"] = f"goal variant {i}"
        text = render("predict_zero", vars)
        assert text not in seen
        seen.add(text)


def test_parse_sections_adaptive_example():
    sections = parse_sections("adaptive", "reasons: r1\nanswer: No\nmisaligned information:")
    assert sections == {"reasons": "r1", "answer": "No", "misaligned information": ""}


def test_parse_sections_case_and_spacing_tolerance():
    text = "REASONS: x\nAnswer : Yes\nMisaligned Information : facts here"
    sections = parse_sections("adaptive", text)
    assert sections["answer"] == "Yes"
    assert sections["misaligned information"] == "facts here"


def test_parse_sections_out_of_order_fails():
    with pytest.raises(ParseFailure, match="out of order"):
        parse_sections("adaptive", "answer: Yes\nreasons: r\nmisaligned information: x")


def test_parse_sections_missing_final_label_fails():
    with pytest.raises(ParseFailure) as err:
        parse_sections("adaptive", "reasons: r\nanswer: No")
    assert err.value.missing_label == "misaligned information"


def test_parse_sections_multiline_capture():
    text = "reasoning: first\nsecond line\nplan: transport"
    sections = parse_sections("predict_zero", text)
    assert sections["reasoning"] == "first\nsecond line"
    assert sections["plan"] == "transport"


def test_parse_sections_suffix_label_match():
    text = (
        "Extracted Information: all good\n"
        "First order beliefs: Alice BELIEVE Bob BELIEVE <a>(1) IN <k>(2)\n"
        "Bob's plan: transport"
    )
    sections = parse_sections("update_first", text)
    assert sections["plan"] == "transport"


def test_catalog_checksum_rejects_tampering():
    import json
    from importlib import resources

    raw = resources.files("beliefworld").joinpath("data/prompt_catalog.json").read_text()
    data = json.loads(raw)
    data["templates"][0]["text"] += " tampered"
    with pytest.raises(TemplateError, match="checksum"):
        prompts._load_catalog(json.dumps(data))


def test_catalog_checksum_covers_the_order_of_the_templates():
    import json
    from importlib import resources

    raw = resources.files("beliefworld").joinpath("data/prompt_catalog.json").read_text()
    data = json.loads(raw)
    # Each entry keeps its own checksum; only the overall one can tell.
    data["templates"][:2] = data["templates"][1::-1]
    with pytest.raises(TemplateError, match="overall checksum mismatch"):
        prompts._load_catalog(json.dumps(data))


def test_an_unknown_template_id_is_named():
    with pytest.raises(TemplateError, match="unknown template id 'nope'"):
        template("nope")

