"""Reasoning backends: a deterministic scripted backend and an HTTP client.

Both backends answer :class:`~beliefworld.prompts.ReasonerRequest` calls,
and the collaboration engine makes the same calls whichever one is
plugged in.  The scripted backend answers only the rule dialogue
(``rules_propose``, ``rules_refine``, ``rules_review``): canonical rule
proposals and a checklist review, rendered as text and parsed back
through the same section parser the HTTP path uses.  Every other
template gets an empty scripted response; :mod:`beliefworld.collab_engine`
then decides that step with its own heuristics from the beliefs it holds.

The HTTP backend speaks the OpenAI-compatible chat completions protocol:
one user message per call, temperature 0.7, top_p 1, max_tokens 512,
bearer auth from the ``COBEL_API_KEY`` environment variable.  Transport
errors and malformed replies (including non-text content) are retried
once after a ``backoff_base``-second pause, and format violations once
with a repair instruction.  When both retries are exhausted the call falls back to the
scripted backend: the response is marked ``backend="scripted"``, the
engine's heuristics decide that step, and ``fallback_count`` goes up.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field

import requests

from . import prompts, rule_consensus
from .prompts import ParseFailure, ReasonerRequest, ReasonerResponse

# Unused here, but bench/smoke.py checks that ``reasoner.parse`` is the
# original ``sbl.parse`` after a traced run, so the name must stay bound.
from .sbl import parse  # noqa: F401

log = logging.getLogger(__name__)

TEMPERATURE = 0.7
TOP_P = 1
MAX_TOKENS = 512

API_KEY_ENV = "COBEL_API_KEY"

REPAIR_INSTRUCTION = (
    "\n\nYour previous reply did not follow the required format. "
    "Answer again and include every labeled section, in order: {labels}."
)

SCRIPTED = "scripted"
LLM = "llm"


@dataclass
class ScriptedReasoner:
    """Deterministic backend: it answers only the rule dialogue.

    The three ``rules_*`` templates get full replies, parsed back through
    the same section parser the HTTP path uses; their raw text is the
    consensus dialogue.  Every other template gets an empty scripted
    response, which tells the collaboration engine to take its own
    heuristic answer.
    """

    backend = SCRIPTED
    fallback_count: int = 0

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        tmpl = prompts.template(request.template_id)
        missing = [v for v in tmpl.required_vars if v not in request.vars]
        if missing:
            raise prompts.TemplateError(f"unbound {missing[0]}")
        answer = getattr(self, f"_answer_{request.template_id}", None)
        if answer is None:
            return ReasonerResponse(sections={}, raw="", backend=SCRIPTED)
        text = answer(request.vars)
        sections = prompts.parse_sections(tmpl, text)
        return ReasonerResponse(sections=sections, raw=text, backend=SCRIPTED)

    # -- rule-dialogue answers ------------------------------------------

    def _answer_rules_propose(self, vars: dict[str, str]) -> str:
        zero, first = rule_consensus.canonical_rule_lines()
        return (
            "Entity and predicate reasoning: agents, rooms, target objects,"
            " containers, the bed, holdings, containment, positions, and"
            " per-room exploration levels.\n"
            "Zero order belief rules:\n" + "\n".join(zero) + "\n"
            "First order belief rules:\n" + "\n".join(first) + "\n"
        )

    def _answer_rules_refine(self, vars: dict[str, str]) -> str:
        zero, first = rule_consensus.canonical_rule_lines()
        return (
            "Reasoning: restored the full canonical rule set per the"
            " suggestions.\n"
            "Zero order belief rules:\n" + "\n".join(zero) + "\n"
            "First order belief rules:\n" + "\n".join(first) + "\n"
        )

    def _answer_rules_review(self, vars: dict[str, str]) -> str:
        verdict = rule_consensus.checklist_review(vars.get("ALICE_CONTENT", ""))
        suggestions = "; ".join(verdict.problems) if verdict.problems else "None"
        answer = "no" if verdict.problems else "yes"
        return (
            "Reasoning: checked parseability, duplicates, and coverage of"
            " position, holdings, exploration, object locations, and"
            " container contents.\n"
            f"Suggestions: {suggestions}\n"
            f"Satisfied: {answer}\n"
        )


@dataclass
class HttpReasoner:
    """OpenAI-compatible chat completions client with scripted fallback."""

    base_url: str
    model: str
    api_key: str | None = None
    timeout: float = 30.0
    backoff_base: float = 0.5
    backend = LLM
    fallback_count: int = 0
    _scripted: ScriptedReasoner = field(init=False, default_factory=ScriptedReasoner)

    def __post_init__(self):
        if self.api_key is None:
            self.api_key = os.environ.get(API_KEY_ENV, "")

    def _post(self, prompt: str) -> str:
        url = self.base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "top_p": TOP_P,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        response = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
        if response.status_code != 200:
            log.warning("chat completion returned HTTP %s", response.status_code)
            raise requests.HTTPError(f"HTTP {response.status_code}", response=response)
        content = response.json()["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            raise ValueError(f"chat completion content is {type(content).__name__}, not text")
        return content

    def _post_with_retry(self, prompt: str) -> str:
        try:
            return self._post(prompt)
        except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
            log.warning("chat completion failed (%s); retrying once", exc)
            time.sleep(self.backoff_base)
            return self._post(prompt)

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        tmpl = prompts.template(request.template_id)
        prompt = prompts.render(tmpl, request.vars)
        raw = ""
        try:
            raw = self._post_with_retry(prompt)
            sections = prompts.parse_sections(tmpl, raw)
            return ReasonerResponse(sections=sections, raw=raw, backend=LLM)
        except ParseFailure:
            repair = prompt + REPAIR_INSTRUCTION.format(
                labels=", ".join(tmpl.output_labels)
            )
            try:
                raw = self._post_with_retry(repair)
                sections = prompts.parse_sections(tmpl, raw)
                return ReasonerResponse(sections=sections, raw=raw, backend=LLM)
            except (ParseFailure, requests.RequestException, KeyError, IndexError, ValueError):
                pass
        except (requests.RequestException, KeyError, IndexError, ValueError):
            pass
        self.fallback_count += 1
        log.warning(
            "falling back to scripted reasoning for template %s", request.template_id
        )
        scripted = self._scripted.complete(request)
        return ReasonerResponse(
            sections=scripted.sections, raw=raw or scripted.raw, backend=SCRIPTED
        )


def make_reasoner(
    backend: str,
    base_url: str | None = None,
    model: str | None = None,
    **kwargs,
) -> ScriptedReasoner | HttpReasoner:
    if backend == SCRIPTED:
        return ScriptedReasoner()
    if backend == LLM:
        if not base_url or not model:
            raise ValueError("llm backend requires base_url and model")
        return HttpReasoner(base_url=base_url, model=model, **kwargs)
    raise ValueError(f"unknown backend {backend!r}")
