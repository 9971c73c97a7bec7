"""Reasoning backends: a deterministic scripted backend and an HTTP client.

Both backends answer :class:`~beliefworld.prompts.ReasonerRequest` calls
with a :class:`~beliefworld.prompts.ReasonerResponse` or with None, and
the collaboration engine makes the same calls whichever one is plugged
in.  None means "no answer": the engine decides that step itself.  The
scripted backend answers only the rule dialogue (``rules_propose``,
``rules_refine``, ``rules_review``): canonical rule proposals and the
verdict of :func:`rule_consensus.judge`, rendered as text and parsed back
through the same section parser the HTTP path uses.  It returns None for
every other template; :mod:`beliefworld.collab_engine` then decides that
step with its own heuristics from the beliefs it holds.

The HTTP backend speaks the OpenAI-compatible chat completions protocol:
one user message per call, temperature 0.7, top_p 1, max_tokens 512, a
``TIMEOUT_S`` timeout, bearer auth from the ``COBEL_API_KEY``
environment variable as it is at post time.  A sample
at that temperature is drawn once per distinct input, not once per
step: each ``AgentMind`` remembers its last reply per step and
collaborator and returns it while that slot's inputs stay the same, so
the reply is a function of the prompt for that long.  A fallback is
never remembered.  One loop
asks at most twice: the prompt, then, if the reply misses a section
label, the prompt plus a repair instruction.  Each ask posts once more
after a ``BACKOFF_S``-second pause when the post fails (a transport
error or a reply without text content); a second failed post ends the
loop.  After a failed post, later asks post once, without pause or
retry, until a post returns text, so a dead endpoint costs one post per
step.  A loop that ends without a parsed reply falls back: the client
returns what the scripted backend returns for the request (None for an
engine step, the scripted answer for a rule-dialogue step), and
``fallback_count``, the one fallback signal, goes up.

The HTTP client library, ``requests``, is imported by the first post,
not by this module: it and its dependencies take about half of the
package's import time and about 10 MB of memory, and a scripted run
never posts.  So ``POST_ERRORS`` names ``OSError``, which
``requests.RequestException`` derives from, and a missing ``requests``
raises ``ImportError`` on the first post rather than falling back.

``AgentMind.hear`` sends a whole tick's messages in one request (all of
them to ``update_zero``, each sender's to its ``update_first``), so a
batched reply shares the one ``max_tokens`` budget: after a long inbox
the belief list can be cut short, and a line cut mid-way does not parse
and is skipped, like any other unparseable belief line.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field

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
# Seconds a post may take, and the pause before a failed post's one retry.
TIMEOUT_S = 30.0
BACKOFF_S = 0.5

REPAIR_INSTRUCTION = (
    "\n\nYour previous reply did not follow the required format. "
    "Answer again and include every labeled section, in order: {labels}."
)

# What a failed post raises: transport errors (every
# ``requests.RequestException`` is an ``OSError``) and replies without
# text (TypeError: a body of the wrong shape, such as a null message).
POST_ERRORS = (OSError, KeyError, IndexError, TypeError, ValueError)

# The backend names a run configuration chooses between.
SCRIPTED = "scripted"
LLM = "llm"


@dataclass
class ScriptedReasoner:
    """Deterministic backend: it answers only the rule dialogue.

    The three ``rules_*`` templates get full replies, parsed back through
    the same section parser the HTTP path uses; their raw text is the
    consensus dialogue.  Every other template gets None, which tells the
    collaboration engine to take its own heuristic answer.
    """

    fallback_count: int = field(default=0, init=False)

    def complete(self, request: ReasonerRequest) -> ReasonerResponse | None:
        tmpl = prompts.require_vars(request.template_id, request.vars)
        answer = getattr(self, f"_answer_{request.template_id}", None)
        if answer is None:
            return None
        text = answer(request.vars)
        sections = prompts.parse_sections(tmpl, text)
        return ReasonerResponse(sections=sections, raw=text)

    # -- rule-dialogue answers ------------------------------------------

    def _answer_rules_propose(self, vars: dict[str, str]) -> str:
        return (
            "Entity and predicate reasoning: agents, rooms, target objects,"
            " containers, the bed, holdings, containment, positions, and"
            " per-room exploration levels.\n" + rule_consensus.rule_sections()
        )

    def _answer_rules_refine(self, vars: dict[str, str]) -> str:
        return (
            "Reasoning: restored the full canonical rule set per the"
            " suggestions.\n" + rule_consensus.rule_sections()
        )

    def _answer_rules_review(self, vars: dict[str, str]) -> str:
        _, problems = rule_consensus.judge(vars.get("ALICE_CONTENT", ""))
        suggestions = "; ".join(problems) if problems else "None"
        answer = "no" if problems else "yes"
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
    fallback_count: int = field(default=0, init=False)
    _scripted: ScriptedReasoner = field(init=False, default_factory=ScriptedReasoner)
    # True while the last post failed: the endpoint is taken to be down.
    _last_post_failed: bool = field(init=False, default=False)

    def _post(self, prompt: str) -> str:
        import requests

        url = self.base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "top_p": TOP_P,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Authorization": f"Bearer {os.environ.get(API_KEY_ENV, '')}"}
        response = requests.post(url, json=payload, headers=headers, timeout=TIMEOUT_S)
        if response.status_code != 200:
            log.warning("chat completion returned HTTP %s", response.status_code)
            raise requests.HTTPError(f"HTTP {response.status_code}", response=response)
        content = response.json()["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            raise ValueError(f"chat completion content is {type(content).__name__}, not text")
        return content

    def _post_with_retry(self, prompt: str) -> str:
        """The reply text; a failed post is retried once after a pause,
        unless the post before it failed too."""
        try:
            text = self._post(prompt)
        except POST_ERRORS as exc:
            if self._last_post_failed:
                raise
            self._last_post_failed = True
            log.warning("chat completion failed (%s); retrying once", exc)
            time.sleep(BACKOFF_S)
            text = self._post(prompt)
        self._last_post_failed = False
        return text

    def complete(self, request: ReasonerRequest) -> ReasonerResponse | None:
        tmpl = prompts.template(request.template_id)
        prompt = prompts.render(tmpl, request.vars)
        repair = REPAIR_INSTRUCTION.format(labels=", ".join(tmpl.output_labels))
        for attempt in (prompt, prompt + repair):
            try:
                raw = self._post_with_retry(attempt)
                sections = prompts.parse_sections(tmpl, raw)
                return ReasonerResponse(sections=sections, raw=raw)
            except ParseFailure:  # a ValueError too, so it is caught first
                continue
            except POST_ERRORS:
                break
        self.fallback_count += 1
        log.warning(
            "falling back to scripted reasoning for template %s", request.template_id
        )
        return self._scripted.complete(request)
