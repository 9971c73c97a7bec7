"""Layer accounting for the benchmark, installed from outside the program.

Two instruments, each patched in for one pass and restored afterwards:

* :class:`Tracer` wraps the layer boundaries of one episode.  The coarse
  boundaries (consensus, one agent's decision, one reasoner call, one
  simulator frame, one observation) are recorded as spans; the hot
  functions (``sbl.parse`` runs ~23k times in a 4-agent episode) only
  add to a per-name call count and self time.  Self time is a call's
  duration minus the durations of the traced calls made inside it; the
  episode root's self time is the harness glue, so all self times sum
  to the traced wall time.
* :class:`ReasonerTally` wraps ``ScriptedReasoner.complete`` and counts
  calls and rendered prompt characters per template.  Rendering is what
  a remote model would be sent; it is done only in this untimed pass.

A module-level function is wrapped in every ``beliefworld`` module that
binds it (``sbl.parse`` is imported by name into ``collab_engine`` and
``reasoner``), so no caller escapes the wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from beliefworld import collab_engine, episode_log, prompts, rule_consensus, sbl, world_sim
from beliefworld.belief_store import BeliefWorld
from beliefworld.collab_engine import AgentMind
from beliefworld.episode_log import EpisodeLog
from beliefworld.reasoner import ScriptedReasoner

ROOT = "harness"

# (owner, attribute, layer name); spans are kept for these.
COARSE = (
    (rule_consensus, "consensus_loop", "rule_consensus.consensus_loop"),
    (AgentMind, "decide", "collab_engine.decide"),
    (ScriptedReasoner, "complete", "reasoner.complete"),
    (world_sim, "apply", "world_sim.apply"),
    (world_sim, "observe", "world_sim.observe"),
)

# Aggregated only: a count and a self time per name.
HOT = (
    (sbl, "parse", "sbl.parse"),
    (BeliefWorld, "assert_fact", "belief_store.assert_fact"),
    (BeliefWorld, "facts", "belief_store.facts"),
    (BeliefWorld, "snapshot", "belief_store.snapshot"),
    (collab_engine, "update_from_visual", "collab_engine.update_from_visual"),
    (collab_engine, "update_from_messages", "collab_engine.update_from_messages"),
    (collab_engine, "ingest_facts", "collab_engine.ingest_facts"),
    (collab_engine, "plan_options", "collab_engine.plan_options"),
    (collab_engine, "detect_miscoordination", "collab_engine.detect_miscoordination"),
    (prompts, "parse_sections", "prompts.parse_sections"),
    (EpisodeLog, "append", "episode_log"),
    (EpisodeLog, "write", "episode_log"),
    (episode_log, "metrics", "episode_log"),
)

LAYER_NAMES = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in COARSE + HOT))


def _bindings(owner, attr: str) -> list[tuple[object, str]]:
    """Every (namespace, attribute) through which callers reach ``owner.attr``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = getattr(owner, attr)
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "beliefworld" or name.startswith("beliefworld."):
            for key, value in vars(module).items():
                if value is original:
                    found.append((module, key))
    return found


def _marked(fn):
    """``functools.wraps`` plus a marker that :func:`leftover_wrappers` finds."""

    def decorate(wrapper):
        wrapper = functools.wraps(fn)(wrapper)
        wrapper.bench_wrapper = True
        return wrapper

    return decorate


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for namespace, key in _bindings(owner, attr):
            self._saved.append((namespace, key, vars(namespace)[key]))
            setattr(namespace, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            namespace, key, original = self._saved.pop()
            setattr(namespace, key, original)


class Tracer:
    """Span and self-time recorder; active only inside :meth:`episode`."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        # (episode, span id, parent span id, name, start s, end s)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.episodes = 0
        self.wall_s = 0.0
        self.parse_calls = 0
        self.parse_distinct = 0
        self.idle_applies = 0
        self._episode_texts: set[str] = set()
        self._stack: list[list] = []  # frames: [span id, child seconds]
        self._next_id = 0
        self._origin = time.perf_counter()
        self._patches = _Patches()

    def __enter__(self) -> "Tracer":
        for owner, attr, name in COARSE:
            self._patches.replace(owner, attr, functools.partial(self._wrap, name, True))
        for owner, attr, name in HOT:
            self._patches.replace(owner, attr, functools.partial(self._wrap, name, False))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, name: str, keep_span: bool, fn):
        stack = self._stack
        is_parse = name == "sbl.parse"
        is_apply = name == "world_sim.apply"

        @_marked(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if is_parse:
                self.parse_calls += 1
                if args[0] not in self._episode_texts:
                    self._episode_texts.add(args[0])
                    self.parse_distinct += 1
            elif is_apply and not args[1]:
                self.idle_applies += 1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if keep_span:
                    self.spans.append(
                        (self.episodes, frame[0], parent[0], name,
                         start - self._origin, end - self._origin)
                    )

        return wrapper

    def episode(self, run):
        """Call ``run()`` as the root span of one traced episode."""
        if self._stack:
            raise RuntimeError("episodes do not nest")
        self._episode_texts = set()
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return run()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.calls[ROOT] += 1
            self.self_s[ROOT] += (end - start) - frame[1]
            self.wall_s += end - start
            self.spans.append(
                (self.episodes, frame[0], -1, ROOT, start - self._origin, end - self._origin)
            )
            self.episodes += 1

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]


class ReasonerTally:
    """Per-template call counts and rendered prompt characters, plus the
    tokens of the rule-consensus replies the two first agents exchange."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.prompt_chars: Counter[str] = Counter()
        self.consensus_tokens = 0
        self._patches = _Patches()

    def __enter__(self) -> "ReasonerTally":
        self._patches.replace(ScriptedReasoner, "complete", self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, fn):
        @_marked(fn)
        def wrapper(reasoner, request):
            response = fn(reasoner, request)
            tid = request.template_id
            self.calls[tid] += 1
            self.prompt_chars[tid] += len(prompts.render(tid, request.vars))
            if tid.startswith("rules_"):
                # Each consensus reply is one agent's message to the other.
                self.consensus_tokens += len(response.raw.split())
            return response

        return wrapper


def leftover_wrappers() -> list[str]:
    """Every benchmark wrapper still bound in the program; empty when clean."""
    namespaces = [
        module for name, module in sorted(sys.modules.items())
        if name == "beliefworld" or name.startswith("beliefworld.")
    ]
    namespaces += dict.fromkeys(owner for owner, _, _ in COARSE + HOT if isinstance(owner, type))
    return [
        f"{namespace.__name__}.{key}"
        for namespace in namespaces
        for key, value in vars(namespace).items()
        if getattr(value, "bench_wrapper", False)
    ]
