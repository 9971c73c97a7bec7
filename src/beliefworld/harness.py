"""Episode runner and batch aggregation.

One episode is: consensus phase (the first two agents agree on the belief
rules, broadcast to everyone), then the lockstep decision loop until every
target is delivered or the frame budget runs out, then metrics computed
from the episode's log in memory, before anything is written.  Each
decision tick, an agent's intent (a message to broadcast or a plan step)
goes to the simulator as ``decide`` returned it.  A tick with no intents
means every idle agent is asleep, so the loop skips the quiet frames up
to the next completion (or the frame budget) instead of stepping them one
by one; the log is the same either way.
A reasoning call the remote model fails to answer falls back to the
collaboration engine's own heuristics for that step, and when the rule
dialogue fails or :func:`rule_consensus.judge` rejects the proposal it
accepts, :func:`rule_consensus.agree_rules` puts the canonical rules in
their place (the header's ``consensus_fallbacks`` counts it); reasoner
failures never abort a run.

Batches run the same scenario over a seed list and report per-seed
metrics plus means, written as both a machine-readable JSON summary and
an aligned plaintext table.  Episodes are sequential; their logs and
metrics land under ``<out>/<mode>/<seed>/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import episode_log, rule_consensus, world_sim
from .actions import SendMessage
from .belief_store import BeliefWorld
from .collab_engine import COOLDOWN, MODE_ADAPTIVE, MODE_ALWAYS, MODE_NEVER, AgentMind
from .episode_log import EpisodeLog, EpisodeMetrics
from .reasoner import LLM, SCRIPTED, HttpReasoner, ScriptedReasoner
from .scenario import CONTAINER, CONTAINER_CAPACITY, TARGET, EntityRegistry, Scenario, load_scenario

MODES = (MODE_ADAPTIVE, MODE_ALWAYS, MODE_NEVER)
BACKENDS = (SCRIPTED, LLM)


class ConfigError(ValueError):
    pass


class EpisodeFailure(RuntimeError):
    pass


@dataclass
class RunConfig:
    scenario: str
    seeds: tuple[int, ...]
    agents: int = 2
    backend: str = SCRIPTED
    mode: str = MODE_ADAPTIVE
    out_dir: Path | None = None
    base_url: str | None = None
    model: str | None = None

    def __post_init__(self) -> None:
        problems = []
        if not self.seeds:
            problems.append("at least one seed is required")
        if self.agents < 2:
            problems.append("agent count must be at least 2")
        if self.backend not in BACKENDS:
            problems.append(f"backend must be one of {BACKENDS}")
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES}")
        if self.backend == LLM and (not self.base_url or not self.model):
            problems.append("llm backend requires --base-url and --model")
        if self.backend == SCRIPTED and (self.base_url or self.model):
            problems.append("--base-url and --model need the llm backend")
        if problems:
            raise ConfigError("invalid run configuration:\n- " + "\n- ".join(problems))


def task_description(scenario: Scenario, registry: EntityRegistry) -> str:
    rooms = ", ".join(str(r) for r in scenario.rooms)
    targets = ", ".join(str(ref) for ref, kind, _ in scenario.objects if kind == TARGET)
    containers = ", ".join(str(ref) for ref, kind, _ in scenario.objects if kind == CONTAINER)
    names = ", ".join(name for name, _ in scenario.agents)
    return (
        f"Agents {names} collaborate to transport target objects to the bed "
        f"{registry.bed} in {registry.bed_room} within {scenario.frame_budget} frames. "
        f"Rooms: {rooms}. Target objects: {targets}. "
        f"Containers (each holds up to {CONTAINER_CAPACITY} objects, "
        f"lost once dropped at the bed): {containers or 'none'}. "
        "Agents hold at most two items, at most one of them a container, "
        "explore rooms to reveal objects (exploration state none, part, or "
        "all), and may broadcast messages to each other."
    )


def _build_reasoner(cfg: RunConfig) -> ScriptedReasoner | HttpReasoner:
    if cfg.backend == SCRIPTED:
        return ScriptedReasoner()
    return HttpReasoner(base_url=cfg.base_url, model=cfg.model)


def run_episode(cfg: RunConfig, seed: int) -> tuple[EpisodeLog, EpisodeMetrics]:
    """Run one full episode; returns its log and metrics.

    When ``cfg.out_dir`` is set, ``episode.log`` and ``metrics.json`` are
    written under ``<out>/<mode>/<seed>/``.
    """
    scenario = load_scenario(cfg.scenario).with_agents(cfg.agents)
    state = world_sim.init(scenario, seed)
    registry = state.registry
    reasoner = _build_reasoner(cfg)

    rules, rounds, fell_back = rule_consensus.agree_rules(
        reasoner, task_description(scenario, registry)
    )
    consensus_fallbacks = reasoner.fallback_count + fell_back

    names = [name for name, _ in scenario.agents]
    minds = []
    for name in names:
        others = tuple(n for n in names if n != name)
        world = BeliefWorld(owner=name, rules=rules, collaborators=others, registry=registry)
        minds.append(AgentMind(world=world, reasoner=reasoner, mode=cfg.mode))

    log = EpisodeLog()
    log.append(
        0,
        None,
        "header",
        {
            "scenario": scenario.name,
            "seed": seed,
            "mode": cfg.mode,
            "backend": cfg.backend,
            "agents": names,
            "cooldown": COOLDOWN,
            "frame_budget": scenario.frame_budget,
            "reveal_fraction": scenario.reveal_fraction,
            "rules": [str(r) for r in rules],
            "consensus_rounds": rounds,
            "consensus_fallbacks": consensus_fallbacks,
        },
    )

    dormant: dict[str, world_sim.VisualObservation] = {}
    while True:
        done, reason = world_sim.is_done(state)
        if done:
            break
        intents = {}
        for mind in minds:
            agent = state.agents[mind.name]
            if agent.busy is not None:
                continue
            obs = world_sim.observe(state, mind.name)
            # A finished agent sleeps until it sees or hears anything new.
            if dormant.get(mind.name) == obs and not agent.inbox:
                continue
            inbox = world_sim.drain_inbox(state, mind.name)
            intent, payload = mind.decide(obs, inbox)
            if intent is None:
                dormant[mind.name] = obs
            else:
                dormant.pop(mind.name, None)
            log.append(state.frame, mind.name, "decision", payload)
            if intent is None:
                continue
            intents[mind.name] = intent
            if not isinstance(intent, SendMessage):
                log.append(state.frame, mind.name, "action_start", {"action": str(intent)})
        if not intents:
            # Everyone idle is asleep: nothing is seen or heard until a completion.
            world_sim.skip_quiet_frames(state)
        results = world_sim.apply(state, intents)
        for mind in minds:
            result = results.get(mind.name)
            if result is None or result.action is None:
                continue
            if result.status == "completed":
                if isinstance(result.action, SendMessage):
                    log.append(
                        state.frame, mind.name, "message_sent",
                        {
                            "text": result.action.text,
                            "recipients": [n for n in names if n != mind.name],
                        },
                    )
                else:
                    log.append(
                        state.frame, mind.name, "action_done",
                        {"action": str(result.action)},
                    )
                    mind.note_done(result.action)
            elif result.status == "rejected":
                log.append(
                    state.frame, mind.name, "action_rejected",
                    {"action": str(result.action), "detail": result.detail},
                )

    total = len(registry.target_ids)
    log.append(
        state.frame,
        None,
        "done",
        {
            "reason": reason,
            "transported": len(state.transported_ids()),
            "total_targets": total,
        },
    )

    result_metrics = episode_log.metrics(log)
    if cfg.out_dir is not None:
        episode_dir = Path(cfg.out_dir) / cfg.mode / str(seed)
        episode_dir.mkdir(parents=True, exist_ok=True)
        log.write(episode_dir / "episode.log")
        (episode_dir / "metrics.json").write_text(
            json.dumps(result_metrics.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return log, result_metrics


@dataclass
class BatchSummary:
    mode: str
    scenario: str
    per_seed: dict[int, EpisodeMetrics] = field(default_factory=dict)

    def means(self) -> dict[str, float]:
        if not self.per_seed:
            return {}
        rows = [m.to_dict() for m in self.per_seed.values()]
        return {
            key: sum(row[key] for row in rows) / len(rows) for key in rows[0]
        }

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "scenario": self.scenario,
            "seeds": {str(s): m.to_dict() for s, m in sorted(self.per_seed.items())},
            "means": self.means(),
        }


_COLUMNS = tuple(f.name for f in fields(EpisodeMetrics))


def format_summary_table(summary: BatchSummary) -> str:
    header = ["seed"] + list(_COLUMNS)
    rows = [header]
    for seed, m in sorted(summary.per_seed.items()):
        row = m.to_dict()
        rows.append([str(seed)] + [_fmt(row[c]) for c in _COLUMNS])
    if summary.per_seed:
        means = summary.means()
        rows.append(["mean"] + [_fmt(means[c]) for c in _COLUMNS])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        f"scenario={summary.scenario} mode={summary.mode} episodes={len(summary.per_seed)}"
    ]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))


def run_batch(cfg: RunConfig) -> BatchSummary:
    """Run every seed; write the summary; abort on the first episode
    failure with the partial results preserved on disk.  A scenario that
    cannot load with ``cfg.agents`` agents raises before the first one."""
    load_scenario(cfg.scenario).with_agents(cfg.agents)
    summary = BatchSummary(mode=cfg.mode, scenario=cfg.scenario)
    try:
        for seed in cfg.seeds:
            _, m = run_episode(cfg, seed)
            summary.per_seed[seed] = m
    except Exception as exc:
        _write_summary(cfg, summary)
        raise EpisodeFailure(f"episode failed (seed set aborted): {exc}") from exc
    _write_summary(cfg, summary)
    return summary


def _write_summary(cfg: RunConfig, summary: BatchSummary) -> None:
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "summary.txt").write_text(format_summary_table(summary), encoding="utf-8")
