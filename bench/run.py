"""beliefworld benchmark: scripted episodes run back to back in one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload pair-adaptive --seed 1 --seconds 20 --trace 0

Each workload is a fixed scenario, agent count, messaging mode and
episode-seed range, so every run replays the same episodes; ``--seed``
only shuffles their order.  The load is a closed loop with one client:
each episode starts when the previous one has returned.  Episodes go
through ``harness.run_episode`` with a temporary output directory, as the
CLI does, so writing the logs is part of the measured cost.

Every run starts with an untimed counting pass that tallies reasoner
calls and rendered prompt characters per template (it also warms the
process up).  It then repeats whole passes over the seed range until
``--seconds`` have passed.  Every episode is checked: its written log is
re-read and its metrics recomputed.  A digest over the per-episode log
sha256s must agree between all passes of the run.

``--trace 0`` times untraced passes and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer split (see ``layers.py``); the ratio of their episode times is
the tracing overhead.  The last line of standard output is the JSON
result.  README.md beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "beliefworld" / "__init__.py").is_file():
    sys.exit(f"error: no beliefworld sources under {SRC}")
sys.path.insert(0, str(SRC))

from beliefworld import episode_log, harness, prompts  # noqa: E402
from beliefworld.episode_log import EpisodeLog  # noqa: E402

import layers  # noqa: E402


@dataclass(frozen=True)
class Workload:
    scenario: str
    agents: int
    mode: str
    seeds: tuple[int, ...]


# Why each workload exists, and what it should and should not move, is
# set out in README.md beside this file.
WORKLOADS = {
    "pair-adaptive": Workload("food_small", 2, "adaptive", tuple(range(1, 21))),
    "pair-silent": Workload("food_small", 2, "never", tuple(range(1, 41))),
    "team-adaptive": Workload("stuff_small", 4, "adaptive", tuple(range(1, 7))),
}

SETUP_REPEATS = 5
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from beliefworld import harness
from beliefworld.scenario import EntityRegistry, load_scenario
EntityRegistry(load_scenario(sys.argv[2]).with_agents(int(sys.argv[3])))
"""

# The scripted engine ignores these answers (they matter only to the HTTP
# backend), so each call is reasoning paid for and thrown away.
DISCARDED_TEMPLATES = ("plan_next", "adaptive")


@dataclass
class Episode:
    seed: int
    seconds: float
    sha256: str
    metrics: dict
    decisions: int
    idle_decisions: int
    reports: int
    heavy_reports: int
    consensus_rounds: int


@dataclass
class Pass:
    episodes: list[Episode] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wrong_outputs: int = 0  # failures of the correctness check

    def digest(self) -> str:
        rows = [f"{e.seed}:{e.sha256}" for e in self.episodes]
        rows += [f"{f.split(':', 1)[0]}:failed" for f in self.failures]
        return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


class CheckFailed(Exception):
    pass


def check_episode(
    out_dir: Path, mode: str, seed: int, log: EpisodeLog, metrics
) -> tuple[str, EpisodeLog]:
    """Re-read the written log and recompute its metrics from the file."""
    path = out_dir / mode / str(seed) / "episode.log"
    data = path.read_bytes()
    written = EpisodeLog.read(path)
    if len(written.of_kind("done")) != 1:
        raise CheckFailed("log does not hold exactly one done record")
    if episode_log.metrics(written) != metrics:
        raise CheckFailed("metrics recomputed from the written log differ")
    stored = json.loads((path.parent / "metrics.json").read_text())
    if stored != metrics.to_dict():
        raise CheckFailed("metrics.json differs from the episode's metrics")
    sha = hashlib.sha256(data).hexdigest()
    if sha != log.sha256():
        raise CheckFailed("written log differs from the in-memory log")
    if not 0.0 <= metrics.transport_rate <= 1.0:
        raise CheckFailed(f"transport rate {metrics.transport_rate} out of range")
    return sha, written


def run_pass(workload: Workload, order: list[int], out_dir: Path, call=None) -> Pass:
    """Run every episode once; failures are recorded and the pass goes on."""
    result = Pass()
    for seed in order:
        cfg = harness.RunConfig(
            scenario=workload.scenario,
            seeds=(seed,),
            agents=workload.agents,
            mode=workload.mode,
            out_dir=out_dir,
        )
        episode = lambda: harness.run_episode(cfg, seed)  # noqa: E731
        start = time.perf_counter()
        try:
            log, metrics = call(episode) if call else episode()
            seconds = time.perf_counter() - start
            sha, written = check_episode(out_dir, workload.mode, seed, log, metrics)
        except Exception as exc:  # any failure is counted; the run goes on
            result.failures.append(f"{seed}: {type(exc).__name__}: {exc}")
            result.wrong_outputs += isinstance(exc, CheckFailed)
            continue
        decisions = written.of_kind("decision")
        reports = [r for d in decisions for r in d["payload"]["reports"]]
        result.episodes.append(Episode(
            seed=seed,
            seconds=seconds,
            sha256=sha,
            metrics=metrics.to_dict(),
            decisions=len(decisions),
            idle_decisions=sum(d["payload"]["decision"]["type"] == "idle" for d in decisions),
            reports=len(reports),
            heavy_reports=sum(bool(r["heavy"]) for r in reports),
            consensus_rounds=written.of_kind("header")[0]["payload"]["consensus_rounds"],
        ))
    return result


def measure_setup(workload: Workload) -> float:
    """Median seconds from a fresh interpreter to a loaded scenario."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), workload.scenario, str(workload.agents)]
    subprocess.run(cmd, check=True)  # warm-up: writes the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Run:
    """One benchmark run: its passes, the counting pass and the checks."""

    def __init__(self, workload: Workload, order_seed: int, seconds: float, out_dir: Path):
        self.workload = workload
        self.rng = random.Random(order_seed)
        self.seconds = seconds
        self.out_dir = out_dir
        self.passes: list[Pass] = []
        self.tally = layers.ReasonerTally()

    def order(self) -> list[int]:
        seeds = list(self.workload.seeds)
        self.rng.shuffle(seeds)
        return seeds

    def counting_pass(self) -> Pass:
        """Untimed: per-template calls and rendered prompt characters."""
        with self.tally:
            counted = run_pass(self.workload, self.order(), self.out_dir)
        self.passes.append(counted)
        return counted

    def timed_passes(self, tracer: layers.Tracer | None = None) -> tuple[list[Pass], list[Pass]]:
        """Whole passes until the time is up; with a tracer, untraced and
        traced passes alternate.  Returns (untraced, traced)."""
        untraced: list[Pass] = []
        traced: list[Pass] = []
        begin = time.perf_counter()
        while True:
            untraced.append(run_pass(self.workload, self.order(), self.out_dir))
            if tracer is not None:
                with tracer:
                    traced.append(
                        run_pass(self.workload, self.order(), self.out_dir, tracer.episode)
                    )
            if time.perf_counter() - begin >= self.seconds:
                break
        self.passes += untraced + traced
        return untraced, traced

    # -- checks -----------------------------------------------------------

    def digests(self) -> set[str]:
        return {p.digest() for p in self.passes}

    def attempted(self) -> int:
        return sum(len(p.episodes) + len(p.failures) for p in self.passes)

    def failed(self) -> int:
        return sum(len(p.failures) for p in self.passes)

    # -- per-episode means from the counting pass ----------------------------

    def per_episode(self, counter) -> float:
        return counter / max(len(self.passes[0].episodes), 1)

    def end_to_end(self, setup_s: float, timed: list[Pass], peak_rss_mb: float) -> dict:
        counted = self.passes[0]
        seconds = [e.seconds for p in timed for e in p.episodes]
        tally = self.tally
        paper = [e.metrics for e in counted.episodes]
        return {
            "setup_s": (setup_s, "s"),
            "episodes_per_s": (len(seconds) / sum(seconds), "1/s"),
            "episode_s_p50": (statistics.median(seconds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "reasoner_calls": (self.per_episode(sum(tally.calls.values())), "calls"),
            "prompt_chars": (self.per_episode(sum(tally.prompt_chars.values())), "chars"),
            "decision_ticks": (mean(m["decision_ticks"] for m in paper), "ticks"),
            "frames_used": (mean(m["frames_used"] for m in paper), "frames"),
            "transport_rate": (mean(m["transport_rate"] for m in paper), "share"),
            "dialogue_tokens": (
                self.per_episode(tally.consensus_tokens) + mean(m["comm_tokens"] for m in paper),
                "tokens",
            ),
            "ok_share": (1.0 - self.failed() / self.attempted(), "share"),
        }

    def per_layer(self, untraced: list[Pass], traced: list[Pass], tracer: layers.Tracer) -> dict:
        counted = self.passes[0]
        episodes = tracer.episodes
        tally = self.tally
        out: dict[str, tuple[float, str]] = {}
        for name in layers.LAYER_NAMES:
            if name != layers.ROOT:
                out[f"{name}.calls"] = (tracer.calls[name] / episodes, "calls")
            out[f"{name}.self_s"] = (tracer.self_s[name] / episodes, "s")
        out["harness.traced_wall_s"] = (tracer.wall_s / episodes, "s")
        out["harness.episodes"] = (float(episodes), "episodes")
        out["harness.trace_overhead"] = (
            mean(e.seconds for p in traced for e in p.episodes)
            / mean(e.seconds for p in untraced for e in p.episodes),
            "ratio",
        )
        eps = counted.episodes
        decisions = sum(e.decisions for e in eps)
        out["harness.decisions"] = (self.per_episode(decisions), "decisions")
        out["harness.idle_decision_share"] = (
            sum(e.idle_decisions for e in eps) / max(decisions, 1), "share"
        )
        out["harness.failed_share"] = (self.failed() / self.attempted(), "share")
        out["sbl.parse.distinct_share"] = (
            tracer.parse_distinct / max(tracer.parse_calls, 1), "share"
        )
        out["world_sim.apply.idle_share"] = (
            tracer.idle_applies / max(tracer.calls["world_sim.apply"], 1), "share"
        )
        decide_ms = [d * 1000 for d in tracer.durations("collab_engine.decide")]
        out["collab_engine.decide.p50_ms"] = (statistics.median(decide_ms), "ms")
        out["collab_engine.decide.p99_ms"] = (statistics.quantiles(decide_ms, n=100)[98], "ms")
        reports = sum(e.reports for e in eps)
        out["collab_engine.heavy_report_share"] = (
            sum(e.heavy_reports for e in eps) / max(reports, 1), "share"
        )
        out["episode_log.comm_tokens"] = (mean(e.metrics["comm_tokens"] for e in eps), "tokens")
        out["rule_consensus.consensus_loop.rounds"] = (mean(e.consensus_rounds for e in eps), "rounds")
        out["rule_consensus.dialogue_tokens"] = (self.per_episode(tally.consensus_tokens), "tokens")
        out["reasoner.discarded_calls"] = (
            self.per_episode(sum(tally.calls[t] for t in DISCARDED_TEMPLATES)), "calls"
        )
        for tid in prompts.TEMPLATE_IDS:
            out[f"reasoner.{tid}.calls"] = (self.per_episode(tally.calls[tid]), "calls")
            out[f"reasoner.{tid}.prompt_chars"] = (
                self.per_episode(tally.prompt_chars[tid]), "chars"
            )
        return out


def write_spans(path: Path, tracer: layers.Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for episode, span, parent, name, start, end in tracer.spans:
            fh.write(json.dumps([episode, span, parent, name, round(start, 7), round(end, 7)]) + "\n")


def measure(
    name: str, w: Workload, order_seed: int, seconds: float, trace: bool
) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, report lines)."""
    lines = [
        f"workload={name} scenario={w.scenario} agents={w.agents} mode={w.mode} "
        f"episode_seeds={w.seeds[0]}..{w.seeds[-1]} order_seed={order_seed} trace={int(trace)}"
    ]
    problems = []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        run = Run(w, order_seed, seconds, Path(tmp))
        if trace:
            run.counting_pass()
            tracer = layers.Tracer()
            untraced, traced = run.timed_passes(tracer)
        else:
            setup_s = measure_setup(w)
            run.counting_pass()
            timed, _ = run.timed_passes()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for p in run.passes:
        if not p.episodes:
            raise RuntimeError(f"a pass completed no episode: {p.failures[0]}")
    if trace:
        metrics = run.per_layer(untraced, traced, tracer)
        leftover = layers.leftover_wrappers()
        if leftover:
            problems.append(f"wrappers left in place: {leftover}")
        attributed = sum(tracer.self_s.values())
        if abs(attributed - tracer.wall_s) > 1e-6 * tracer.wall_s:
            problems.append(
                f"layer self times sum to {attributed:.6f} s, traced wall is {tracer.wall_s:.6f} s"
            )
        write_spans(OUT_DIR / f"{name}.seed{order_seed}.spans.jsonl", tracer)
        lines.append(
            f"traced episodes={tracer.episodes} wall={tracer.wall_s:.3f}s "
            f"self-time sum={attributed:.3f}s spans={len(tracer.spans)}"
        )
    else:
        metrics = run.end_to_end(setup_s, timed, peak_rss_mb)
        lines.append(
            f"timed passes={len(timed)}, "
            f"episode_s_p50 samples={sum(len(p.episodes) for p in timed)}"
        )
    digests = run.digests()
    lines.append(f"log digest ({len(run.passes)} passes): {' '.join(sorted(digests))}")
    if len(digests) != 1:
        problems.append("episode logs differ between passes")
    if any(p.wrong_outputs for p in run.passes):
        problems.append("an episode's written log or metrics are wrong")
    for p in run.passes:
        for failure in p.failures:
            lines.append(f"episode failed: seed {failure}")
    lines.append(f"attempted={run.attempted()} failed={run.failed()}")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<44} {value:>14.6g} {unit}")
    lines.extend(f"CHECK FAILED: {p}" for p in problems)
    result = {
        "correct": not problems,
        "attempted": run.attempted(),
        "failed": run.failed(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="shuffles the episode order")
    parser.add_argument("--seconds", type=float, required=True, help="measure whole passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result, lines = measure(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
