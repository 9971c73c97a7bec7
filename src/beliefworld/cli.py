"""Command line harness.

Example::

    beliefworld run --scenario food_small --seeds 1..20 --agents 2 \\
        --backend scripted --mode adaptive --out runs/demo

Seeds accept a range (``1..20``) or a comma list (``1,2,7``).  The llm
backend additionally needs ``--base-url`` and ``--model``, which the
scripted backend refuses; the bearer token is read from the
``COBEL_API_KEY`` environment variable.

Exit codes: 0 success; 2 configuration error (a bad option value, an
unknown or malformed scenario, or more agents than it can seat), reported
before any episode runs; 3 episode failure, with the summary of the seeds
finished before it still written.
"""

from __future__ import annotations

import logging
import sys
import time
from pathlib import Path

import click

from .harness import (
    BACKENDS,
    MODES,
    ConfigError,
    EpisodeFailure,
    RunConfig,
    format_summary_table,
    run_batch,
)
from .scenario import ScenarioError, bundled_scenario_names

EXIT_CONFIG = 2
EXIT_EPISODE = 3


def parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"cannot parse seed list {text!r}") from None


@click.group()
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
def scenarios() -> None:
    """List the bundled scenario names."""
    for name in bundled_scenario_names():
        click.echo(name)


@main.command()
@click.option("--scenario", required=True, help="Scenario path or bundled name.")
@click.option("--seeds", default="1", show_default=True, help="Seed range 'a..b' or comma list.")
@click.option("--agents", default=2, show_default=True, type=int, help="Number of agents.")
@click.option("--backend", default="scripted", show_default=True, type=click.Choice(BACKENDS))
@click.option("--mode", default="adaptive", show_default=True, type=click.Choice(MODES))
@click.option("--out", "out_dir", default=None, help="Output directory (default runs/<stamp>).")
@click.option("--base-url", default=None, help="Chat completions base URL (llm backend).")
@click.option("--model", default=None, help="Model name (llm backend).")
def run(
    scenario: str,
    seeds: str,
    agents: int,
    backend: str,
    mode: str,
    out_dir: str | None,
    base_url: str | None,
    model: str | None,
) -> None:
    """Run a batch of episodes and print the summary table."""
    if out_dir is None:
        out_dir = f"runs/{time.strftime('%Y%m%d-%H%M%S')}"
    try:
        cfg = RunConfig(
            scenario=scenario,
            seeds=parse_seeds(seeds),
            agents=agents,
            backend=backend,
            mode=mode,
            out_dir=Path(out_dir),
            base_url=base_url,
            model=model,
        )
        summary = run_batch(cfg)
    except (ConfigError, ScenarioError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except EpisodeFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_EPISODE)
    click.echo(format_summary_table(summary), nl=False)
    click.echo(f"results written to {out_dir}")


if __name__ == "__main__":
    main()
