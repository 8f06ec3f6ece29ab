"""Command-line entry points: generate, evaluate, inspect, cache.

Exit codes: 0 success, 2 configuration error or broken run directory,
3 stage failure, 4 evaluation failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import click

from .config import PipelineConfig, dump_config, load_config
from .errors import ConfigError, StageError, SurveyError
from .pipeline import evaluate_run, run_pipeline
from .substrate import substrate_load

EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_EVAL = 4


def _load(config_path: str | None, topic: str | None, workdir: str | None) -> PipelineConfig:
    if config_path:
        config = load_config(config_path)
    else:
        if not topic:
            raise ConfigError("either --config or --topic is required")
        config = PipelineConfig(topic=topic)
    if topic:
        config.topic = topic
    if workdir:
        config.workdir = workdir
    if not config.topic:
        raise ConfigError("config.topic must be set")
    return config


@click.group()
def main():
    """Citation-grounded literature survey generation and evaluation."""


@main.command()
@click.option("--topic", help="Research topic for the survey.")
@click.option("--config", "config_path", type=click.Path(), help="YAML config file.")
@click.option("--workdir", type=click.Path(), help="Run directory (substrate, cache, outputs).")
@click.option("--enable-code-analysis", is_flag=True, default=False)
@click.option("--resume", is_flag=True, default=False, help="Resume the run committed in the workdir.")
@click.option("--stop-after", type=str, default=None, help="Stop after the named stage.")
def generate(topic, config_path, workdir, enable_code_analysis, resume, stop_after):
    """Run the pipeline end to end and write the survey."""
    try:
        config = _load(config_path, topic, workdir)
        if enable_code_analysis:
            config.code_analysis_enabled = True
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        result = run_pipeline(config, resume=resume, stop_after=stop_after)
    except StageError as exc:
        click.echo(f"stage failure: {exc}", err=True)
        click.echo(f"completed stages committed in {config.substrate_dir}", err=True)
        sys.exit(EXIT_STAGE)
    except SurveyError as exc:  # a bad config, or a run directory it cannot resume
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    click.echo(f"completed stages: {', '.join(result.manifest['completed_stages'])}")
    if result.survey_path:
        click.echo(f"survey: {result.survey_path}")
    click.echo(f"substrate: {config.substrate_dir}")


@main.command()
@click.option("--survey", "survey_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path())
@click.option("--topic", help="Topic (only needed without --config).")
@click.option("--workdir", type=click.Path())
def evaluate(survey_path, config_path, topic, workdir):
    """Score a survey: citation metrics plus judge content scores."""
    try:
        config = _load(config_path, topic or "evaluation", workdir)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        report = evaluate_run(config, Path(survey_path))
    except (ConfigError, SurveyError) as exc:
        click.echo(f"evaluation error: {exc}", err=True)
        sys.exit(EXIT_EVAL)
    click.echo(report.to_table().rstrip())
    if report.metric_errors:
        sys.exit(EXIT_EVAL)


@main.command()
@click.argument("selector")
@click.argument("key", required=False)
@click.option("--workdir", type=click.Path(), default="litsurvey-run")
def inspect(selector, key, workdir):
    """Print a substrate artifact: keynote <id> | clusters | cluster <id> |
    outline | analysis <id> | drafts (in drafting order: subsections, then
    sections, then the survey-level unit if refined)."""
    substrate_dir = Path(workdir) / "substrate"
    try:
        substrate = substrate_load(substrate_dir)
    except SurveyError as exc:
        click.echo(f"cannot load substrate: {exc}", err=True)
        sys.exit(EXIT_CONFIG)

    if selector == "keynote":
        keynote = substrate.keynotes.get(key or "")
        if keynote is None:
            click.echo(f"no keynote for '{key}'", err=True)
            sys.exit(1)
        for name, text in keynote.sections.items():
            if text:
                click.echo(f"{name}: {text}")
    elif selector == "clusters":
        click.echo("id\tname\tsize")
        for cluster in substrate.clusters:
            click.echo(f"{cluster.cluster_id}\t{cluster.name}\t{len(cluster.members)}")
    elif selector == "cluster":
        match = next(
            (c for c in substrate.clusters if str(c.cluster_id) == str(key)), None
        )
        if match is None:
            click.echo(f"no cluster '{key}'", err=True)
            sys.exit(1)
        click.echo(f"{match.name}: {match.summary}")
        for member in sorted(match.member_keys()):
            click.echo(f"- {member}")
    elif selector == "analysis":
        match = next(
            (a for a in substrate.analyses if str(a.cluster_id) == str(key)), None
        )
        if match is None:
            click.echo(f"no analysis for cluster '{key}'", err=True)
            sys.exit(1)
        click.echo(json.dumps(match.to_dict(), indent=2, ensure_ascii=False))
    elif selector == "outline":
        if substrate.outline is None:
            click.echo("no outline yet", err=True)
            sys.exit(1)
        click.echo(substrate.outline.title)
        for path, node in substrate.outline.walk():
            indent = "  " * len(path)
            click.echo(f"{indent}{node.title} [{len(node.assigned)} papers]")
    elif selector == "drafts":
        for draft in substrate.drafts:
            click.echo(
                f"{draft.granularity.value}: {' > '.join(draft.node_path)} "
                f"({len(draft.text.split())} words, {len(draft.citations)} citations)"
            )
    else:
        click.echo(f"unknown selector '{selector}'", err=True)
        sys.exit(EXIT_CONFIG)


@main.group()
def cache():
    """Cache maintenance."""


@cache.command("clear")
@click.option("--workdir", type=click.Path(), default="litsurvey-run")
def cache_clear(workdir):
    """Drop the api-tier disk cache of a run directory: every cached chat
    reply, embedding and paper-source response."""
    cache_dir = Path(workdir) / "cache"
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
        click.echo(f"cleared {cache_dir}")
    else:
        click.echo("nothing to clear")


@main.command("init-config")
@click.option("--topic", required=True)
@click.option("--out", type=click.Path(), default="litsurvey.yaml")
def init_config(topic, out):
    """Write a config file with every system-parameter default."""
    dump_config(PipelineConfig(topic=topic), out)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
