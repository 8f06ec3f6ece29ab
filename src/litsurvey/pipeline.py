"""Five-stage pipeline driver with resume and the run manifest.

Each completed stage commits the substrate files it owns (see
``substrate``), and that commit record alone says which stages are done,
so an interrupted run resumes after the last committed stage without
re-issuing any backend call for finished work. The record's header holds
the config hash, topic and start time of the run; it is written when a run
starts without resuming, and a resume under a different configuration is
refused (config hash mismatch).
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import analysis as analysis_mod
from . import code_analysis as code_mod
from . import refinement as refinement_mod
from . import retrieval as retrieval_mod
from . import understanding as understanding_mod
from . import writing as writing_mod
from .config import PipelineConfig
from .errors import ConfigError, StageError, SurveyError
from .evaluation import EvaluationReport, evaluate_survey, judge_survey
from .gateway import (
    BackendProfile,
    Feed,
    Gateway,
    HashEmbedder,
    HttpChatTransport,
    HttpEmbedder,
    map_bounded,
)
from .model import ClusterAnalysis, KnowledgeSubstrate, PaperRecord
from .runlog import RunLog
from .scripted import ConstantNli, HashNli, ScriptedTransport
from .sources import (
    AcademicGraphSource,
    CachedSource,
    FixtureSource,
    PaperSource,
    PreprintSource,
)
from .substrate import (
    COMMIT_FILE,
    _dump,
    _write,
    read_record,
    substrate_load,
    substrate_reset,
    substrate_save,
)
from .understanding import ParsedDocument


@dataclass
class Backends:
    gateway: Gateway
    source: PaperSource
    fallback: Optional[PaperSource] = None
    nli: object = None


def build_backends(config: PipelineConfig) -> Backends:
    backend_cfg = config.backend
    profile = BackendProfile(
        context_window=backend_cfg.context_window,
        max_attempts=backend_cfg.max_attempts,
        backoff_bounds=(backend_cfg.backoff_min, backend_cfg.backoff_max),
    )
    if backend_cfg.kind == "scripted":
        if not backend_cfg.rules_path:
            raise ConfigError("scripted backend needs rules_path")
        try:
            transport = ScriptedTransport.from_rules_file(backend_cfg.rules_path)
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot load scripted rules: {exc}") from exc
    elif backend_cfg.kind == "http":
        if not backend_cfg.url:
            raise ConfigError("http backend needs a url")
        transport = HttpChatTransport(
            backend_cfg.url,
            backend_cfg.model,
            api_key=os.environ.get(backend_cfg.api_key_env, ""),
            timeout=backend_cfg.request_timeout,
        )
    else:
        raise ConfigError(f"unknown backend kind '{backend_cfg.kind}'")

    if config.embedding.kind == "hashed":
        embedder = HashEmbedder()
    elif config.embedding.kind == "http":
        embedder = HttpEmbedder(
            config.embedding.url,
            config.embedding.model,
            api_key=os.environ.get(config.embedding.api_key_env, ""),
        )
    else:
        raise ConfigError(f"unknown embedding kind '{config.embedding.kind}'")

    gateway = Gateway(
        transport,
        embedder=embedder,
        profile=profile,
        cache_dir=str(config.cache_dir),
        cache_expiry=config.cache_expiry_seconds,
        embed_batch_size=config.embedding.batch_size,
    )

    if config.source.kind == "fixture":
        if not config.source.fixture_path:
            raise ConfigError("fixture source needs fixture_path")
        try:
            source: PaperSource = FixtureSource.from_file(config.source.fixture_path)
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot load paper fixture: {exc}") from exc
        fallback: Optional[PaperSource] = None
    elif config.source.kind == "academic-graph":
        source = AcademicGraphSource(
            config.source.base_url,
            api_key=os.environ.get(config.source.api_key_env, ""),
        )
        fallback = PreprintSource(config.source.preprint_url) if config.source.preprint_fallback else None
    else:
        raise ConfigError(f"unknown source kind '{config.source.kind}'")

    if config.evaluation.nli_kind == "constant":
        nli = ConstantNli()
    elif config.evaluation.nli_kind == "hash":
        nli = HashNli(seed=0)
    else:
        raise ConfigError(f"unknown nli kind '{config.evaluation.nli_kind}'")

    return Backends(gateway=gateway, source=source, fallback=fallback, nli=nli)


@dataclass
class RunResult:
    survey_path: Optional[Path]
    substrate: KnowledgeSubstrate
    manifest: dict
    runlog: RunLog = field(default_factory=RunLog)


class _PaperDirs:
    """The paper directories under ``root``, which is listed once: an id
    with a '/' names a nested directory."""

    def __init__(self, root: str):
        self.root = root
        try:
            with os.scandir(root) as listing:
                self.present = {e.name for e in listing if e.is_dir()}
        except (FileNotFoundError, NotADirectoryError):
            self.present = set()

    def get(self, canonical: str) -> Optional[Path]:
        if canonical.partition("/")[0] in self.present:
            path = Path(self.root, canonical)
            if "/" not in canonical or path.is_dir():
                return path
        return None


def _paper_dirs(root: str, papers: dict[str, PaperRecord]) -> dict[str, Path]:
    """canonical id -> its directory under ``root``, for the papers that
    have one, in id order."""
    dirs = _PaperDirs(root)
    return {c: path for c in sorted(papers) if (path := dirs.get(c)) is not None}


def _doc_finder(config: PipelineConfig):
    """paper -> the first Markdown file of its directory under
    ``parsed_docs_dir`` as a ParsedDocument, or None."""
    dirs = _PaperDirs(config.parsed_docs_dir) if config.parsed_docs_dir else None

    def find(record: PaperRecord) -> Optional[ParsedDocument]:
        paper_dir = dirs and dirs.get(record.id.canonical)
        if paper_dir is None:
            return None
        with os.scandir(paper_dir) as listing:
            md_files = sorted(e.path for e in listing if e.name.endswith(".md"))
        if not md_files:
            return None
        return ParsedDocument(
            paper_id=record.id,
            markdown=Path(md_files[0]).read_text(encoding="utf-8"),
            source_path=md_files[0],
        )

    return find


def _stage_retrieval(config, substrate, backends, runlog, feeds):
    # Sources are wrapped here rather than in build_backends so that
    # caller-built backends get the cache too. The scope names the endpoint,
    # never the workdir, so a cache copied to another run still hits.
    cfg = config.source
    endpoint = cfg.fixture_path if cfg.kind == "fixture" else cfg.base_url
    source = CachedSource(backends.source, backends.gateway, f"{cfg.kind} {endpoint}")
    fallback = None
    if backends.fallback is not None:
        fallback = CachedSource(backends.fallback, backends.gateway, f"preprint {cfg.preprint_url}")
    papers = retrieval_mod.run_retrieval(
        config.topic,
        config.retrieval,
        source,
        backends.gateway,
        fallback=fallback,
        runlog=runlog,
        workers=config.stage_workers,
        feed=feeds["retrieval"],
    )
    substrate.papers = {p.id.canonical: p for p in papers}


def _stage_understanding(config, substrate, backends, runlog, feeds):
    # Above one worker the papers come from retrieval's feed as its rerank
    # batches are judged; at one worker retrieval has committed them.
    papers = substrate.papers
    if config.stage_workers > 1 and "retrieval" in feeds:
        papers = feeds["retrieval"]
    substrate.keynotes = understanding_mod.run_understanding(
        papers, _doc_finder(config), backends.gateway, runlog,
        config.stage_workers, feeds["understanding"],
    )


def _stage_analysis(config, substrate, backends, runlog, feeds):
    # From understanding's feed, the keynotes come as understanding makes
    # them, with None for a skipped paper; the rest of analysis reads them
    # once the feed is closed, when understanding has committed.
    keynotes = feeds.get("understanding")
    if keynotes is None:
        keynotes = [substrate.keynotes[k] for k in sorted(substrate.keynotes)]
    proposal = analysis_mod.design_clusters(
        (k for k in keynotes if k is not None), backends.gateway, config.analysis
    )
    clusters = analysis_mod.assign_papers(proposal, substrate.keynotes, backends.gateway, runlog)
    clusters = analysis_mod.verify_and_repair(
        clusters, substrate.keynotes, backends.gateway, config.analysis, runlog=runlog
    )
    substrate.clusters = clusters
    populated = [c for c in clusters if c.members]
    # Writing reads only the clusters and their Q&A, so every cluster's
    # Q&A is asked first and handed over before the graphs and tables.
    qa = map_bounded(
        lambda cluster: analysis_mod.guided_qa(
            cluster, substrate.keynotes, substrate.papers, backends.gateway,
            config.analysis.questions_per_cluster, runlog,
        ),
        populated,
        config.stage_workers,
    )
    feeds["analysis"].put(0, (clusters, [
        ClusterAnalysis(cluster_id=c.cluster_id, qa_items=items) for c, items in zip(populated, qa)
    ]))
    substrate.analyses = map_bounded(
        lambda at: analysis_mod.analyze_cluster(
            populated[at], substrate.keynotes, substrate.papers, backends.gateway,
            qa[at], runlog,
        ),
        range(len(populated)),
        config.stage_workers,
    )
    if len(clusters) >= 2:
        substrate.inter_cluster = analysis_mod.inter_cluster_analysis(
            clusters, substrate.analyses, substrate.papers, backends.gateway, runlog
        )
    tables_dir = Path(config.workdir) / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    for item in substrate.analyses:
        if item.comparison_table is not None:
            (tables_dir / f"cluster_{item.cluster_id}.tsv").write_text(
                item.comparison_table.to_delimited(substrate.papers), encoding="utf-8"
            )


def _stage_code_analysis(config, substrate, backends, runlog):
    repos = []
    if config.repos_dir:
        repos = [
            code_mod.RepoSnapshot.from_directory(substrate.papers[canonical].id, repo_dir)
            for canonical, repo_dir in _paper_dirs(config.repos_dir, substrate.papers).items()
        ]
    loops = map_bounded(
        lambda repo: code_mod.run_pseudocode_loop(
            repo, backends.gateway, config.code_analysis, runlog=runlog
        ),
        repos,
        config.stage_workers,
    )
    # One assignment: a save running beside this stage validates the
    # substrate and iterates its reports.
    substrate.code_reports = {
        repo.paper_id.canonical: pseudocode for repo, (pseudocode, _trace) in zip(repos, loops)
    }
    pseudocodes = [(k, p) for k, p in substrate.code_reports.items() if p]
    if pseudocodes:
        substrate.code_overview = code_mod.batch_code_report(
            pseudocodes, config.topic, backends.gateway, config.code_analysis, runlog
        )
        substrate.environment_overview = code_mod.environment_report(repos, backends.gateway)


def _stage_writing(config, substrate, backends, runlog, feeds):
    # The outline fold and the citation assignment read only the clusters
    # and their Q&A, which analysis hands over before its graphs and
    # tables. Drafting reads code analysis' overviews, so it waits for
    # analysis and code analysis to commit, and only then sets a substrate
    # field.
    handoff = feeds.get("analysis")
    clusters, analyses = (
        next(iter(handoff)) if handoff else (substrate.clusters, substrate.analyses)
    )
    ctx = writing_mod.WritingContext(
        papers=substrate.papers,
        keynotes=substrate.keynotes,
        clusters=clusters,
        analyses=analyses,
        cfg=config.writing,
        gateway=backends.gateway,
        runlog=runlog,
    )
    outline = writing_mod.draft_outline(ctx, config.topic)
    writing_mod.apply_assignment(outline, writing_mod.assign_citations(ctx, outline))
    for stage in ("analysis", "code_analysis"):
        if stage in feeds:
            feeds[stage].wait_closed()
    if config.code_analysis_enabled:
        ctx.extra_context = f"{substrate.code_overview}\n{substrate.environment_overview}".strip()
    substrate.outline = outline
    substrate.drafts = writing_mod.draft_all_units(
        ctx, outline, config.stage_workers, feeds["writing"]
    )


def _stage_refinement(config, substrate, backends, runlog, feeds):
    ctx = refinement_mod.RefinementContext.from_substrate(
        substrate,
        backends.gateway,
        cfg=config.refinement,
        style=config.writing.citation_style,
        runlog=runlog,
    )
    substrate.drafts = refinement_mod.refine_all(
        feeds.get("writing", substrate.drafts),
        ctx,
        use_fallback_loop=config.use_skill_loop_fallback,
        workers=config.stage_workers,
    )


#: stage -> its function (config, substrate, backends, runlog[, feeds]): a
#: stage that puts on or reads from a Feed also takes the Feed of every
#: stage of the run (see _run_stages).
_STAGE_FUNCTIONS = {
    "retrieval": _stage_retrieval,
    "understanding": _stage_understanding,
    "analysis": _stage_analysis,
    "code_analysis": _stage_code_analysis,
    "writing": _stage_writing,
    "refinement": _stage_refinement,
}


def _write_manifest(config, config_hash, backends, runlog, stage_seconds, failed=None) -> dict:
    """``stage_seconds`` covers every committed stage, this run's and those
    a resume loaded from the commit record; ``failed`` names a failed stage."""
    manifest = {
        "topic": config.topic,
        "config_hash": config_hash,
        "backend": {"kind": config.backend.kind, "model": config.backend.model},
        "embedding": config.embedding.kind,
        "source": config.source.kind,
        "completed_stages": list(stage_seconds),
        "failed_stage": failed,
        "stage_seconds": dict(stage_seconds),
        "transport_calls": backends.gateway.transport_calls,
        "cache_hits": backends.gateway.cache_hits,
        "attribution_events": len(runlog.attribution_events()),
    }
    _dump(config.manifest_path, manifest)
    return manifest


#: How a stage waits for an input, above one worker: once it has
#: COMMITTED, or beside it, FED from its Feed as it runs (the stage's clock
#: starts at the first item).
COMMITTED, FED = "committed", "fed"

#: stage -> the input it waits for before it starts, above one worker, and
#: how; retrieval starts at once. Understanding keynotes the papers each
#: rerank batch keeps as soon as the batch is judged, and hands each
#: keynote on once retrieval has committed and the keynote's place in
#: paper-id order is known. The cluster-design fold takes the keynotes as
#: understanding hands them on. Code analysis reads only the papers, but
#: starts once understanding has committed, beside analysis.
#: Writing's outline fold and citation assignment start from the clusters
#: and their Q&A, which analysis hands over before its graphs and tables;
#: drafting then waits for analysis and code analysis to commit. Each
#: section and subsection starts refining once writing has accepted it and
#: every unit before it in drafting order.
_INPUTS = {
    "understanding": ("retrieval", FED),
    "analysis": ("understanding", FED),
    "code_analysis": ("understanding", COMMITTED),
    "writing": ("analysis", FED),
    "refinement": ("writing", FED),
}
#: the stages that put on or read from a Feed
_TAKES_FEEDS = {s for stage, (source, how) in _INPUTS.items() if how == FED for s in (source, stage)}


def _run_stages(plan, config, substrate, backends, runlog) -> Optional[tuple[str, SurveyError]]:
    """Run the stages of ``plan`` and commit each one, in run order, as
    soon as it and every earlier stage have finished; returns the first
    failed stage and its error, or None.

    Every stage of the plan has a Feed, closed once the stage commits: the
    stage puts there what a later one reads while it runs, and a later
    stage reads it or waits for it to close; a stage not in the plan is
    read from the substrate. At one worker each stage runs on the calling
    thread once the one before it has committed, so it finds every feed it
    reads closed and runs as it would alone. Above one worker each later
    stage starts on a thread of its own as soon as its ``_INPUTS`` entry
    allows, checked as each stage's turn to commit comes, and a stage fed
    by another waits for its feed's first item before its clock starts.
    Each stage has at most ``stage_workers`` calls in flight, and these
    overlap: retrieval's rerank fan-out and understanding; understanding
    and the serial design fold; analysis, code analysis and writing's
    serial outline fold or citation assignment; drafting and refinement.
    So at most 2 × ``stage_workers`` + 1 calls are in flight. No stage
    changes a substrate field before the stages it reads from have
    committed.

    Each stage logs apart; its events join ``runlog`` once it has ended,
    in stage order. ``stage_seconds`` is each stage's own duration. Once a
    stage has failed, no further stage starts beside the one being
    committed. A stage already running stops at its next read of a feed
    (code analysis reads none and runs to its end), and neither commits
    nor logs; the replies of its calls are cached.
    """
    overlap = config.stage_workers > 1
    feeds = {stage: Feed() for stage in plan}
    logs = {stage: RunLog() for stage in plan}
    failed = threading.Event()

    def ready(stage: str, started: set, committed: list) -> bool:
        source, how = _INPUTS.get(stage, (None, None))
        return source not in feeds or source in (started if how == FED else committed)

    def run_stage(stage: str):
        source, how = _INPUTS.get(stage, (None, None))
        if how == FED and source in feeds:
            feeds[source].arrivals()
        started = time.monotonic()
        args = (feeds,) if stage in _TAKES_FEEDS else ()
        try:
            _STAGE_FUNCTIONS[stage](config, substrate, backends, logs[stage], *args)
        except SurveyError as exc:
            failed.set()
            return exc, 0.0
        return None, round(time.monotonic() - started, 3)

    # The stage being committed runs on the calling thread unless it was
    # started earlier, so a run at one worker uses no other thread and an
    # interrupt stops it at once.
    with ThreadPoolExecutor(max_workers=len(_STAGE_FUNCTIONS)) as pool:
        running = {}
        try:
            for at, stage in enumerate(plan):
                if overlap and not failed.is_set():
                    started = {*plan[: at + 1], *running}
                    for later in plan[at + 1:]:
                        if later not in started and ready(later, started, plan[:at]):
                            running[later] = pool.submit(run_stage, later)
                            started.add(later)
                ahead = running.pop(stage, None)
                try:
                    error, seconds = ahead.result() if ahead else run_stage(stage)
                finally:
                    runlog.events.extend(logs[stage].events)
                if error is not None:
                    return stage, error
                substrate.stage_seconds[stage] = seconds
                substrate_save(substrate, config.substrate_dir, stage)
                feeds[stage].close()
        finally:
            for feed in feeds.values():
                feed.abort()
    return None


def _write_survey(config: PipelineConfig, assembled: writing_mod.AssembledSurvey) -> None:
    """Write the sidecar, then the survey, each atomically. A survey that
    changes is removed first, so a crash at any point leaves the old pair,
    the new pair, or a sidecar with no survey, which evaluate refuses."""
    survey = config.survey_path
    try:
        unchanged = survey.read_text(encoding="utf-8") == assembled.document
    except (OSError, UnicodeDecodeError):
        unchanged = False
    if not unchanged:
        survey.unlink(missing_ok=True)
    _write(config.sidecar_path, assembled.sidecar_json())
    _write(survey, assembled.document)


def run_pipeline(
    config: PipelineConfig,
    backends: Optional[Backends] = None,
    resume: bool = False,
    stop_after: Optional[str] = None,
    runlog: Optional[RunLog] = None,
) -> RunResult:
    """Execute the enabled stages, committing each one's substrate files.

    ``stop_after`` ends the run early (simulating interruption), and no
    stage after it starts; ``resume`` picks up from the commit record,
    refusing on a config-hash mismatch. Above one worker, each stage
    starts as soon as what it reads is ready; the requests, commits, log
    and outputs stay the serial run's (see :func:`_run_stages`). A failed
    stage raises StageError after the manifest names it.
    """
    if not config.topic:
        raise ConfigError("config.topic must be non-empty")
    runlog = runlog or RunLog()
    backends = backends or build_backends(config)
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config_hash = config.config_hash()

    substrate_dir = config.substrate_dir
    # A run stopped before its first record was in place leaves a substrate
    # directory without one, empty or holding the torn record's temporary
    # file. No stage file is written before the record, so there is
    # nothing to resume and the run starts afresh.
    if resume and substrate_dir.is_dir() and not (substrate_dir / COMMIT_FILE).exists():
        resume = False
    if resume:
        record = read_record(substrate_dir)
        if record["config_hash"] != config_hash:
            raise ConfigError(
                "refusing to resume: the configuration changed since the "
                f"run started (was {record['config_hash']}, now {config_hash})"
            )
        created_at = record["created_at"]
        substrate = substrate_load(substrate_dir, record)
        runlog.add("resumed", completed=list(substrate.stage_seconds))
    else:
        created_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        substrate = KnowledgeSubstrate()
        substrate_reset(
            substrate_dir, config_hash=config_hash, topic=config.topic, created_at=created_at
        )

    # The in-memory substrate's stage_seconds mirrors the commit record.
    stage_seconds = substrate.stage_seconds
    pending = []
    for stage in config.enabled_stages():
        if stage in stage_seconds:
            runlog.add("stage_skipped", stage=stage)
        else:
            pending.append(stage)
    if stop_after in pending:
        pending = pending[: pending.index(stop_after) + 1]
    failure = _run_stages(pending, config, substrate, backends, runlog)
    if failure is not None:
        stage, error = failure
        _write_manifest(config, config_hash, backends, runlog, stage_seconds, failed=stage)
        raise StageError(stage, error) from error

    survey_path: Optional[Path] = None
    all_done = all(s in stage_seconds for s in config.enabled_stages())
    if all_done and substrate.outline is not None:
        assembled = writing_mod.assemble_survey(
            substrate.outline,
            substrate.drafts,
            substrate.papers,
            config.writing.citation_style,
            topic=config.topic,
            generated_at=created_at,
            config_hash=config_hash,
        )
        _write_survey(config, assembled)
        survey_path = config.survey_path

    manifest = _write_manifest(config, config_hash, backends, runlog, stage_seconds)
    return RunResult(
        survey_path=survey_path,
        substrate=substrate,
        manifest=manifest,
        runlog=runlog,
    )


def _premises(config: PipelineConfig, citation_map: dict) -> tuple[dict[str, str], set[str]]:
    """The evidence text of each paper, per ``evaluation.premise_source``,
    and the papers a citation may resolve to: the run's substrate when it
    has one, else the sidecar's entries with their titles as evidence."""
    if not config.substrate_dir.exists():
        entries = citation_map.get("entries", [])
        return (
            {str(e["paper_id"]): str(e["title"]) for e in entries},
            {str(e["paper_id"]) for e in entries},
        )
    substrate = substrate_load(config.substrate_dir)
    source_kind = config.evaluation.premise_source
    premises: dict[str, str] = {}
    for canonical, record in substrate.papers.items():
        keynote = substrate.keynotes.get(canonical)
        if source_kind == "keynote" and keynote is not None:
            premises[canonical] = keynote.tldr
        elif source_kind == "tldr":
            premises[canonical] = record.tldr or record.abstract
        else:
            premises[canonical] = record.abstract or record.tldr
    return premises, set(substrate.papers)


def evaluate_run(
    config: PipelineConfig,
    survey_path: Path,
    backends: Optional[Backends] = None,
) -> EvaluationReport:
    """Score an assembled survey: citation metrics against the sidecar plus
    judge content scoring. Writes report.json and report.tsv next to it.

    The judge rounds need only the survey text, so they start first, up to
    ``stage_workers`` at once, and run while this thread loads the substrate
    and computes the citation metrics. If that local work raises, no
    further round starts, the rounds in flight finish (their replies are
    cached), and the error propagates.
    """
    survey_path = Path(survey_path)
    sidecar_path = survey_path.with_suffix(".citations.json")
    if not sidecar_path.exists():
        sidecar_path = Path(str(survey_path).removesuffix(".md") + ".citations.json")
    if not survey_path.exists():
        raise ConfigError(f"survey not found: {survey_path}")
    if not sidecar_path.exists():
        raise ConfigError(f"citation sidecar not found: {sidecar_path}")
    backends = backends or build_backends(config)
    survey_text = survey_path.read_text(encoding="utf-8")
    citation_map = json.loads(sidecar_path.read_text(encoding="utf-8"))

    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as pool:
        judged = pool.submit(
            judge_survey,
            survey_text,
            backends.gateway,
            config.evaluation.judge_rounds,
            config.evaluation.explanations,
            config.stage_workers,
            stop,
        )
        try:
            premises, universe = _premises(config, citation_map)
            report = evaluate_survey(
                survey_text,
                citation_map,
                nli=backends.nli,
                premises=premises,
                universe=universe,
                judge=judged.result,
            )
        finally:
            stop.set()
    base = survey_path.with_suffix("")
    Path(f"{base}.report.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    Path(f"{base}.report.tsv").write_text(report.to_table(), encoding="utf-8")
    return report
