"""Five-stage pipeline driver with resume and the run manifest.

Each completed stage commits the substrate files it owns (see
``substrate``), and that commit record alone says which stages are done,
so an interrupted run resumes after the last committed stage without
re-issuing any backend call for finished work. The record's header holds
the config hash, topic and start time of the run; it is written when a run
starts without resuming, and a resume under a different configuration is
refused (config hash mismatch). Once the survey and its sidecar are
written, the record also holds their digests, and a resume of the
finished run that finds both unchanged only checks the files' digests and
writes the manifest.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

from . import analysis as analysis_mod
from . import code_analysis as code_mod
from . import refinement as refinement_mod
from . import retrieval as retrieval_mod
from . import understanding as understanding_mod
from . import writing as writing_mod
from .config import PipelineConfig
from .errors import ConfigError, StageError, SurveyError
from .evaluation import EvaluationReport, evaluate_survey, judge_survey
from .fanout import CallBudget, Feed, FeedAborted, call_slots, map_bounded
from .gateway import BackendProfile, Gateway, HashEmbedder, HttpChatTransport, HttpEmbedder
from .model import STAGES, ClusterAnalysis, KnowledgeSubstrate, PaperRecord
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
    record_survey,
    substrate_load,
    substrate_reset,
    substrate_save,
    survey_verified,
)
from .understanding import ParsedDocument


@dataclass
class Backends:
    gateway: Gateway
    source: PaperSource
    fallback: Optional[PaperSource] = None
    nli: object = None
    #: counts the paper-source calls in flight, for the manifest; it bounds
    #: nothing, and a source call holds none of the gateway's slots
    source_calls: CallBudget = field(default_factory=CallBudget)


def build_backends(config: PipelineConfig) -> Backends:
    """The gateway, sources and NLI model a run's config names.

    The gateway holds the run's :class:`CallBudget` for chat sends and
    embedding batches, of :func:`call_slots` (``stage_workers``) slots; a
    paper-source call holds none of them. The gateway's cache scopes name
    each backend by its kind, endpoint (or rules file) and model: a rerun
    in the same workdir over another backend misses the first one's
    answers. They name neither the workdir nor an API key, so a cache
    copied to another run, or read with another key, still hits.
    """
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
    endpoint = backend_cfg.rules_path if backend_cfg.kind == "scripted" else backend_cfg.url

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
        chat_scope=f"{backend_cfg.kind} {endpoint} {backend_cfg.model}",
        embed_scope=f"{config.embedding.kind} {config.embedding.url} {config.embedding.model}",
        budget=CallBudget(call_slots(config.stage_workers)),
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
    manifest: dict
    runlog: RunLog
    #: returns the run's committed substrate, called when ``substrate`` is
    #: first read
    loader: Callable[[], KnowledgeSubstrate]

    @cached_property
    def substrate(self) -> KnowledgeSubstrate:
        return self.loader()


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
    counter = backends.source_calls
    source = CachedSource(backends.source, backends.gateway, f"{cfg.kind} {endpoint}", counter)
    fallback = None
    if backends.fallback is not None:
        fallback = CachedSource(
            backends.fallback, backends.gateway, f"preprint {cfg.preprint_url}", counter
        )
    papers = retrieval_mod.run_retrieval(
        config.topic,
        config.retrieval,
        source,
        backends.gateway,
        feeds["retrieval"],
        fallback=fallback,
        runlog=runlog,
        workers=call_slots(config.stage_workers),
    )
    substrate.papers = {p.id.canonical: p for p in papers}


def _stage_understanding(config, substrate, backends, runlog, feeds):
    substrate.keynotes = understanding_mod.run_understanding(
        feeds["retrieval"], _doc_finder(config), backends.gateway, feeds["understanding"],
        runlog, call_slots(config.stage_workers),
    )


def _stage_analysis(config, substrate, backends, runlog, feeds):
    # From understanding's feed, the keynotes come as understanding makes
    # them, each under its paper's place, with None for a skipped paper;
    # retrieval has committed by then, so the places are counted. The rest
    # of analysis reads the keynotes once understanding has committed.
    proposal = analysis_mod.design_clusters(
        feeds["understanding"], sum(map(len, feeds["retrieval"])), backends.gateway,
        feeds["analysis"], config.analysis, call_slots(config.stage_workers),
    )
    feeds["understanding"].wait_closed()
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
        call_slots(config.stage_workers),
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
        call_slots(config.stage_workers),
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


def _stage_code_analysis(config, substrate, backends, runlog, feeds):
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
        call_slots(config.stage_workers),
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
    feeds["code_analysis"].put(0, (substrate.code_overview, substrate.environment_overview))


def _stage_writing(config, substrate, backends, runlog, feeds):
    # The outline and the citation assignment read only the clusters
    # and their Q&A, which analysis hands over before its graphs and
    # tables. Drafting reads code analysis' overviews from its feed, so it
    # waits for analysis and code analysis to commit, and only then sets a
    # substrate field.
    handoff, overviews = feeds["analysis"], feeds["code_analysis"]
    clusters, analyses = next(iter(handoff))
    ctx = writing_mod.WritingContext(
        papers=substrate.papers,
        keynotes=substrate.keynotes,
        clusters=clusters,
        analyses=analyses,
        cfg=config.writing,
        gateway=backends.gateway,
        runlog=runlog,
    )
    outline = writing_mod.draft_outline(
        ctx, config.topic, feeds["writing"], call_slots(config.stage_workers)
    )
    writing_mod.apply_assignment(outline, writing_mod.assign_citations(ctx, outline))
    handoff.wait_closed()
    for code_overview, environment_overview in overviews:
        ctx.extra_context = f"{code_overview}\n{environment_overview}".strip()
    substrate.outline = outline
    substrate.drafts = writing_mod.draft_all_units(
        ctx, outline, feeds["writing"], call_slots(config.stage_workers)
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
        feeds["writing"],
        ctx,
        use_fallback_loop=config.use_skill_loop_fallback,
        workers=call_slots(config.stage_workers),
    )


#: stage -> its function (config, substrate, backends, runlog, feeds),
#: which reads its input only from the Feed of each stage (see _run_stages)
#: and puts its own output on its own.
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
        "call_slots": backends.gateway.budget.size,
        "peak_calls_in_flight": backends.gateway.budget.peak,
        "peak_source_calls_in_flight": backends.source_calls.peak,
        "attribution_events": len(runlog.attribution_events()),
    }
    _dump(config.manifest_path, manifest)
    return manifest


#: How a stage waits for its input: until it has COMMITTED, or beside it,
#: FED from its Feed (the stage's clock then starts at the first item).
COMMITTED, FED = "committed", "fed"

#: stage -> its input and how it waits for it (at one worker the input has
#: committed by then); a stage with no entry starts at once, and so does
#: one whose input is not in the run, as it reads a closed feed. Retrieval
#: judges each rerank batch as soon as its papers are filtered, while the
#: neighbors of later papers are still being fetched; understanding
#: keynotes the papers each batch keeps as soon as it is judged, the lowest
#: paper id over every batch judged by then first, and hands each keynote
#: on once retrieval has committed and the keynote's place in paper-id
#: order is known. The cluster design takes the keynotes as understanding
#: hands them on, so it starts when retrieval commits: each batch's call
#: goes out once its keynotes are in and the earlier calls it merges have
#: returned (see ``fanout.merge_tree``), the lowest ids going first so that
#: the leaves' batches fill first. Code analysis reads only the papers, but
#: starts once understanding has committed, beside analysis. Writing's
#: outline merge, whose leaves all go out at once, and its citation
#: assignment start from the clusters and their Q&A, which analysis hands
#: over before its graphs and tables; drafting then waits for analysis to
#: commit, and takes code analysis' overviews from its feed, which ends at
#: its commit. Each section and subsection starts refining once writing has
#: accepted it and every unit before it in drafting order. A stage left
#: alone, as refinement is once writing has committed, may fill the whole
#: CallBudget.
_INPUTS = {
    "understanding": ("retrieval", FED),
    "analysis": ("understanding", FED),
    "code_analysis": ("understanding", COMMITTED),
    "writing": ("analysis", FED),
    "refinement": ("writing", FED),
}

#: stage -> its Feed's (index, item) pairs once it has committed, from the
#: substrate, for a stage an earlier run committed: as the running stage's
#: feed, with the None of a skipped paper's keynote, so that the design's
#: batches are the same, or with more (the full analyses, of which writing
#: reads only the Q&A).
_REPLAY = {
    "retrieval": lambda s: [(0, [s.papers[k] for k in sorted(s.papers)])],
    "understanding": lambda s: enumerate(s.keynotes.get(k) for k in sorted(s.papers)),
    "analysis": lambda s: [(0, (s.clusters, s.analyses))],
    "code_analysis": lambda s: [(0, (s.code_overview, s.environment_overview))],
    "writing": lambda s: enumerate(s.drafts),
    "refinement": lambda s: (),
}


def _run_stages(plan, config, substrate, backends, runlog) -> Optional[tuple[str, SurveyError]]:
    """Run the stages of ``plan`` and commit each one, in run order, as
    soon as it and every earlier stage have finished; returns the first
    failed stage and its error, or None.

    The stages are one :func:`map_bounded` over the plan: 1 wide at one
    worker, where each runs on the calling thread once the one before it
    has committed, and as wide as the plan above one worker, where each
    holds its worker until the last stage's feed has ended. Every stage
    has a Feed, and every stage reads its input only from the feeds. A
    stage of the plan puts on its own what a later one reads while it
    runs. Before the fan-out starts, the feed of a stage an earlier run
    committed is filled with its output from the substrate (``_REPLAY``)
    and closed, and that of a stage disabled or after ``stop_after`` is
    closed empty. A stage waits for its ``_INPUTS`` entry, runs, and waits
    for the feed of the stage before it to close; then it joins its events
    to ``runlog``, records its own duration in ``stage_seconds``, saves,
    and closes its feed: that is its commit. Stages side by side share the
    gateway's :class:`CallBudget`, so at most 2 × ``stage_workers`` model
    calls are in flight in all. No stage changes a substrate field before
    those it reads have committed.

    A stage that fails (a SurveyError) aborts its feed and joins its events
    in turn. A stage that reads that feed stops at its next read (code
    analysis reads none and runs to its end), aborts its own feed, and
    neither commits nor logs; the replies of its calls are cached. Once a
    stage has failed, a stage not yet started waits for the one before it
    to commit. Any other exception, an interrupt or a failed save, aborts
    every feed and is raised.
    """
    feeds = {stage: Feed() for stage in STAGES}
    for stage in set(STAGES) - set(plan):
        for index, item in _REPLAY[stage](substrate) if stage in substrate.stage_seconds else ():
            feeds[stage].put(index, item)
        feeds[stage].close()
    failed = threading.Event()

    def abort_every_feed():
        for stage in STAGES:
            feeds[stage].abort()

    def run_stage(at: int, stage: str) -> Optional[Exception]:
        source, how = _INPUTS.get(stage, (None, None))
        before = feeds[plan[at - 1]] if at else None
        log, error = RunLog(), None
        try:
            if source:
                feeds[source].arrivals() if how == FED else feeds[source].wait_closed()
            if before and failed.is_set():
                before.wait_closed()
            started = time.monotonic()
            try:
                _STAGE_FUNCTIONS[stage](config, substrate, backends, log, feeds)
            except SurveyError as exc:
                failed.set()
                feeds[stage].abort()
                error = exc
            seconds = round(time.monotonic() - started, 3)
            if before:
                before.wait_closed()
            runlog.events.extend(log.events)
            if error is None:
                substrate.stage_seconds[stage] = seconds
                substrate_save(substrate, config.substrate_dir, stage)
                feeds[stage].close()
        except FeedAborted as exc:
            feeds[stage].abort()
            error = exc
        return error

    def hold_stage(pair: tuple[int, str]) -> Optional[Exception]:
        try:
            error = run_stage(*pair)
            if width > 1:
                # No worker takes a second stage, so the calling thread
                # runs one to the end, and an interrupt to it aborts every feed.
                with suppress(FeedAborted):
                    feeds[plan[-1]].wait_closed()
            return error
        except BaseException:
            abort_every_feed()
            raise

    width = len(plan) if config.stage_workers > 1 else 1
    try:
        errors = map_bounded(hold_stage, list(enumerate(plan)), width)
    except BaseException:
        abort_every_feed()  # interrupted before the calling thread took a stage
        raise
    return next(((stage, error) for stage, error in zip(plan, errors) if error is not None), None)


def _write_survey(config: PipelineConfig, assembled: writing_mod.AssembledSurvey) -> None:
    """Write the sidecar, then the survey, each atomically, and then record
    both digests in the commit record. A survey that changes is removed
    first, so a crash at any point leaves the old pair, the new pair, or a
    sidecar with no survey, which evaluate refuses; until the record holds
    the digests, a resume assembles the survey again."""
    survey = config.survey_path
    try:
        unchanged = survey.read_text(encoding="utf-8") == assembled.document
    except (OSError, UnicodeDecodeError):
        unchanged = False
    if not unchanged:
        survey.unlink(missing_ok=True)
    sidecar = _write(config.sidecar_path, assembled.sidecar_json())
    document = _write(survey, assembled.document)
    record_survey(config.substrate_dir, document, sidecar)


def _resume_finished(config, config_hash, backends, runlog, record) -> Optional[RunResult]:
    """The resume of a finished run whose commit record vouches for its
    survey and sidecar as they are now (see :func:`survey_verified`), or
    None when it does not. Every file the record lists is checked against
    its digest, but none is decoded and nothing is assembled: the run logs
    and writes what a resume through every stage would, and its substrate
    is loaded only when the result's ``substrate`` is read."""
    stage_seconds = {e["stage"]: e["seconds"] for e in record["stages"]}
    enabled = config.enabled_stages()
    substrate_dir = config.substrate_dir
    if not (
        stage_seconds.keys() >= set(enabled)
        and survey_verified(substrate_dir, record, config.survey_path, config.sidecar_path)
    ):
        return None
    runlog.add("resumed", completed=list(stage_seconds))
    for stage in enabled:
        runlog.add("stage_skipped", stage=stage)
    return RunResult(
        survey_path=config.survey_path,
        manifest=_write_manifest(config, config_hash, backends, runlog, stage_seconds),
        runlog=runlog,
        loader=lambda: substrate_load(substrate_dir, record),
    )


def run_pipeline(
    config: PipelineConfig,
    backends: Optional[Backends] = None,
    resume: bool = False,
    stop_after: Optional[str] = None,
) -> RunResult:
    """Execute the enabled stages, committing each one's substrate files.

    ``stop_after`` ends the run early (simulating interruption), and no
    stage after it starts; ``resume`` picks up from the commit record,
    refusing on a config-hash mismatch (see :func:`_resume_finished` for a
    finished run). Above one worker, each stage
    starts as soon as what it reads is ready; the requests, commits, log
    and outputs stay the serial run's (see :func:`_run_stages`). A failed
    stage raises StageError after the manifest names it.
    """
    if not config.topic:
        raise ConfigError("config.topic must be non-empty")
    runlog = RunLog()
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
        finished = _resume_finished(config, config_hash, backends, runlog, record)
        if finished is not None:
            return finished
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
        manifest=manifest,
        runlog=runlog,
        loader=lambda: substrate,
    )


def _premises(config: PipelineConfig, citation_map: dict) -> tuple[dict[str, str], set[str]]:
    """The evidence text of each paper, per ``evaluation.premise_source``,
    and the papers a citation may resolve to: the run's substrate when it
    has one, else the sidecar's entries with their titles as evidence.

    Of the substrate only retrieval's papers are loaded, and
    understanding's keynotes when they are the evidence: each file is
    checked against the commit record and the loaded part is validated,
    and no other file is read."""
    if not config.substrate_dir.exists():
        entries = citation_map.get("entries", [])
        return (
            {str(e["paper_id"]): str(e["title"]) for e in entries},
            {str(e["paper_id"]) for e in entries},
        )
    source_kind = config.evaluation.premise_source
    stages = ("retrieval", "understanding") if source_kind == "keynote" else ("retrieval",)
    substrate = substrate_load(config.substrate_dir, stages=stages)
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
    :func:`call_slots` (``stage_workers``) at once, and run while this
    thread loads the premises and computes the citation metrics. That
    local work holds the interpreter, so it waits until the first wave of
    rounds is out: until the gateway has sent or answered from its cache
    that many more requests (see :meth:`Gateway.wait_requests`), or
    judging has ended. It never waits for a round to return. If the local work raises, no
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

    gateway = backends.gateway
    rounds = config.evaluation.judge_rounds
    width = call_slots(config.stage_workers)
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as pool:
        first_wave = gateway.requests_out() + min(width, rounds)
        judged = pool.submit(
            judge_survey,
            survey_text,
            gateway,
            rounds,
            config.evaluation.explanations,
            width,
            stop,
        )
        judged.add_done_callback(lambda _: gateway.wake())
        try:
            gateway.wait_requests(first_wave, judged.done)
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
    # Both go through survey.report.tmp, one after the other.
    _write(Path(f"{base}.report.json"), json.dumps(report.to_dict(), indent=2) + "\n")
    _write(Path(f"{base}.report.tsv"), report.to_table())
    return report
