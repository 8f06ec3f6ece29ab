from __future__ import annotations

import copy
import hashlib
import json
import re
import shutil
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import pytest

from litsurvey import caching as caching_mod
from litsurvey import gateway as gateway_mod
from litsurvey import pipeline as pipeline_mod
from litsurvey import substrate as substrate_mod
from litsurvey.config import EvaluationRunConfig, PipelineConfig, dump_config, load_config
from litsurvey.errors import (
    ConfigError,
    DraftingError,
    JudgeError,
    LoadError,
    PersistenceError,
    RetrievalError,
    StageError,
)
from litsurvey.evaluation import RUBRIC_DIMENSIONS, extract_claims, strip_front_matter
from litsurvey.gateway import TransportResponse
from litsurvey.model import CitationStyle, Granularity, KnowledgeSubstrate
from litsurvey.pipeline import build_backends, evaluate_run, run_pipeline
from litsurvey.sources import FixtureSource
from litsurvey.substrate import read_record, substrate_load, substrate_save
from litsurvey.writing import check_evidence_locality

from conftest import CountingSource, make_paper
from e2e_fixture import (
    ALL_IDS,
    SEEDS,
    TOPIC,
    enable_code_analysis,
    make_config,
    scripted_rules,
    title_of,
)


class InlineExecutor:
    """Stands in for ThreadPoolExecutor: runs each task as it is submitted,
    on the calling thread, so a multi-worker run starts no thread."""

    def __init__(self, max_workers: int):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


def fresh_run(tmp_path: Path, **kwargs):
    config = make_config(tmp_path)
    backends = build_backends(config)
    result = run_pipeline(config, backends=backends, **kwargs)
    return config, backends, result


class TestEndToEnd:
    def test_full_run_produces_survey_and_substrate(self, tmp_path):
        config, backends, result = fresh_run(tmp_path)
        assert result.survey_path is not None and result.survey_path.exists()
        assert config.sidecar_path.exists()
        substrate = substrate_load(config.substrate_dir)
        assert len(substrate.papers) == 12
        assert len(substrate.keynotes) == 12
        assert len(substrate.clusters) == 3
        assert substrate.outline is not None
        assert substrate.inter_cluster

    def test_valid_citation_closure(self, tmp_path):
        config, _, result = fresh_run(tmp_path)
        document = result.survey_path.read_text()
        sidecar = json.loads(config.sidecar_path.read_text())
        numbers = {e["number"] for e in sidecar["entries"]}
        body = document.split("## References")[0]
        cited = {int(n) for n in re.findall(r"\[(\d+)\]", body)}
        assert cited, "survey must cite something"
        assert cited <= numbers, "every in-text mark resolves to a bibliography entry"
        listed = {
            int(m.group(1))
            for m in re.finditer(r"^\[(\d+)\]", document.split("## References")[1], re.M)
        }
        assert numbers == listed, "bibliography matches the sidecar"
        assert cited == numbers, "no orphan bibliography entries"

    def test_evidence_locality_holds_for_every_unit(self, tmp_path):
        config, _, result = fresh_run(tmp_path)
        substrate = result.substrate
        units = [d for d in substrate.drafts if d.granularity is not Granularity.SURVEY]
        assert units
        assert check_evidence_locality(substrate.outline, units) == []

    def test_substrate_round_trips_after_run(self, tmp_path):
        config, _, result = fresh_run(tmp_path)
        loaded = substrate_load(config.substrate_dir)
        assert loaded == result.substrate

    def test_manifest_records_run_facts(self, tmp_path):
        config, backends, result = fresh_run(tmp_path)
        manifest = json.loads(config.manifest_path.read_text())
        assert manifest["topic"] == TOPIC
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["transport_calls"] > 0
        assert set(manifest["completed_stages"]) == {
            "retrieval", "understanding", "analysis", "writing", "refinement",
        }

    def test_comparison_tables_exported_per_cluster(self, tmp_path):
        config, _, _ = fresh_run(tmp_path)
        tables = sorted((Path(config.workdir) / "tables").glob("cluster_*.tsv"))
        assert len(tables) == 3
        body = tables[0].read_text()
        assert body.startswith("paper\t")

    def test_skill_loop_fallback_replaces_the_planner(self, tmp_path):
        config = make_config(tmp_path)
        config.use_skill_loop_fallback = True
        backends = build_backends(config)
        result = run_pipeline(config, backends=backends)
        assert result.survey_path is not None
        transport = backends.gateway.transport
        assert not [c for c in transport.calls if "coordinate refinement" in c.prompt]
        assert [c for c in transport.calls if "Review this" in c.prompt]

    def test_bounded_workers_match_serial_output(self, tmp_path):
        def run(variant: str, workers: int):
            root = tmp_path / variant / f"workers{workers}"
            config = make_config(root)
            if variant == "code_analysis":
                enable_code_analysis(config, root)
            config.use_skill_loop_fallback = variant == "skill_loop"
            config.stage_workers = workers
            backends = build_backends(config)
            result = run_pipeline(config, backends=backends)
            return config, result, sorted(c.prompt for c in backends.gateway.transport.calls)

        for variant in ("plain", "code_analysis", "skill_loop"):
            serial_cfg, serial, serial_prompts = run(variant, 1)
            parallel_cfg, parallel, parallel_prompts = run(variant, 8)
            assert parallel_prompts == serial_prompts, variant
            assert parallel.substrate.drafts == serial.substrate.drafts, variant
            assert parallel.substrate.code_reports == serial.substrate.code_reports, variant
            assert parallel.substrate == serial.substrate, variant
            assert (variant == "code_analysis") == bool(serial.substrate.code_reports)
            assert parallel_cfg.sidecar_path.read_bytes() == serial_cfg.sidecar_path.read_bytes()
            assert (parallel_cfg.substrate_dir / "papers.json").read_bytes() == (
                serial_cfg.substrate_dir / "papers.json"
            ).read_bytes(), variant
            assert retrieval_events(parallel.runlog) == retrieval_events(serial.runlog), variant
            assert retrieval_events(serial.runlog), variant
            assert strip_front_matter(parallel_cfg.survey_path.read_text()) == strip_front_matter(
                serial_cfg.survey_path.read_text()
            ), variant

    def test_drafting_failure_under_workers_matches_the_serial_error(self, tmp_path):
        def run(workers: int) -> StageError:
            config = script_drafting_failure(make_config(tmp_path / f"workers{workers}"))
            config.stage_workers = workers
            with pytest.raises(StageError) as err:
                run_pipeline(config, backends=build_backends(config))
            return err.value

        serial, parallel = run(1), run(4)
        assert serial.stage == parallel.stage == "writing"
        assert isinstance(parallel.cause, DraftingError)
        assert str(parallel) == str(serial)


RETRIEVAL_EVENTS = {
    "source_failure", "fallback_source_used", "seed_rejected", "neighbor_fetch_refused",
    "expansion_skipped", "rerank_retained", "rerank_dropped",
}


def retrieval_events(runlog) -> list[dict]:
    return [e for e in runlog.events if e["kind"] in RETRIEVAL_EVENTS]


FAILING_SUBSECTION = "Write the body of subsection 'Scoped Drafting'"


def script_drafting_failure(config: PipelineConfig) -> PipelineConfig:
    """Make one subsection's drafts fail verification on every attempt."""
    rules_path = Path(config.backend.rules_path)
    doc = json.loads(rules_path.read_text())
    for rule in doc["rules"]:
        if rule["pattern"] == FAILING_SUBSECTION:
            rule["replies"] = ["far too short"]
    rules_path.write_text(json.dumps(doc))
    return config


def script_marked_revisions(config: PipelineConfig) -> list[str]:
    """Script one accepted revision per section and subsection draft, each
    appending a unique marker to the drafted text; returns the markers."""
    rules_path = Path(config.backend.rules_path)
    doc = json.loads(rules_path.read_text())
    prefixes = {
        "Write the body of subsection": "subsection",
        "opening preamble of section": "section",
    }
    revisions, markers = [], []
    for rule in doc["rules"]:
        for prefix, granularity in prefixes.items():
            if rule["pattern"].startswith(prefix):
                text = rule["replies"][0]
                markers.append(f"REVMARK{len(markers):02d}")
                revisions.append({
                    "pattern": f"Revise this {granularity} draft.*Draft:\n{re.escape(text)}",
                    "replies": [f"{text} {markers[-1]}."],
                })
    first_round = {
        "pattern": r"coordinate refinement of a (?:sub)?section draft \(round 1/",
        "replies": [json.dumps([{"skill": "revise", "instructions": "add the marker"}])],
    }
    doc["rules"] = [first_round, *revisions, *doc["rules"]]
    rules_path.write_text(json.dumps(doc))
    return markers


class TestPaperDirectories:
    def test_each_paper_reads_the_first_markdown_file_of_its_directory(self, tmp_path):
        docs = tmp_path / "docs"
        for key in ("2406.10001", "cs/0112017"):  # an old-style id nests
            (docs / key).mkdir(parents=True)
            (docs / key / "b.md").write_text("second file")
            (docs / key / "a.md").write_text(f"text of {key}")
            (docs / key / "notes.txt").write_text("not markdown")
        (docs / "2406.10002").write_text("a file, not a directory")
        (docs / "2406.10003").mkdir()
        papers = ("2406.10001", "2406.10002", "2406.10003", "2406.10004", "cs/0112017", "cs/0112018")
        substrate = KnowledgeSubstrate(papers={k: make_paper(k) for k in papers})
        config = PipelineConfig(topic=TOPIC, workdir=str(tmp_path / "run"), parsed_docs_dir=str(docs))

        def found():
            find = pipeline_mod._doc_finder(config)
            return {k: d for k, r in substrate.papers.items() if (d := find(r)) is not None}

        assert {k: (d.paper_id, d.markdown, d.source_path) for k, d in found().items()} == {
            k: (substrate.papers[k].id, f"text of {k}", str(docs / k / "a.md"))
            for k in ("2406.10001", "cs/0112017")
        }
        config.parsed_docs_dir = str(tmp_path / "missing")
        assert found() == {}


class TestRefinedSurvey:
    def test_every_accepted_unit_revision_reaches_the_survey(self, tmp_path):
        config = make_config(tmp_path)
        markers = script_marked_revisions(config)
        assert len(markers) == 7 + 4  # subsections + sections
        result = run_pipeline(config, backends=build_backends(config))
        units = [d for d in result.substrate.drafts if d.granularity is not Granularity.SURVEY]
        assert sorted(m for d in units for m in re.findall(r"REVMARK\d+", d.text)) == markers
        survey = result.survey_path.read_text()
        assert [m for m in markers if m not in survey] == []
        assert result.substrate.drafts[-1].granularity is Granularity.SURVEY

    def test_without_the_survey_level_the_refined_units_are_assembled(self, tmp_path):
        config = make_config(tmp_path)
        config.refinement.enabled = ("section", "subsection")
        markers = script_marked_revisions(config)
        backends = build_backends(config)
        result = run_pipeline(config, backends=backends)
        assert not [d for d in result.substrate.drafts if d.granularity is Granularity.SURVEY]
        survey = result.survey_path.read_text()
        assert [m for m in markers if m not in survey] == []
        assert not backends.gateway.transport.calls_matching("refinement of a survey")

    def test_a_survey_revision_that_drops_a_section_is_rejected(self, tmp_path):
        # The reply cites a paper of the survey's evidence set, so only the
        # heading check can refuse it.
        dropped = f"## Foundations\n\nThis survey rests on <{title_of(SEEDS[0])}>."
        rules = (
            {
                "pattern": r"coordinate refinement of a survey draft \(round 1/",
                "replies": [json.dumps([{"skill": "revise", "instructions": "shorten"}])],
            },
            {"pattern": "Revise this survey draft", "replies": [dropped]},
        )

        def run(root: Path, *rules: dict):
            config = prepend_rules(make_config(root), *rules)
            backends = build_backends(config)
            result = run_pipeline(config, backends=backends)
            return result, backends.gateway.transport

        composed, _ = run(tmp_path / "composed")
        rejected, transport = run(tmp_path / "rejected", *rules)
        revisions = transport.calls_matching("Revise this survey draft")
        assert len(revisions) == 2
        assert "heading lines" not in revisions[0].prompt
        assert "heading lines" in revisions[1].prompt
        assert [e["node"] for e in rejected.runlog.of_kind("revision_rejected")] == [
            "Automated Survey Generation: A Survey"
        ]
        assert rejected.substrate.drafts[-1].text == composed.substrate.drafts[-1].text
        assert strip_front_matter(rejected.survey_path.read_text()) == strip_front_matter(
            composed.survey_path.read_text()
        )


class TestCodeAnalysisVariant:
    def test_disabled_by_default(self, tmp_path):
        config = make_config(tmp_path)
        assert "code_analysis" not in config.enabled_stages()

    def test_enabled_run_adds_reports_and_writer_context(self, tmp_path):
        config = enable_code_analysis(make_config(tmp_path), tmp_path)
        assert "code_analysis" in config.enabled_stages()
        backends = build_backends(config)
        result = run_pipeline(config, backends=backends)
        substrate = result.substrate
        assert "2406.10001" in substrate.code_reports
        report = substrate.code_reports["2406.10001"]
        assert "pipeline class" in report
        assert "integrated code report" in substrate.code_overview
        assert substrate.environment_overview
        assert "code_analysis" in result.manifest["completed_stages"]
        transport = backends.gateway.transport
        # the environment overview is made from the configuration files
        environment = [c for c in transport.calls if c.tag == "code.environment"]
        assert environment and "requirements.txt" in environment[0].prompt
        # repository findings reach the writer context
        draft_calls = [c for c in transport.calls if "Write the body of subsection" in c.prompt]
        assert draft_calls and all("Repository findings" in c.prompt for c in draft_calls)
        # reports persist through the substrate round trip
        assert substrate_load(config.substrate_dir).code_reports["2406.10001"] == report


def request_stream_digest(calls) -> str:
    """sha256 over every (tag, prompt) the transport received, in order."""
    digest = hashlib.sha256()
    for call in calls:
        digest.update(json.dumps([call.tag, call.prompt], ensure_ascii=False).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class TestRequestStream:
    """The exact requests a serial run of the 12-paper fixture sends. A
    change to any prompt byte, tag or call order changes the digest and
    with it every cache key; update the constants only for a change that
    means to alter the prompts."""

    GOLDEN = {
        "plain": (40, "32875632aec013e433b5f0aa4a9a1d24a779a73b8307cedf384d1efb9fd47e8f"),
        "code_analysis": (
            45, "787b8fa4ce74a9165d3300a7bc21a532460108581ce85d06494aaa83ef7d12df"
        ),
    }

    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_serial_request_stream_is_unchanged(self, tmp_path, variant):
        config = make_config(tmp_path)
        if variant == "code_analysis":
            enable_code_analysis(config, tmp_path)
        config.stage_workers = 1
        backends = build_backends(config)
        run_pipeline(config, backends=backends)
        calls = backends.gateway.transport.calls
        assert (len(calls), request_stream_digest(calls)) == self.GOLDEN[variant]


def _payload(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _payload(v) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [_payload(v) for v in value]
    return value


def output_digest(config: PipelineConfig) -> str:
    """sha256 over the survey body, the citation sidecar and the loaded
    substrate encoded through its objects' own ``to_dict`` payloads, so the
    digest does not depend on the files the substrate is saved in."""
    substrate = substrate_load(config.substrate_dir)
    payload = {f.name: _payload(getattr(substrate, f.name)) for f in fields(substrate) if f.compare}
    digest = hashlib.sha256()
    for part in (
        strip_front_matter(config.survey_path.read_text(encoding="utf-8")),
        config.sidecar_path.read_text(encoding="utf-8"),
        json.dumps(payload, ensure_ascii=False, sort_keys=True),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class TestGoldenOutput:
    """What a run of the 12-paper fixture leaves behind, at any width:
    survey body, sidecar and substrate content. Update the constants only
    for a change that means to alter the outputs."""

    GOLDEN = {
        "plain": "d1822f834d468dbcfc098e9b9fbe01d4e87236f273da6bddf1aa6014e97f9702",
        "code_analysis": "d4925863f13cee220adea9700958f0c7a381eaea4eb4273a5aff62a10b8ce983",
    }

    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_outputs_are_unchanged(self, tmp_path, variant, workers):
        config = make_config(tmp_path)
        if variant == "code_analysis":
            enable_code_analysis(config, tmp_path)
        config.stage_workers = workers
        run_pipeline(config, backends=build_backends(config))
        assert output_digest(config) == self.GOLDEN[variant]


def prepend_rules(config: PipelineConfig, *rules: dict) -> PipelineConfig:
    """Put ``rules`` ahead of the fixture's scripted rules."""
    rules_path = Path(config.backend.rules_path)
    doc = json.loads(rules_path.read_text())
    doc["rules"] = [*rules, *doc["rules"]]
    rules_path.write_text(json.dumps(doc))
    return config


def committed_stages(config: PipelineConfig) -> list[str]:
    return [e["stage"] for e in read_record(config.substrate_dir)["stages"]]


#: The first attempt of rerank batch 3 of 6 (two papers a batch) and no
#: other request: a retry starts with the attempt marker.
RERANK_BATCH_3 = r"\AJudge topical alignment[^\n]*\(rerank\)\.\nPapers:\n- id: 2406\.10005 "


class TestIndependentJudgeBatches:
    @staticmethod
    def _config(root: Path, workers: int, *rules: dict) -> PipelineConfig:
        config = prepend_rules(make_config(root), *rules)
        config.retrieval.judge_batch_size = 2
        config.stage_workers = workers
        return config

    def _run(self, root: Path, workers: int, *rules: dict):
        config = self._config(root, workers, *rules)
        backends = build_backends(config)
        result = run_pipeline(config, backends=backends, stop_after="retrieval")
        calls = [(c.tag, c.prompt) for c in backends.gateway.transport.calls]
        return config, result, calls

    def test_a_rejected_batch_is_retried_alone(self, tmp_path):
        reject = {"pattern": RERANK_BATCH_3, "replies": ["no verdicts"]}
        serial_cfg, serial, serial_calls = self._run(tmp_path / "serial", 1, reject)
        parallel_cfg, parallel, parallel_calls = self._run(tmp_path / "parallel", 4, reject)
        _, _, clean_calls = self._run(tmp_path / "clean", 1)
        assert sum(tag == "retrieval.rerank" for tag, _ in clean_calls) == 6
        remembering = [(t, p) for t, p in serial_calls if "Avoid repeating" in p]
        assert len(remembering) == 1
        retry = remembering[0][1]
        assert retry.startswith("(attempt 2)") and "- id: 2406.10005 " in retry
        # the clean run's requests plus batch 3's one retry, at any width
        assert Counter(serial_calls) == Counter(clean_calls) + Counter(remembering)
        assert Counter(parallel_calls) == Counter(serial_calls)
        assert retrieval_events(parallel.runlog) == retrieval_events(serial.runlog)
        assert parallel.substrate.papers == serial.substrate.papers
        assert (parallel_cfg.substrate_dir / "papers.json").read_bytes() == (
            serial_cfg.substrate_dir / "papers.json"
        ).read_bytes()

    def test_a_backend_error_ends_in_the_serial_error(self, tmp_path):
        # Batch 2 is malformed on every attempt, so the serial run fails
        # there and never sends batch 3, which the backend refuses when four
        # workers send it beside batch 2.
        rules = (
            {"pattern": r"\(rerank\)\.\nPapers:\n- id: 2406\.10003 ", "replies": ["none"]},
            {"pattern": RERANK_BATCH_3, "replies": [{"text": "refused", "status": 400}]},
        )

        def run(workers: int) -> tuple[StageError, int]:
            config = self._config(tmp_path / f"workers{workers}", workers, *rules)
            backends = build_backends(config)
            with pytest.raises(StageError) as err:
                run_pipeline(config, backends=backends)
            return err.value, len(backends.gateway.transport.calls_matching(RERANK_BATCH_3))

        (serial, serial_refused), (parallel, parallel_refused) = run(1), run(4)
        assert (serial_refused, parallel_refused) == (0, 1)
        assert parallel.stage == "retrieval"
        assert isinstance(parallel.cause, JudgeError)
        assert str(parallel) == str(serial)


#: The last paper in id order; TestOverlappedStep gives it a full text, so
#: that its keynote is a backend call the design fold's first batch does
#: not wait for.
LAST_PAPER = max(ALL_IDS)
LAST_KEYNOTE = f"keynote for paper id {re.escape(LAST_PAPER)}\\."
LAST_SECTION = "opening preamble of section 'Conclusion'"
#: Round 1 of every section and subsection plan asks for a revision.
REVISE_FIRST = {
    "pattern": r"coordinate refinement of a (?:sub)?section draft \(round 1/",
    "replies": [json.dumps([{"skill": "revise", "instructions": "tighten"}])],
}
#: stage -> the tag prefix of its requests
STAGE_TAGS = {
    "retrieval": "retrieval.", "understanding": "understanding.", "analysis": "analysis.",
    "code_analysis": "code.", "writing": "writing.", "refinement": "refine.",
}
GRAPH_EXPANSION = "Write the body of subsection 'Graph Expansion'"


def fixture_replies(pattern: str) -> list:
    """The fixture's replies to the rule with ``pattern``."""
    return next(r["replies"] for r in scripted_rules() if r["pattern"] == pattern)


def gate(transport, held: str, opens: str) -> threading.Event:
    """Hold each request whose prompt matches ``held`` until a request
    tagged ``opens`` has been sent; returns the event that records it."""
    send, seen = transport.send, threading.Event()

    def gated_send(request):
        if request.tag == opens:
            seen.set()
        elif re.search(held, request.prompt):
            assert seen.wait(timeout=10), f"no {opens} request while {held!r} was held"
        return send(request)

    transport.send = gated_send
    return seen


class TestOverlappedStep:
    """Above one worker, code analysis runs beside analysis, the design
    fold takes keynotes while understanding makes them, and each unit
    refines once writing accepts its draft; what a run commits, raises and
    logs stays the serial run's."""

    @staticmethod
    def _config(root: Path, workers: int, *rules: dict) -> PipelineConfig:
        config = prepend_rules(enable_code_analysis(make_config(root), root), *rules)
        config.stage_workers = workers
        return config

    def _run(self, root: Path, workers: int, *rules: dict, **kwargs):
        config = self._config(root, workers, *rules)
        backends = build_backends(config)
        return config, backends, run_pipeline(config, backends=backends, **kwargs)

    def _failure(self, root: Path, workers: int, *rules: dict, held=None):
        """The StageError of a run under ``rules``; ``held`` is a (held,
        opens) pair for :func:`gate`, applied above one worker to a
        :meth:`_streamed` run."""
        build = self._config if held is None else self._streamed
        config = build(root, workers, *rules)
        backends = build_backends(config)
        if held and workers > 1:
            gate(backends.gateway.transport, *held)
        with pytest.raises(StageError) as err:
            run_pipeline(config, backends=backends)
        return config, err.value

    def _streamed(self, root: Path, workers: int, *rules: dict) -> PipelineConfig:
        """The last paper gets a full text, and the design fold takes
        keynotes two at a time."""
        config = self._config(root, workers, *rules)
        doc = Path(config.parsed_docs_dir) / LAST_PAPER / "paper.md"
        doc.parent.mkdir(parents=True, exist_ok=True)
        doc.write_text("# Method\nA last paper with a full text.\n", encoding="utf-8")
        config.analysis.design_batch_size = 2
        return config

    def test_code_analysis_runs_while_analysis_waits(self, tmp_path):
        config = self._config(tmp_path, 2)
        backends = build_backends(config)
        transport = backends.gateway.transport
        send, code_seen = transport.send, threading.Event()

        def gated_send(request):
            if request.tag.startswith("code."):
                code_seen.set()
            elif request.tag == "analysis.inter_cluster":
                assert code_seen.wait(timeout=10), "analysis finished before code analysis began"
            return send(request)

        transport.send = gated_send
        run_pipeline(config, backends=backends, stop_after="code_analysis")
        assert committed_stages(config)[-2:] == ["analysis", "code_analysis"]

    def test_code_failure_commits_analysis_and_resumes_to_the_straight_run(self, tmp_path):
        refuse = {"pattern": "configuration files below", "replies": [{"text": "no", "status": 400}]}
        _, serial = self._failure(tmp_path / "serial", 1, refuse)
        root = tmp_path / "parallel"
        config, parallel = self._failure(root, 4, refuse)
        assert parallel.stage == "code_analysis"
        assert str(parallel) == str(serial)
        assert committed_stages(config) == ["retrieval", "understanding", "analysis"]

        config = self._config(root, 4)  # the fixture's own rules again
        backends = build_backends(config)
        run_pipeline(config, backends=backends, resume=True)
        tags = [c.tag for c in backends.gateway.transport.calls]
        assert "code.environment" in tags
        assert not [t for t in tags if t.startswith("analysis.")]
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    def test_analysis_failure_commits_neither_and_raises_the_serial_error(
        self, tmp_path, monkeypatch
    ):
        garble = {"pattern": "thematic clusters", "replies": ["no clusters"]}
        _, serial = self._failure(tmp_path / "serial", 1, garble)
        config, parallel = self._failure(tmp_path / "parallel", 4, garble)
        assert parallel.stage == "analysis"
        assert str(parallel) == str(serial)
        assert committed_stages(config) == ["retrieval", "understanding"]

        # The design fold fails while understanding still holds its last
        # keynote: code analysis, which would start beside analysis, never
        # starts, as in the serial run.
        design_failed = threading.Event()
        stage_analysis = pipeline_mod._STAGE_FUNCTIONS["analysis"]

        def failing_analysis(*args):
            try:
                return stage_analysis(*args)
            finally:
                design_failed.set()

        monkeypatch.setitem(pipeline_mod._STAGE_FUNCTIONS, "analysis", failing_analysis)
        config = self._streamed(tmp_path / "held", 2, garble)
        backends = build_backends(config)
        transport = backends.gateway.transport
        send = transport.send

        def held_send(request):
            if re.search(LAST_KEYNOTE, request.prompt):
                assert design_failed.wait(timeout=10), "analysis waited for the last keynote"
            return send(request)

        transport.send = held_send
        with pytest.raises(StageError) as err:
            run_pipeline(config, backends=backends)
        assert str(err.value) == str(serial)
        assert committed_stages(config) == ["retrieval", "understanding"]
        assert not [c for c in transport.calls if c.tag.startswith("code.")]

    def test_one_worker_runs_every_stage_on_the_calling_thread(self, tmp_path):
        config = self._config(tmp_path, 1)
        backends = build_backends(config)
        transport = backends.gateway.transport
        send, threads = transport.send, set()

        def recorded_send(request):
            threads.add(threading.current_thread())
            return send(request)

        transport.send = recorded_send
        run_pipeline(config, backends=backends)
        assert threads == {threading.current_thread()}

    def test_a_run_stopped_after_analysis_sends_no_code_request(self, tmp_path):
        config, backends, _ = self._run(tmp_path, 4, stop_after="analysis")
        assert not [c for c in backends.gateway.transport.calls if c.tag.startswith("code.")]
        assert committed_stages(config) == ["retrieval", "understanding", "analysis"]

    def test_stages_commit_and_log_in_run_order(self, tmp_path):
        ghosts = (
            {"pattern": "Contrast the clusters", "replies": ["Contrast < ghost > here."]},
            {"pattern": "Integrate these code-analysis", "replies": ["Report < ghost >."]},
        )

        def attributions(workers: int) -> list[str]:
            config, _, result = self._run(tmp_path / f"workers{workers}", workers, *ghosts)
            assert committed_stages(config) == list(config.enabled_stages())
            assert list(result.manifest["stage_seconds"]) == config.enabled_stages()
            return [e["stage"] for e in result.runlog.attribution_events()]

        serial, parallel = attributions(1), attributions(4)
        assert parallel == serial == ["analysis.inter_cluster", "code.report"]

    def test_the_design_fold_starts_before_the_last_keynote_returns(self, tmp_path):
        config = self._streamed(tmp_path, 2)
        backends = build_backends(config)
        seen = gate(backends.gateway.transport, LAST_KEYNOTE, "analysis.design")
        run_pipeline(config, backends=backends, stop_after="analysis")
        assert seen.is_set()
        assert committed_stages(config) == ["retrieval", "understanding", "analysis"]

    def test_refinement_starts_before_the_last_section_is_sent(self, tmp_path):
        config = self._config(tmp_path, 2)
        backends = build_backends(config)
        seen = gate(backends.gateway.transport, LAST_SECTION, "refine.plan")
        run_pipeline(config, backends=backends)
        assert seen.is_set()
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    def test_a_refused_keynote_commits_neither_and_raises_the_serial_error(self, tmp_path):
        refuse = {"pattern": LAST_KEYNOTE, "replies": [{"text": "no", "status": 400}]}
        held = (LAST_KEYNOTE, "analysis.design")
        _, serial = self._failure(tmp_path / "serial", 1, refuse, held=held)
        root = tmp_path / "parallel"
        config, parallel = self._failure(root, 2, refuse, held=held)
        assert parallel.stage == "understanding"
        assert str(parallel) == str(serial)
        assert committed_stages(config) == ["retrieval"]

        # The fold steps sent before understanding failed were cached: the
        # first, at least, and never the last, which needs the last keynote.
        config = self._streamed(root, 2)
        backends = build_backends(config)
        run_pipeline(config, backends=backends, resume=True)
        sent = [c.tag for c in backends.gateway.transport.calls]
        assert 1 <= sent.count("analysis.design") <= 5  # of 6 fold steps

    def test_a_garbled_draft_commits_neither_and_raises_the_serial_error(self, tmp_path):
        def failure(workers: int) -> tuple[PipelineConfig, StageError]:
            config = self._config(tmp_path / f"workers{workers}", workers)
            script_drafting_failure(config)
            with pytest.raises(StageError) as err:
                run_pipeline(config, backends=build_backends(config))
            return config, err.value

        (_, serial), (config, parallel) = failure(1), failure(2)
        assert parallel.stage == "writing"
        assert isinstance(parallel.cause, DraftingError)
        assert str(parallel) == str(serial)
        assert committed_stages(config) == [
            "retrieval", "understanding", "analysis", "code_analysis",
        ]

    def test_a_refused_revision_commits_writing_and_raises_the_serial_error(self, tmp_path):
        # Every section and subsection asks for a revision. Units refine in
        # drafting order, subsections first, so the serial error is the
        # first subsection's 400.
        refuse = (
            REVISE_FIRST,
            {"pattern": "Revise this section draft", "replies": [{"text": "no", "status": 401}]},
            {"pattern": "Revise this subsection", "replies": [{"text": "no", "status": 400}]},
        )
        _, serial = self._failure(tmp_path / "serial", 1, *refuse)
        root = tmp_path / "parallel"
        config, parallel = self._failure(root, 2, *refuse)
        assert parallel.stage == "refinement"
        assert "status 400" in str(parallel)
        assert str(parallel) == str(serial)
        assert committed_stages(config) == [
            "retrieval", "understanding", "analysis", "code_analysis", "writing",
        ]

        # Resumed with every revision rejected, the units keep their drafts.
        reject = {"pattern": "Revise this", "replies": ["# not a revision"]}
        config = self._config(root, 2, REVISE_FIRST, reject)
        backends = build_backends(config)
        result = run_pipeline(config, backends=backends, resume=True)
        assert not [c for c in backends.gateway.transport.calls if c.tag.startswith("writing.")]
        assert result.runlog.of_kind("revision_rejected")
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    @pytest.mark.parametrize("stage", ["understanding", "writing"])
    def test_a_run_stopped_after_a_producer_sends_no_consumer_request(self, tmp_path, stage):
        config, backends, _ = self._run(tmp_path, 2, stop_after=stage)
        consumer = {"understanding": "analysis.", "writing": "refine."}[stage]
        assert not [c for c in backends.gateway.transport.calls if c.tag.startswith(consumer)]
        assert committed_stages(config)[-1] == stage

    @pytest.mark.parametrize("workers", [2, 3])
    def test_calls_in_flight_stay_within_two_stages_of_workers(self, tmp_path, workers):
        # Two stages of workers, plus the one call of writing's serial
        # outline fold or citation assignment, which runs beside analysis
        # and code analysis.
        config = self._streamed(tmp_path, workers)
        backends = build_backends(config)
        transport = backends.gateway.transport
        send, lock = transport.send, threading.Lock()
        in_flight: Counter = Counter()
        peak: Counter = Counter()

        def counted_send(request):
            stage = next(s for s, tag in STAGE_TAGS.items() if request.tag.startswith(tag))
            with lock:
                in_flight[stage] += 1
                in_flight["all"] += 1
                for key in (stage, "all"):
                    peak[key] = max(peak[key], in_flight[key])
                if in_flight["analysis"] or in_flight["code_analysis"]:
                    peak["writing beside analysis"] = max(
                        peak["writing beside analysis"], in_flight["writing"]
                    )
            try:
                time.sleep(0.002)
                return send(request)
            finally:
                with lock:
                    in_flight[stage] -= 1
                    in_flight["all"] -= 1

        transport.send = counted_send
        run_pipeline(config, backends=backends)
        assert peak["all"] <= 2 * workers + 1
        assert max(peak[s] for s in STAGE_TAGS) <= workers
        assert peak["writing beside analysis"] <= 1

    def test_every_overlap_commits_and_logs_in_run_order(self, tmp_path):
        # One logged event per stage of an overlapped pair: a keynote, a
        # ghost mark in analysis and in code analysis, a draft retry and a
        # rejected revision.
        rules = (
            {"pattern": "Contrast the clusters", "replies": ["Contrast < ghost > here."]},
            {"pattern": "Integrate these code-analysis", "replies": ["Report < ghost >."]},
            {"pattern": GRAPH_EXPANSION, "replies": ["far too short", *fixture_replies(GRAPH_EXPANSION)]},
            {
                "pattern": r"coordinate refinement of a section draft \(round 1/.*This section frames foundations",
                "replies": REVISE_FIRST["replies"],
            },
            {"pattern": "Revise this section draft", "replies": ["# not a revision"]},
        )
        kinds = {"keynote_extracted", "attribution", "draft_retry", "revision_rejected"}

        def run(workers: int) -> list[tuple]:
            config = self._config(tmp_path / f"workers{workers}", workers, *rules)
            result = run_pipeline(config, backends=build_backends(config))
            assert committed_stages(config) == list(config.enabled_stages())
            assert list(result.manifest["stage_seconds"]) == config.enabled_stages()
            return [
                (e["kind"], e.get("paper") or e.get("stage") or e.get("node"))
                for e in result.runlog.events
                if e["kind"] in kinds
            ]

        serial, parallel = run(1), run(4)
        assert parallel == serial == [
            ("keynote_extracted", "2406.10001"),
            ("attribution", "analysis.inter_cluster"),
            ("attribution", "code.report"),
            ("draft_retry", "Foundations > Graph Expansion"),
            ("revision_rejected", "Foundations"),
        ]


class TestStageInputs:
    """Writing starts from the clusters and their Q&A, which analysis hands
    over before its graphs, tables and synthesis; drafting waits for
    analysis and code analysis to commit."""

    _config = staticmethod(TestOverlappedStep._config)

    def test_the_outline_fold_starts_before_the_synthesis_is_answered(self, tmp_path):
        config = self._config(tmp_path, 2)
        backends = build_backends(config)
        seen = gate(backends.gateway.transport, "Contrast the clusters", "writing.outline")
        run_pipeline(config, backends=backends)
        assert seen.is_set()
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    def test_drafting_starts_once_code_analysis_has_committed(self, tmp_path):
        config = self._config(tmp_path, 2)
        backends = build_backends(config)
        transport = backends.gateway.transport
        send, committed = transport.send, []

        def recorded_send(request):
            if request.tag == "writing.subsection":
                committed.append(committed_stages(config))
            elif request.tag == "code.environment":
                time.sleep(0.05)  # the last code call outlasts the outline fold
            return send(request)

        transport.send = recorded_send
        run_pipeline(config, backends=backends)
        upstream = ["retrieval", "understanding", "analysis", "code_analysis"]
        assert committed and all(stages == upstream for stages in committed)
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    def test_outputs_hold_under_frequent_thread_switches(self, tmp_path):
        # Stages share the substrate and the hand-off across threads; a
        # short switch interval makes a race show here instead of flaking.
        config = self._config(tmp_path, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_pipeline(config, backends=build_backends(config))
        finally:
            sys.setswitchinterval(interval)
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    def test_a_failed_synthesis_commits_no_writing_and_raises_the_serial_error(self, tmp_path):
        refuse = {"pattern": "Contrast the clusters", "replies": [{"text": "no", "status": 400}]}

        def failure(workers: int):
            config = self._config(tmp_path / f"workers{workers}", workers, refuse)
            backends = build_backends(config)
            transport = backends.gateway.transport
            seen = gate(transport, "Contrast the clusters", "writing.outline") if workers > 1 else None
            with pytest.raises(StageError) as err:
                run_pipeline(config, backends=backends)
            return config, err.value, [c.tag for c in transport.calls], seen and seen.is_set()

        _, serial, _, _ = failure(1)
        config, parallel, tags, overlapped = failure(2)
        assert overlapped, "writing did not start beside analysis"
        assert parallel.stage == "analysis"
        assert str(parallel) == str(serial)
        assert committed_stages(config) == ["retrieval", "understanding"]
        assert not [t for t in tags if t in ("writing.subsection", "writing.section")]
        manifest = json.loads(config.manifest_path.read_text())
        assert manifest["failed_stage"] == "analysis"


#: The first attempt of the last of six rerank batches, two papers each.
LAST_RERANK = r"\(rerank\)\.\nPapers:\n- id: 2406\.10011 "
FIRST_KEYNOTE = "keynote for paper id 2406.10001."


class TestRetrievalHandOff:
    """Above one worker the coarse filter and the rerank are one fan-out
    of at most ``stage_workers`` calls, each rerank batch goes out once its
    papers are filtered, and understanding keynotes the papers of each
    judged batch before retrieval commits."""

    @staticmethod
    def _config(root: Path, workers: int, *rules: dict, embed_batch: int = 32) -> PipelineConfig:
        config = prepend_rules(make_config(root), *rules)
        config.retrieval.judge_batch_size = 2
        config.embedding.batch_size = embed_batch
        config.stage_workers = workers
        return config

    def test_keynotes_start_before_the_last_rerank_batch_is_judged(self, tmp_path):
        config = self._config(tmp_path, 2)
        backends = build_backends(config)
        seen = gate(backends.gateway.transport, LAST_RERANK, "understanding.keynote")
        run_pipeline(config, backends=backends)
        assert seen.is_set()
        assert output_digest(config) == TestGoldenOutput.GOLDEN["plain"]

    def test_reranking_starts_before_the_last_embedding_batch_lands(self, tmp_path):
        config = self._config(tmp_path, 2, embed_batch=4)
        backends = build_backends(config)
        seen = gate(backends.gateway.transport, "(?!)", "retrieval.rerank")
        embedder, encode = backends.gateway.embedder, backends.gateway.embedder.encode
        last = title_of(LAST_PAPER)

        def gated_encode(texts):
            if any(last in text for text in texts):
                assert seen.wait(timeout=10), "no rerank request while the last batch was held"
            return encode(texts)

        embedder.encode = gated_encode
        run_pipeline(config, backends=backends)
        assert seen.is_set()
        assert output_digest(config) == TestGoldenOutput.GOLDEN["plain"]

    def test_a_failed_rerank_batch_commits_nothing_and_keeps_the_keynotes_made(self, tmp_path):
        refuse = {"pattern": LAST_RERANK, "replies": [{"text": "no", "status": 400}]}

        def failure(workers: int):
            config = self._config(tmp_path / f"workers{workers}", workers, refuse)
            backends = build_backends(config)
            transport = backends.gateway.transport
            seen = gate(transport, LAST_RERANK, "understanding.keynote") if workers > 1 else None
            with pytest.raises(StageError) as err:
                run_pipeline(config, backends=backends)
            return config, err.value, transport.calls_matching(FIRST_KEYNOTE), seen

        _, serial, _, _ = failure(1)
        config, parallel, keynoted, seen = failure(2)
        assert seen.is_set() and len(keynoted) == 1
        assert parallel.stage == "retrieval"
        assert str(parallel) == str(serial)
        assert committed_stages(config) == []
        assert json.loads(config.manifest_path.read_text())["failed_stage"] == "retrieval"

        config = self._config(tmp_path / "workers2", 2)  # the fixture's own rules again
        backends = build_backends(config)
        run_pipeline(config, backends=backends, resume=True)
        assert not backends.gateway.transport.calls_matching(FIRST_KEYNOTE)
        assert output_digest(config) == TestGoldenOutput.GOLDEN["plain"]

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_retrieval_calls_in_flight_stay_within_stage_workers(self, tmp_path, workers):
        # One paper per embedding batch and per rerank batch: 24 calls that
        # two fan-outs side by side would send up to 2 x workers at a time.
        config = self._config(tmp_path, workers, embed_batch=1)
        config.retrieval.judge_batch_size = 1
        backends = build_backends(config)
        transport, embedder = backends.gateway.transport, backends.gateway.embedder
        send, encode = transport.send, embedder.encode
        lock = threading.Lock()
        in_flight = peak = calls = 0

        def counted(call):
            def run(*args):
                nonlocal in_flight, peak, calls
                with lock:
                    in_flight += 1
                    calls += 1
                    peak = max(peak, in_flight)
                try:
                    time.sleep(0.002)
                    return call(*args)
                finally:
                    with lock:
                        in_flight -= 1

            return run

        transport.send = counted(send)
        embedder.encode = counted(encode)
        run_pipeline(config, backends=backends, stop_after="retrieval")
        assert calls == 4 + 1 + 12 + 12  # seed judge, topic, papers, reranks
        assert peak <= workers
        assert committed_stages(config) == ["retrieval"]


def _crash_sweep_variants():
    for variant, workers, full in (
        ("plain", 4, False), ("code_analysis", 1, False),
        ("plain", 1, True), ("code_analysis", 4, True),
    ):
        marks = [pytest.mark.full_crash_sweep] if full else []
        yield pytest.param(variant, workers, marks=marks, id=f"{variant}-{workers}")


class WriteCrasher:
    """Counts a run's writes (each ``Path.write_text`` and ``Path.replace``,
    and each api-cache append) and, with ``at``, raises CrashError at write
    ``at`` and at every later one, so that no thread writes after the
    crash; ``torn`` first writes half the text or line. ``first`` is the
    kind of the write crashed at first."""

    def __init__(self, at: int | None = None, torn: bool = False):
        self.at, self.torn = at, torn
        self.count = 0
        self.first: str | None = None
        self._lock = threading.Lock()

    def crashes(self, kind: str) -> bool:
        with self._lock:
            self.count += 1
            crash = self.at is not None and self.count > self.at
            if crash and self.first is None:
                self.first = kind
            return crash

    def install(self, patch) -> None:
        crasher = self
        real_write_text, real_replace = Path.write_text, Path.replace

        def write_text(path, data, *args, **kwargs):
            if crasher.crashes("write"):
                if crasher.torn:
                    real_write_text(path, data[: len(data) // 2], *args, **kwargs)
                raise CrashError(path)
            return real_write_text(path, data, *args, **kwargs)

        def replace(path, target):
            if crasher.crashes("rename"):
                raise CrashError(target)
            return real_replace(path, target)

        class Appender:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()
                return False

            def write(self, data):
                if crasher.crashes("append"):
                    if crasher.torn:
                        self.handle.write(data[: len(data) // 2])
                    raise CrashError("api cache")
                return self.handle.write(data)

        def cache_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return Appender(handle) if "a" in mode else handle

        patch.setattr(Path, "write_text", write_text)
        patch.setattr(Path, "replace", replace)
        patch.setattr(caching_mod, "open", cache_open, raising=False)


class TestCrashSweep:
    """A run crashed at any write, cleanly or after a torn half-write,
    resumes to a clean run's survey body, sidecar and substrate files. Two
    variants run by default; ``--full-crash-sweep`` adds the other two."""

    @staticmethod
    def _config(root: Path, variant: str, workers: int) -> PipelineConfig:
        config = make_config(root / "fixture")
        if variant == "code_analysis":
            enable_code_analysis(config, root / "fixture")
        config.stage_workers = workers
        return config

    @staticmethod
    def _run(base: PipelineConfig, workdir: Path, crasher=None, resume=False):
        config = copy.deepcopy(base)
        config.workdir = str(workdir)
        backends = build_backends(config)
        if crasher is None:
            run_pipeline(config, backends=backends, resume=resume)
            return config
        with pytest.MonkeyPatch.context() as patch:
            crasher.install(patch)
            if crasher.at is None:
                run_pipeline(config, backends=backends)
            else:
                with pytest.raises(CrashError):
                    run_pipeline(config, backends=backends)
        return config

    @staticmethod
    def _outputs(config: PipelineConfig) -> dict[str, bytes]:
        files = {
            f"substrate/{p.name}": p.read_bytes()
            for p in sorted(config.substrate_dir.iterdir())
            if p.name != "commit.json"
        }
        files["survey body"] = strip_front_matter(config.survey_path.read_text()).encode()
        files["sidecar"] = config.sidecar_path.read_bytes()
        return files

    @pytest.mark.parametrize("variant, workers", _crash_sweep_variants())
    def test_a_crash_at_any_write_resumes_to_the_clean_run(self, tmp_path, variant, workers):
        base = self._config(tmp_path, variant, workers)
        counter = WriteCrasher()
        clean = self._outputs(self._run(base, tmp_path / "clean", counter))
        assert counter.count > 90
        differences, refusals = [], []
        for at in range(counter.count):
            for torn in (False, True):
                root = tmp_path / f"crash{at}{'t' if torn else ''}"
                crasher = WriteCrasher(at, torn)
                self._run(base, root, crasher)
                if torn and crasher.first == "rename":
                    continue  # a rename does not tear: the clean crash covers it
                try:
                    config = self._run(base, root, resume=True)
                except (LoadError, ConfigError) as exc:
                    refusals.append((at, torn, repr(exc)))
                    continue
                if self._outputs(config) != clean:
                    differences.append((at, torn))
                shutil.rmtree(root)
        assert (differences, refusals) == ([], [])


class TestCheckpointResume:
    def test_interrupt_after_analysis_then_resume_skips_stages(self, tmp_path):
        config = make_config(tmp_path)
        backends = build_backends(config)
        partial = run_pipeline(config, backends=backends, stop_after="analysis")
        assert partial.manifest["completed_stages"] == [
            "retrieval", "understanding", "analysis",
        ]
        assert partial.survey_path is None

        resumed_backends = build_backends(config)  # fresh transport, no cache reuse?
        result = run_pipeline(config, backends=resumed_backends, resume=True)
        assert result.survey_path is not None
        transport = resumed_backends.gateway.transport
        early_stage_patterns = (
            "seed_filter", "rerank", "structured keynote",
            "thematic clusters", "one or more clusters", "technical lineage",
        )
        for pattern in early_stage_patterns:
            assert not [c for c in transport.calls if pattern in c.prompt], (
                f"resume must not re-run stage work matching {pattern!r}"
            )
        assert [c for c in transport.calls if "outline of a survey" in c.prompt]

    def test_resume_after_completion_is_zero_backend_work(self, tmp_path):
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config))
        backends = build_backends(config)
        result = run_pipeline(config, backends=backends, resume=True)
        assert backends.gateway.transport_calls == 0
        assert result.survey_path is not None

    def test_resume_with_changed_config_refused(self, tmp_path):
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config), stop_after="retrieval")
        changed = make_config(tmp_path)
        changed.retrieval.max_seed_papers = 7
        with pytest.raises(ConfigError) as err:
            run_pipeline(changed, backends=build_backends(changed), resume=True)
        assert "configuration changed" in str(err.value)

    def test_resumed_run_is_byte_identical_to_straight_run(self, tmp_path):
        straight_cfg, _, straight = fresh_run(tmp_path / "straight")
        interrupted_cfg = make_config(tmp_path / "resumed")
        run_pipeline(
            interrupted_cfg,
            backends=build_backends(interrupted_cfg),
            stop_after="analysis",
        )
        resumed = run_pipeline(
            interrupted_cfg, backends=build_backends(interrupted_cfg), resume=True
        )
        straight_doc = straight.survey_path.read_text()
        resumed_doc = resumed.survey_path.read_text()
        # Front matter differs by run identity (timestamp, path-bearing
        # config hash); the survey content must match exactly.
        strip = lambda s: "\n".join(  # noqa: E731
            l
            for l in s.splitlines()
            if not l.startswith(("generated:", "config:"))
        )
        assert strip(straight_doc) == strip(resumed_doc)

    def test_resume_with_other_stage_workers_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gateway_mod, "ThreadPoolExecutor", InlineExecutor)
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config), stop_after="analysis")
        widened = make_config(tmp_path)
        widened.stage_workers = 4
        assert widened.config_hash() == config.config_hash()
        result = run_pipeline(widened, backends=build_backends(widened), resume=True)
        assert result.survey_path is not None
        assert result.runlog.of_kind("resumed")[0]["completed"] == [
            "retrieval", "understanding", "analysis",
        ]

    def test_crash_inside_the_analysis_save_keeps_every_keynote(self, tmp_path, monkeypatch):
        real_dump = substrate_mod._dump

        class Crash(Exception):
            pass

        crash_points = 0
        while True:
            crash_points += 1
            config = make_config(tmp_path / f"crash{crash_points}")
            run_pipeline(config, backends=build_backends(config), stop_after="understanding")
            dumps = 0

            def crashing_dump(path, payload):
                nonlocal dumps
                dumps += 1
                if dumps == crash_points:
                    raise Crash(path)
                real_dump(path, payload)

            monkeypatch.setattr(substrate_mod, "_dump", crashing_dump)
            try:
                run_pipeline(
                    config, backends=build_backends(config), resume=True, stop_after="analysis"
                )
                crashed = False
            except Crash:
                crashed = True
            monkeypatch.setattr(substrate_mod, "_dump", real_dump)
            if not crashed:
                break
            result = run_pipeline(config, backends=build_backends(config), resume=True)
            assert result.survey_path is not None, crash_points
            assert len(substrate_load(config.substrate_dir).keynotes) == 12, crash_points
        assert crash_points - 1 == 3  # clusters, analyses, the record

    @pytest.mark.parametrize("name", ["record", "manifest"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, name):
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config), stop_after="retrieval")
        target = config.substrate_dir / "commit.json" if name == "record" else config.manifest_path
        before = json.loads(target.read_text())
        real_write = Path.write_text

        def torn_write(self, data, *args, **kwargs):
            if self.name.startswith(f"{target.stem}."):
                real_write(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError("disk full")
            return real_write(self, data, *args, **kwargs)

        # A resume rewrites manifest.json; the record's header is written
        # only when a run starts afresh, here under another topic.
        rerun, resume = config, True
        if name == "record":
            rerun, resume = make_config(tmp_path), False
            rerun.topic += " revisited"
        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(PersistenceError):
            run_pipeline(rerun, backends=build_backends(rerun), resume=resume)
        monkeypatch.setattr(Path, "write_text", real_write)
        assert json.loads(target.read_text()) == before
        result = run_pipeline(config, backends=build_backends(config), resume=True)
        assert result.survey_path is not None

    def test_checkpoint_file_shape(self, tmp_path):
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config), stop_after="understanding")
        record = read_record(config.substrate_dir)
        assert list(record) == ["config_hash", "topic", "created_at", "stages"]
        assert record["config_hash"] == config.config_hash()
        assert record["topic"] == TOPIC
        assert [e["stage"] for e in record["stages"]] == ["retrieval", "understanding"]
        assert not (Path(config.workdir) / "checkpoint.json").exists()

    def test_resume_keeps_the_start_time(self, tmp_path):
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config), stop_after="analysis")
        record = config.substrate_dir / "commit.json"
        doc = json.loads(record.read_text())
        doc["created_at"] = "2001-02-03T04:05:06Z"  # an earlier start than this run's
        record.write_text(json.dumps(doc))
        result = run_pipeline(config, backends=build_backends(config), resume=True)
        assert "generated: 2001-02-03T04:05:06Z" in result.survey_path.read_text()
        assert read_record(config.substrate_dir)["created_at"] == "2001-02-03T04:05:06Z"

    def test_directory_saved_without_a_stage_refuses_to_resume(self, tmp_path):
        config = make_config(tmp_path)
        result = run_pipeline(config, backends=build_backends(config), stop_after="analysis")
        substrate_save(result.substrate, config.substrate_dir)
        with pytest.raises(ConfigError) as err:
            run_pipeline(config, backends=build_backends(config), resume=True)
        assert "configuration changed" in str(err.value)
        assert config.config_hash() in str(err.value)

    def test_resume_without_a_committed_run_is_refused(self, tmp_path):
        config = make_config(tmp_path)
        with pytest.raises(LoadError, match="commit.json"):
            run_pipeline(config, backends=build_backends(config), resume=True)

    def test_a_crash_at_the_first_record_resumes_afresh(self, tmp_path, monkeypatch):
        # The first record's temporary file is written, and the crash comes
        # before it is renamed over commit.json.
        config = make_config(tmp_path)
        real_replace = Path.replace

        def replace(path, target):
            if Path(target).name == "commit.json":
                raise CrashError(target)
            return real_replace(path, target)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "replace", replace)
            with pytest.raises(CrashError):
                run_pipeline(config, backends=build_backends(config))
        assert [p.name for p in config.substrate_dir.iterdir()] == ["commit.tmp"]
        result = run_pipeline(config, backends=build_backends(config), resume=True)
        assert not result.runlog.of_kind("resumed")
        assert output_digest(config) == TestGoldenOutput.GOLDEN["plain"]

    @pytest.mark.parametrize("crash_at", [0, 1])
    def test_a_crash_between_the_survey_writes_leaves_no_mismatched_pair(
        self, tmp_path, monkeypatch, crash_at
    ):
        config = make_config(tmp_path)
        old_pair = ("an earlier survey\n", '{"entries": []}\n')
        config.survey_path.parent.mkdir(parents=True)
        config.survey_path.write_text(old_pair[0], encoding="utf-8")
        config.sidecar_path.write_text(old_pair[1], encoding="utf-8")
        real_write_text = Path.write_text
        survey_writes = []

        def write_text(path, *args, **kwargs):
            if path.name.startswith(config.survey_path.stem + "."):
                if len(survey_writes) == crash_at:
                    raise CrashError(path)
                survey_writes.append(path.name)
            return real_write_text(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", write_text)
            with pytest.raises(CrashError):
                run_pipeline(config, backends=build_backends(config))
        if config.survey_path.exists():
            pair = (config.survey_path.read_text(), config.sidecar_path.read_text())
            assert pair == old_pair
        else:
            with pytest.raises(ConfigError, match="survey not found"):
                evaluate_run(config, config.survey_path, backends=build_backends(config))

        run_pipeline(config, backends=build_backends(config), resume=True)
        assert output_digest(config) == TestGoldenOutput.GOLDEN["plain"]


EARLY_STAGE_PATTERNS = (
    "seed_filter", "rerank", "structured keynote",
    "thematic clusters", "one or more clusters", "technical lineage",
)


class TestCommitRecord:
    @staticmethod
    def _run_recording_writes(config, monkeypatch, crash_at=None, **kwargs):
        """Run the pipeline and return the workdir-relative path of every
        ``_dump``; with ``crash_at``, raise instead of making that write."""
        real_dump = substrate_mod._dump
        written: list[str] = []

        def dump(path, payload):
            if len(written) == crash_at:
                raise CrashError(path)
            written.append(str(Path(path).relative_to(config.workdir)))
            return real_dump(path, payload)

        with monkeypatch.context() as patch:
            patch.setattr(substrate_mod, "_dump", dump)
            patch.setattr(pipeline_mod, "_dump", dump)
            run_pipeline(config, backends=build_backends(config), **kwargs)
        return written

    def test_crash_at_every_write_resumes_to_the_straight_run(self, tmp_path, monkeypatch):
        straight_cfg = make_config(tmp_path / "straight")
        writes = self._run_recording_writes(straight_cfg, monkeypatch)
        expected = substrate_load(straight_cfg.substrate_dir)
        body = strip_front_matter(straight_cfg.survey_path.read_text())
        assert "substrate/commit.json" in writes and "manifest.json" in writes
        refused = []
        for crash_at in range(len(writes)):
            config = make_config(tmp_path / f"crash{crash_at}")
            with pytest.raises(CrashError):
                self._run_recording_writes(config, monkeypatch, crash_at=crash_at)
            try:
                result = run_pipeline(config, backends=build_backends(config), resume=True)
            except (LoadError, ConfigError) as exc:  # loud, but this layout never needs it
                refused.append((writes[crash_at], type(exc).__name__))
                continue
            assert result.substrate == expected, writes[crash_at]
            assert substrate_load(config.substrate_dir) == expected, writes[crash_at]
            drafts = result.substrate.drafts
            assert [d.granularity for d in drafts].count(Granularity.SURVEY) == 1
            assert strip_front_matter(config.survey_path.read_text()) == body, writes[crash_at]
        assert refused == []

    def test_full_run_writes_each_file_once_and_reads_only_its_own(self, tmp_path, monkeypatch):
        config = enable_code_analysis(make_config(tmp_path), tmp_path)
        stages = config.enabled_stages()
        root = Path(config.substrate_dir)
        saving: list[str] = []  # the stage being saved, while it is
        reads: list[tuple[str, str]] = []  # (stage, file) of each read in a save
        real_save = pipeline_mod.substrate_save

        def save(substrate, directory, stage):
            saving.append(stage)
            try:
                real_save(substrate, directory, stage)
            finally:
                saving.pop()

        def recording(real):
            def read(path, *args, **kwargs):
                if saving and root in path.parents:
                    reads.append((saving[-1], path.relative_to(root).as_posix()))
                return real(path, *args, **kwargs)

            return read

        monkeypatch.setattr(pipeline_mod, "substrate_save", save)
        monkeypatch.setattr(Path, "read_bytes", recording(Path.read_bytes))
        monkeypatch.setattr(Path, "read_text", recording(Path.read_text))
        writes = self._run_recording_writes(config, monkeypatch)
        counts = {path: writes.count(path) for path in writes}
        assert counts.pop("substrate/commit.json") == 1 + len(stages)
        assert set(counts.values()) == {1}
        owned_files = [
            "papers.json", "keynotes.json", "clusters.json", "analyses.json",
            "code_reports.json", "code_overview.json", "outline.json", "drafts.json",
            "refined_drafts.json",
        ]
        assert sorted(counts) == sorted(["manifest.json", *(f"substrate/{f}" for f in owned_files)])
        assert sorted(p.name for p in root.iterdir()) == sorted(["commit.json", *owned_files])
        owned = {e["stage"]: set(e["files"]) for e in json.loads((root / "commit.json").read_text())["stages"]}
        fresh = list(reads)
        # A rerun over the same directory finds every file already there.
        reads.clear()
        self._run_recording_writes(config, monkeypatch)
        for stage, name in fresh + reads:
            assert name == "commit.json" or name in owned[stage], (stage, name)
        assert {name for _, name in reads} == {"commit.json"}.union(*owned.values())

    def test_moved_run_resumes_under_another_timeout(self, tmp_path):
        _, _, straight = fresh_run(tmp_path / "straight")
        config = make_config(tmp_path / "first")
        run_pipeline(config, backends=build_backends(config), stop_after="analysis")
        shutil.move(config.workdir, tmp_path / "moved")
        moved = make_config(tmp_path / "first", workdir=tmp_path / "moved")
        moved.backend.request_timeout = 5.0
        backends = build_backends(moved)
        result = run_pipeline(moved, backends=backends, resume=True)
        calls = backends.gateway.transport.calls
        for pattern in EARLY_STAGE_PATTERNS:
            assert not [c for c in calls if pattern in c.prompt], pattern
        assert strip_front_matter(result.survey_path.read_text()) == strip_front_matter(
            straight.survey_path.read_text()
        )

    def test_resumed_manifest_lists_every_stage(self, tmp_path):
        config = enable_code_analysis(make_config(tmp_path), tmp_path)
        run_pipeline(config, backends=build_backends(config), stop_after="analysis")
        run_pipeline(config, backends=build_backends(config), resume=True)
        manifest = json.loads(config.manifest_path.read_text())
        assert list(manifest["stage_seconds"]) == list(config.enabled_stages())
        assert len(manifest["stage_seconds"]) == 6
        assert manifest["failed_stage"] is None

    def test_failed_stage_leaves_a_manifest_naming_it(self, tmp_path):
        config = script_drafting_failure(make_config(tmp_path))
        with pytest.raises(StageError):
            run_pipeline(config, backends=build_backends(config))
        manifest = json.loads(config.manifest_path.read_text())
        assert manifest["failed_stage"] == "writing"
        assert manifest["completed_stages"] == ["retrieval", "understanding", "analysis"]
        assert list(manifest["stage_seconds"]) == manifest["completed_stages"]
        assert manifest["transport_calls"] > 0

    def test_a_retrieval_that_keeps_no_paper_fails_retrieval(self, tmp_path):
        reject = [{"paper_id": s, "relevant": False, "note": "off topic"} for s in SEEDS]
        config = prepend_rules(
            make_config(tmp_path), {"pattern": r"\(seed_filter\)", "replies": [json.dumps(reject)]}
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config, backends=build_backends(config))
        assert err.value.stage == "retrieval"
        assert isinstance(err.value.cause, RetrievalError)
        assert "passed the retrieval filters" in str(err.value.cause)
        assert committed_stages(config) == []

    def test_failed_neighbor_fetch_stops_retrieval_and_resume_fetches_the_rest(self, tmp_path):
        straight_cfg = make_config(tmp_path / "straight")
        straight = counted_backends(straight_cfg)
        run_pipeline(straight_cfg, backends=straight, stop_after="retrieval")
        config = make_config(tmp_path / "failed")
        failing = build_backends(config)
        failing.source = CountingSource(failing.source, failures=1, failing="references")
        with pytest.raises(StageError) as err:
            run_pipeline(config, backends=failing)
        assert err.value.stage == "retrieval"
        assert isinstance(err.value.cause, RetrievalError)
        assert "neighbor fetch for paper '" in str(err.value.cause)
        resumed = counted_backends(config)
        run_pipeline(config, backends=resumed, resume=True, stop_after="retrieval")
        done = len(failing.source.calls) - 1  # every call but the failed one
        assert done and resumed.source.calls
        assert resumed.source.calls == straight.source.calls[done:]
        papers = (config.substrate_dir / "papers.json").read_bytes()
        assert papers == (straight_cfg.substrate_dir / "papers.json").read_bytes()


    def test_failed_neighbor_fetch_under_workers_matches_the_serial_error(self, tmp_path):
        straight_cfg = make_config(tmp_path / "straight")
        run_pipeline(straight_cfg, backends=build_backends(straight_cfg), stop_after="retrieval")

        def fail(workers: int):
            config = make_config(tmp_path / f"workers{workers}")
            config.stage_workers = workers
            backends = build_backends(config)
            # Two frontier papers fail; the error names the first of them.
            later = CountingSource(backends.source, failures=1, failing="references", paper=SEEDS[3])
            backends.source = CountingSource(later, failures=1, failing="citations", paper=SEEDS[1])
            with pytest.raises(StageError) as err:
                run_pipeline(config, backends=backends)
            assert err.value.stage == "retrieval"
            return config, str(err.value.cause)

        _, serial = fail(1)
        config, parallel = fail(8)
        assert parallel == serial
        assert f"neighbor fetch for paper '{SEEDS[1]}' failed" in serial
        run_pipeline(config, backends=build_backends(config), resume=True, stop_after="retrieval")
        papers = (config.substrate_dir / "papers.json").read_bytes()
        assert papers == (straight_cfg.substrate_dir / "papers.json").read_bytes()


class CrashError(Exception):
    pass


def counted_backends(config):
    backends = build_backends(config)
    backends.source = CountingSource(backends.source)
    return backends


class TestSourceCache:
    def test_rerun_makes_no_source_call_and_writes_identical_papers(self, tmp_path):
        config = make_config(tmp_path)
        cold = counted_backends(config)
        run_pipeline(config, backends=cold)
        assert cold.source.calls
        papers = (config.substrate_dir / "papers.json").read_bytes()
        warm = counted_backends(config)
        run_pipeline(config, backends=warm)  # no resume: every stage runs again
        assert warm.source.calls == []
        assert warm.gateway.transport_calls == 0
        assert (config.substrate_dir / "papers.json").read_bytes() == papers

    def test_cache_copied_into_a_new_workdir_still_hits(self, tmp_path):
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config))
        moved = make_config(tmp_path, workdir=tmp_path / "moved")
        shutil.copytree(config.cache_dir, moved.cache_dir)
        backends = counted_backends(moved)
        run_pipeline(moved, backends=backends)
        assert backends.source.calls == []
        assert backends.gateway.transport_calls == 0

    def test_fallback_answers_are_cached_apart_from_the_primary(self, tmp_path):
        config = make_config(tmp_path)
        config.source.kind = "academic-graph"  # primary plus preprint fallback
        fixture = FixtureSource.from_file(config.source.fixture_path)

        def backends_with_fallback():
            backends = build_backends(config)
            # The primary finds nothing for the topic but serves the links.
            backends.source = CountingSource(
                FixtureSource(list(fixture.records.values()), search_results={TOPIC: []})
            )
            backends.fallback = CountingSource(fixture)
            return backends

        cold = backends_with_fallback()
        run_pipeline(config, backends=cold)
        assert cold.fallback.calls == ["search"]
        warm = backends_with_fallback()
        result = run_pipeline(config, backends=warm)
        assert warm.source.calls == [] and warm.fallback.calls == []
        assert result.runlog.of_kind("fallback_source_used")

    def test_a_primary_that_stays_down_leaves_the_fallback_seeds_unexpanded(self, tmp_path):
        config = make_config(tmp_path)
        config.source.kind = "academic-graph"  # primary plus preprint fallback
        fixture = FixtureSource.from_file(config.source.fixture_path)
        backends = build_backends(config)
        backends.source = CountingSource(fixture, failures=10**6)
        backends.fallback = fixture
        result = run_pipeline(config, backends=backends, stop_after="retrieval")
        assert backends.source.calls == ["search"]
        assert result.runlog.of_kind("expansion_skipped")
        seeds = set(fixture.search_results[TOPIC])
        assert result.substrate.papers and set(result.substrate.papers) <= seeds


class TestEvaluateRun:
    def test_report_files_written(self, tmp_path):
        config, backends, result = fresh_run(tmp_path)
        report = evaluate_run(config, result.survey_path, backends=backends)
        assert report.valid_ratio == 1.0
        assert report.recall == 1.0  # constant-true NLI backend
        assert report.weighted_total is not None
        base = str(result.survey_path).removesuffix(".md")
        assert Path(f"{base}.report.json").exists()
        assert Path(f"{base}.report.tsv").exists()

    def test_front_matter_stays_out_of_the_judge_prompt(self, tmp_path):
        config, _, result = fresh_run(tmp_path)
        first = build_backends(config)
        evaluate_run(config, result.survey_path, backends=first)
        assert first.gateway.transport_calls > 0
        survey = result.survey_path.read_text()
        survey = re.sub(r"^generated: .*$", "generated: 2000-01-01T00:00:00Z", survey, 1, re.M)
        survey = re.sub(r"^config: .*$", "config: 0123456789abcdef", survey, 1, re.M)
        result.survey_path.write_text(survey)
        second = build_backends(config)
        report = evaluate_run(config, result.survey_path, backends=second)
        assert second.gateway.transport_calls == 0
        assert report.weighted_total is not None

    def test_missing_sidecar_is_error(self, tmp_path):
        config, backends, result = fresh_run(tmp_path)
        config.sidecar_path.unlink()
        with pytest.raises(ConfigError):
            evaluate_run(config, result.survey_path, backends=backends)

    def test_claims_extracted_from_generated_survey(self, tmp_path):
        config, _, result = fresh_run(tmp_path)
        sidecar = json.loads(config.sidecar_path.read_text())
        claims = extract_claims(result.survey_path.read_text(), sidecar)
        assert claims, "generated survey carries citation-bearing claims"

    @pytest.mark.parametrize("source", ["abstract", "keynote", "tldr"])
    def test_premise_source_picks_the_evidence_text(self, tmp_path, source):
        config = make_config(tmp_path)
        # A cited paper without a TLDR: the tldr source falls back to its abstract.
        fixture_path = Path(config.source.fixture_path)
        fixture = json.loads(fixture_path.read_text())
        bare = next(p for p in fixture["papers"] if p["id"]["canonical"] == "2406.10005")
        bare["tldr"] = ""
        fixture_path.write_text(json.dumps(fixture))
        result = run_pipeline(config, backends=build_backends(config))
        substrate = result.substrate
        premise_of = {
            "abstract": lambda k, r: r.abstract,
            "keynote": lambda k, r: substrate.keynotes[k].tldr,
            "tldr": lambda k, r: r.tldr or r.abstract,
        }[source]

        class RecordingNli:
            def __init__(self):
                self.premises: set[str] = set()

            def entails(self, claim, premises):
                self.premises.update(premises)
                return True

        backends = build_backends(config)
        backends.nli = RecordingNli()
        config.evaluation.premise_source = source
        evaluate_run(config, result.survey_path, backends=backends)
        cited = {e["paper_id"] for e in json.loads(config.sidecar_path.read_text())["entries"]}
        assert "2406.10005" in cited
        expected = {premise_of(k, substrate.papers[k]) for k in cited}
        assert backends.nli.premises == expected
        if source == "tldr":
            assert substrate.papers["2406.10005"].abstract in expected
            assert "Key idea of 2406.10001." in expected


def round_scores(round_no: int) -> dict:
    """Judge scores that differ by round, so the report shows which round
    it took its content scores from."""
    return {
        dim: {sub: 5 + round_no + 0.1 * i for i, sub in enumerate(subs)}
        for dim, subs in RUBRIC_DIMENSIONS.items()
    }


class RoundJudge:
    """Stateless judge: the reply depends only on the prompt's round marker.
    Records each judge round it is sent and the most judge requests ever in
    flight at once; every other request goes to ``inner``."""

    def __init__(self, inner, refuse_round: int = 0, hold: float = 0.1):
        self.inner = inner
        self.refuse_round = refuse_round
        self.hold = hold
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.rounds: list[int] = []
        self.arrived = threading.Event()

    def send(self, request):
        if request.tag != "evaluation.judge":
            return self.inner.send(request)
        marker = re.search(r"^\(scoring round (\d+)\)$", request.prompt, re.M)
        round_no = int(marker.group(1)) if marker else 1
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.rounds.append(round_no)
        self.arrived.set()
        try:
            time.sleep(self.hold)
            if round_no == self.refuse_round:
                return TransportResponse(400, "")
            return TransportResponse(200, json.dumps(round_scores(round_no)))
        finally:
            with self.lock:
                self.in_flight -= 1


class TestConcurrentEvaluation:
    """The judge rounds fan out at stage_workers and run beside the
    substrate load and the citation metrics."""

    ROUNDS = 3

    @pytest.fixture
    def generated(self, tmp_path):
        config, _, _ = fresh_run(tmp_path)
        config.evaluation.judge_rounds = self.ROUNDS
        return config

    @staticmethod
    def judged_backends(config, workers: int, **judge_options):
        config.stage_workers = workers
        backends = build_backends(config)
        judge = backends.gateway.transport = RoundJudge(backends.gateway.transport, **judge_options)
        return backends, judge

    def evaluate(self, config, workers: int, **judge_options):
        """One evaluate at ``workers`` on an empty api cache."""
        shutil.rmtree(config.cache_dir, ignore_errors=True)
        backends, judge = self.judged_backends(config, workers, **judge_options)
        return evaluate_run(config, config.survey_path, backends=backends), judge

    @staticmethod
    def report_bytes(config) -> tuple[bytes, bytes]:
        base = str(config.survey_path).removesuffix(".md")
        return Path(f"{base}.report.json").read_bytes(), Path(f"{base}.report.tsv").read_bytes()

    @staticmethod
    def load_after(judge: RoundJudge, monkeypatch) -> None:
        """Make the substrate load wait until a judge request has been sent."""

        def load(directory):
            assert judge.arrived.wait(timeout=5), "no judge request before the substrate load"
            return substrate_load(directory)

        monkeypatch.setattr(pipeline_mod, "substrate_load", load)

    def test_report_files_identical_at_every_width(self, generated):
        outputs = {}
        for workers in (1, 2, 4):
            report, judge = self.evaluate(generated, workers, hold=0.0)
            # One worker sends the rounds in round order.
            assert (judge.rounds if workers == 1 else sorted(judge.rounds)) == [1, 2, 3]
            assert not report.metric_errors
            outputs[workers] = self.report_bytes(generated)
        assert outputs[2] == outputs[1] and outputs[4] == outputs[1]
        # The content scores are the last round's, whatever order the
        # rounds finished in.
        assert report.content.core == pytest.approx(5 + self.ROUNDS + 0.15)
        assert report.stability is not None and report.judge_rounds == self.ROUNDS

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_judge_calls_in_flight_never_exceed_stage_workers(self, generated, workers):
        _, judge = self.evaluate(generated, workers)
        assert judge.max_in_flight == min(workers, self.ROUNDS)

    def test_judge_runs_while_the_substrate_loads(self, generated, monkeypatch):
        backends, judge = self.judged_backends(generated, 1, hold=0.0)
        self.load_after(judge, monkeypatch)
        report = evaluate_run(generated, generated.survey_path, backends=backends)
        assert report.weighted_total is not None

    def test_a_refused_round_reports_the_serial_error(self, generated):
        serial, _ = self.evaluate(generated, 1, refuse_round=2, hold=0.0)
        serial_bytes = self.report_bytes(generated)
        wide, judge = self.evaluate(generated, 4, refuse_round=2, hold=0.0)
        assert "400" in serial.metric_errors["content"]
        assert wide.metric_errors == serial.metric_errors
        assert self.report_bytes(generated) == serial_bytes
        # No round's scores stand in for a failed judge.
        assert wide.content is None and wide.weighted_total is None
        assert sorted(judge.rounds) == [1, 2, 3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_substrate_load_stops_the_judge(self, generated, monkeypatch, workers):
        papers = generated.substrate_dir / "papers.json"
        intact = papers.read_bytes()
        papers.write_bytes(intact.replace(b"}", b"} ", 1))
        shutil.rmtree(generated.cache_dir)
        threads = set(threading.enumerate())
        backends, judge = self.judged_backends(generated, workers, hold=0.3)
        self.load_after(judge, monkeypatch)
        with pytest.raises(LoadError):
            evaluate_run(generated, generated.survey_path, backends=backends)
        assert set(threading.enumerate()) <= threads
        assert judge.rounds and self.ROUNDS not in judge.rounds  # round 3 never started

        # The rounds that were in flight stored their replies: after the
        # repair, only the others reach the judge.
        papers.write_bytes(intact)
        backends, rerun = self.judged_backends(generated, workers)
        report = evaluate_run(generated, generated.survey_path, backends=backends)
        assert report.weighted_total is not None
        assert sorted(judge.rounds + rerun.rounds) == [1, 2, 3]


class TestConfig:
    def test_yaml_round_trip_preserves_hash(self, tmp_path):
        config = enable_code_analysis(make_config(tmp_path), tmp_path)
        config.refinement.enabled = ("survey",)
        config.refinement.section.max_rounds = 2
        config.writing.citation_style = CitationStyle.ID
        path = tmp_path / "cfg.yaml"
        dump_config(config, path)
        loaded = load_config(path)
        assert loaded == config
        assert loaded.config_hash() == config.config_hash()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("stages: [retrieval, understanding]\n", "stages"),
            ("evaluation:\n  nli_default: false\n", "nli_default"),
            ("retrieval:\n  judge_max_retries: 3\n", "judge_max_retries"),
            ("analysis:\n  max_retries: 3\n", "max_retries"),
            ("code_analysis:\n  max_retries: 3\n", "max_retries"),
            ("refinement:\n  max_retries: 3\n", "max_retries"),
        ],
    )
    def test_removed_keys_refused(self, tmp_path, text, key):
        path = tmp_path / "cfg.yaml"
        path.write_text("topic: x\n" + text)
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("section", ["backend", "refinement", "evaluation"])
    def test_a_nested_section_must_be_a_mapping(self, tmp_path, section):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"topic: x\n{section}: 3\n")
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_config(path)

    @pytest.mark.parametrize("rounds", [-1, 1.5, "two", True])
    def test_judge_rounds_must_be_a_non_negative_int(self, rounds):
        with pytest.raises(ConfigError, match=f"judge_rounds .*{re.escape(repr(rounds))}"):
            EvaluationRunConfig(judge_rounds=rounds)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("evaluation:\n  judge_rounds: -2\n", "judge_rounds .*-2"),
            ("evaluation:\n  premise_source: keynotes\n", "premise_source .*'keynotes'"),
            ("refinement:\n  enabled: [sections, subsections]\n", "enabled .*'sections'"),
        ],
    )
    def test_evaluation_and_refinement_checked_when_loading_yaml(self, tmp_path, text, named):
        path = tmp_path / "cfg.yaml"
        path.write_text("topic: x\n" + text)
        with pytest.raises(ConfigError, match=named):
            load_config(path)

    def test_zero_judge_rounds_and_every_premise_source_load(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for source in ("abstract", "keynote", "tldr"):
            path.write_text(f"topic: x\nevaluation:\n  judge_rounds: 0\n  premise_source: {source}\n")
            assert load_config(path).evaluation.premise_source == source

    @pytest.mark.parametrize("workers", [0, -1, "two", 2.0, True])
    def test_stage_workers_must_be_a_positive_int(self, workers):
        with pytest.raises(ConfigError, match="stage_workers"):
            PipelineConfig(topic="t", stage_workers=workers)

    @pytest.mark.parametrize("value", ["0", "two"])
    def test_stage_workers_checked_when_loading_yaml(self, tmp_path, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"topic: x\nstage_workers: {value}\n")
        with pytest.raises(ConfigError, match="stage_workers"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, refused",
        [
            ("embedding: {batch_size: '32'}", "embedding.batch_size must be int, got '32' (str)"),
            ("retrieval: {per_seed_cap: true}", "retrieval.per_seed_cap must be int, got True (bool)"),
            ("backend: {backoff_min: '1.5'}", "backend.backoff_min must be float, got '1.5' (str)"),
            ("writing: {outline_temperature: false}", "writing.outline_temperature must be float, got False"),
            ("backend: {model: 4}", "backend.model must be str, got 4 (int)"),
            ("source: {preprint_fallback: 1}", "source.preprint_fallback must be bool, got 1 (int)"),
            ("code_analysis_enabled: 'yes'", "code_analysis_enabled must be bool, got 'yes' (str)"),
            ("cache_expiry_seconds: '60'", "cache_expiry_seconds must be float, got '60' (str)"),
            ("refinement: {enabled: [survey, 3]}", "refinement.enabled must be str, got 3 (int)"),
            ("refinement: {enabled: survey}", "refinement.enabled must be a list, got 'survey'"),
        ],
    )
    def test_a_scalar_of_the_wrong_type_is_refused_at_load(self, tmp_path, text, refused):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"topic: x\n{text}\n")
        with pytest.raises(ConfigError, match=re.escape(refused)):
            load_config(path)

    def test_an_int_for_a_float_and_null_for_an_optional_load_unchanged(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("topic: x\nbackend: {backoff_min: 2}\ncache_expiry_seconds: null\n")
        loaded = load_config(path)
        assert (loaded.backend.backoff_min, loaded.cache_expiry_seconds) == (2, None)
        assert loaded.config_hash() == PipelineConfig(topic="x").config_hash()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("topic: x\nnot_a_field: 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hash_ignores_placement_width_and_waiting(self):
        a = PipelineConfig(topic="t")
        b = PipelineConfig(topic="t", workdir="elsewhere")
        b.stage_workers = 4
        b.cache_expiry_seconds = 60.0
        b.backend.request_timeout = 5.0
        b.backend.backoff_min, b.backend.backoff_max = 0.5, 10.0
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_behavioral_fields(self):
        a = PipelineConfig(topic="t")
        b = PipelineConfig(topic="t")
        assert a.config_hash() == b.config_hash()
        b.retrieval.per_seed_cap = 21
        assert a.config_hash() != b.config_hash()

    def test_system_parameter_defaults(self):
        config = PipelineConfig(topic="t")
        assert config.backend.context_window == 512_000
        assert config.backend.max_attempts == 10
        assert (config.backend.backoff_min, config.backend.backoff_max) == (1.0, 300.0)
        assert config.retrieval.max_seed_papers == 15
        assert config.retrieval.expansion_depth == 1
        assert config.retrieval.per_seed_cap == 20
        assert config.writing.outline_temperature == 0.5
        assert config.writing.subsection_temperature == 0.7
        assert config.writing.section_temperature == 0.3
        assert config.code_analysis.max_rounds == 10
        assert config.code_analysis.planner_temperature == 0.0
        assert config.code_analysis.reviewer_temperature == 0.0
        assert config.code_analysis.reviser_temperature == 0.0
        assert config.code_analysis.creator_temperature == 0.3
        assert config.code_analysis.report_batch_size == 5
        assert config.refinement.survey.max_rounds == 5
        assert config.refinement.survey.planner_temperature == 0.7
        assert config.refinement.survey.reviewer_temperature == 1.0
        assert config.refinement.survey.reviser_temperature == 0.5
        assert config.refinement.subsection.planner_temperature == 0.1
        assert config.code_analysis_enabled is False

    def test_empty_topic_rejected_at_run(self, tmp_path):
        config = PipelineConfig(topic="", workdir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_pipeline(config)

    def test_secrets_only_via_environment(self, tmp_path):
        config = PipelineConfig(topic="t")
        dumped = tmp_path / "cfg.yaml"
        dump_config(config, dumped)
        text = dumped.read_text()
        assert "api_key_env" in text
        assert "api_key:" not in text
