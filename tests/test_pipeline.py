from __future__ import annotations

import copy
import hashlib
import json
import re
import shutil
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from litsurvey import caching as caching_mod
from litsurvey import fanout as fanout_mod
from litsurvey import gateway as gateway_mod
from litsurvey import pipeline as pipeline_mod
from litsurvey import refinement as refinement_mod
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
from litsurvey.fanout import call_slots
from litsurvey.gateway import CompletionRequest, TransportResponse
from litsurvey.model import CitationStyle, Granularity, KnowledgeSubstrate
from litsurvey.pipeline import build_backends, evaluate_run, run_pipeline
from litsurvey.scripted import ScriptedTransport
from litsurvey.sources import FixtureSource
from litsurvey.substrate import read_record, substrate_load, substrate_save
from litsurvey.writing import check_evidence_locality

from conftest import CountingSource, make_paper
from doubles import CutFirstReply
from e2e_fixture import (
    ALL_IDS,
    SEEDS,
    TOPIC,
    enable_code_analysis,
    make_config,
    scripted_rules,
    title_of,
)


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

    @pytest.mark.parametrize("workers, slots", [(1, 1), (2, 4)])
    def test_manifest_records_the_call_slots_and_their_peak(self, tmp_path, workers, slots):
        config = make_config(tmp_path)
        config.stage_workers = workers
        run_pipeline(config, backends=build_backends(config))
        manifest = json.loads(config.manifest_path.read_text())
        assert manifest["call_slots"] == slots
        assert 1 <= manifest["peak_calls_in_flight"] <= slots
        assert 1 <= manifest["peak_source_calls_in_flight"] <= slots
        if workers == 1:
            assert manifest["peak_calls_in_flight"] == manifest["peak_source_calls_in_flight"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cold_run_answers_nothing_from_the_cache(self, tmp_path, workers):
        # The topic is embedded once, and no text or prompt is asked twice.
        config = make_config(tmp_path)
        config.stage_workers = workers
        run_pipeline(config, backends=build_backends(config))
        assert json.loads(config.manifest_path.read_text())["cache_hits"] == 0

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


class TestCutReplies:
    """A reply the backend cut at its ``max_output_tokens`` is retried at
    each free-text tag the fixture sends: the run completes with one more
    send and leaves the clean run's outputs, at any width."""

    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize(
        "tag", ["code.create", "code.batch_report", "code.integrate", "code.environment"]
    )
    def test_a_cut_reply_is_retried(self, tmp_path, tag, workers):
        config = enable_code_analysis(make_config(tmp_path), tmp_path)
        config.stage_workers = workers
        backends = build_backends(config)
        scripted = backends.gateway.transport
        backends.gateway.transport = cutting = CutFirstReply(scripted, tag)
        run_pipeline(config, backends=backends)
        assert [request.tag for request in cutting.cut] == [tag]
        assert len(scripted.calls) == 46  # the clean run's 45 sends and one retry
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]


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
        # workers send it beside batch 2. Batch 2 is held until batch 3 has
        # gone out: once batch 2 has failed, batch 3, after it in 1-worker
        # order, no longer starts.
        batch_2 = r"\(rerank\)\.\nPapers:\n- id: 2406\.10003 "
        rules = (
            {"pattern": batch_2, "replies": ["none"]},
            {"pattern": RERANK_BATCH_3, "replies": [{"text": "refused", "status": 400}]},
        )

        def run(workers: int) -> tuple[StageError, int]:
            config = self._config(tmp_path / f"workers{workers}", workers, *rules)
            backends = build_backends(config)
            if workers > 1:
                gate(backends.gateway.transport, batch_2, RERANK_BATCH_3, by_prompt=True)
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


def gate(transport, held: str, opens: str, by_prompt: bool = False) -> threading.Event:
    """Hold each request whose prompt matches ``held`` until a request
    tagged ``opens`` (with ``by_prompt``, one whose prompt matches
    ``opens``) has been sent; returns the event that records it."""
    send, seen = transport.send, threading.Event()

    def gated_send(request):
        if (re.search(opens, request.prompt) if by_prompt else request.tag == opens):
            seen.set()
        elif re.search(held, request.prompt):
            assert seen.wait(timeout=10), f"no {opens} request while {held!r} was held"
        return send(request)

    transport.send = gated_send
    return seen


def watch_aborts(monkeypatch) -> threading.Event:
    """Give the pipeline feeds that set the returned event once one of
    them is aborted."""
    aborted = threading.Event()

    class WatchedFeed(pipeline_mod.Feed):
        def abort(self):
            super().abort()
            aborted.set()

    monkeypatch.setattr(pipeline_mod, "Feed", WatchedFeed)
    return aborted


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

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_stage_starts_after_a_code_failure(self, tmp_path, monkeypatch, workers):
        # Above one worker, analysis hands writing its input only once code
        # analysis has failed and aborted its feed, so writing's input
        # comes after the failure: writing never starts.
        refuse = {"pattern": "configuration files below", "replies": [{"text": "no", "status": 400}]}
        config = self._config(tmp_path, workers, refuse)
        backends = build_backends(config)
        if workers > 1:
            aborted, send = watch_aborts(monkeypatch), backends.gateway.transport.send

            def held_send(request):
                if request.tag == "analysis.qa":
                    assert aborted.wait(timeout=10), "code analysis never failed"
                return send(request)

            backends.gateway.transport.send = held_send
        with pytest.raises(StageError) as err:
            run_pipeline(config, backends=backends)
        assert err.value.stage == "code_analysis"
        tags = [c.tag for c in backends.gateway.transport.calls]
        assert not [t for t in tags if t.startswith(("writing.", "refine."))]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_an_interrupt_inside_a_stage_stops_the_run_and_resumes(
        self, tmp_path, monkeypatch, workers
    ):
        # Above one worker, code analysis raises once analysis' one design
        # call has gone out: that merge would start no call after the
        # abort, and analysis would not commit.
        config = self._config(tmp_path, workers)
        backends = build_backends(config)
        designed = gate(backends.gateway.transport, "(?!)", "analysis.design")

        def interrupted(*args):
            assert designed.wait(timeout=10), "analysis sent no design call"
            raise KeyboardInterrupt

        threads = set(threading.enumerate())
        with monkeypatch.context() as patch:
            patch.setitem(pipeline_mod._STAGE_FUNCTIONS, "code_analysis", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(config, backends=backends)
        assert set(threading.enumerate()) <= threads
        assert committed_stages(config) == ["retrieval", "understanding", "analysis"]
        run_pipeline(config, backends=build_backends(config), resume=True)
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_a_signal_to_a_late_calling_thread_aborts_every_stage(self, tmp_path, monkeypatch):
        # The calling thread comes to take a stage only once retrieval has
        # committed, so a worker that gave up its stage would leave it none,
        # and the signal would reach no stage. Writing sends the signal once
        # the calling thread waits in a stage.
        config = self._config(tmp_path, 4)
        committed, arrived, aborted = threading.Event(), threading.Event(), watch_aborts(monkeypatch)
        save, work = pipeline_mod.substrate_save, fanout_mod.Pull._work
        writing, threads, seen = pipeline_mod._stage_writing, set(threading.enumerate()), []

        def saved(substrate, directory, stage):
            save(substrate, directory, stage)
            committed.set()

        def late_work(pull, fn):
            if threading.current_thread() is threading.main_thread() and not arrived.is_set():
                assert committed.wait(timeout=10), "retrieval never committed"
                time.sleep(0.05)
                arrived.set()
            return work(pull, fn)

        def interrupting_writing(*args):
            assert arrived.wait(timeout=10), "the calling thread never came"
            time.sleep(0.05)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            seen.append(aborted.wait(timeout=5))
            return writing(*args)

        monkeypatch.setattr(pipeline_mod, "substrate_save", saved)
        monkeypatch.setattr(fanout_mod.Pull, "_work", late_work)
        monkeypatch.setitem(pipeline_mod._STAGE_FUNCTIONS, "writing", interrupting_writing)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config, backends=build_backends(config))
        assert seen == [True], "the signal aborted no feed"
        assert set(threading.enumerate()) <= threads
        monkeypatch.undo()
        run_pipeline(config, backends=build_backends(config), resume=True)
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

    def test_an_interrupt_before_the_calling_thread_takes_a_stage_ends_every_stage(
        self, tmp_path, monkeypatch
    ):
        # The stage the calling thread would have taken never starts, so the
        # stages already started would wait for its feed for good.
        config = self._config(tmp_path, 4)
        work, threads = fanout_mod.Pull._work, set(threading.enumerate())

        def interrupted_work(pull, fn):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            return work(pull, fn)

        monkeypatch.setattr(fanout_mod.Pull, "_work", interrupted_work)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config, backends=build_backends(config))
        for thread in set(threading.enumerate()) - threads:
            thread.join(timeout=10)
        assert set(threading.enumerate()) <= threads
        monkeypatch.undo()
        run_pipeline(config, backends=build_backends(config), resume=True)
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
        assert 1 <= sent.count("analysis.design") <= 5  # of 6 design calls, one a batch

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

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_calls_in_flight_stay_within_two_stages_of_workers(self, tmp_path, workers):
        # The run's one call budget: 1 slot at one worker, else 2 x workers,
        # over chat sends and embedding batches alike. Writing's serial
        # outline fold or citation assignment sends one call at a time
        # beside analysis and code analysis.
        config = self._streamed(tmp_path, workers)
        backends = build_backends(config)
        transport, embedder = backends.gateway.transport, backends.gateway.embedder
        send, encode, lock = transport.send, embedder.encode, threading.Lock()
        in_flight: Counter = Counter()
        peak: Counter = Counter()

        def counted(call, stage_of):
            def run(arg):
                stage = stage_of(arg)
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
                    return call(arg)
                finally:
                    with lock:
                        in_flight[stage] -= 1
                        in_flight["all"] -= 1

            return run

        transport.send = counted(
            send, lambda request: next(s for s, t in STAGE_TAGS.items() if request.tag.startswith(t))
        )
        embedder.encode = counted(encode, lambda texts: "embedding")
        result = run_pipeline(config, backends=backends)
        assert peak["all"] <= (1 if workers == 1 else 2 * workers)
        assert peak["writing beside analysis"] <= 1
        assert result.manifest["peak_calls_in_flight"] >= peak["all"]

    def test_refinement_fills_the_slots_the_other_stages_leave_idle(self, tmp_path, monkeypatch):
        # Once writing has committed, refinement is the only stage left: at
        # two workers its fan-out reaches the run's 4 slots, where a cap of
        # stage_workers per stage held it at 2. No unit starts refining
        # before writing commits, and each refine call waits (briefly) for
        # a fourth to join it.
        config = self._config(tmp_path, 2)
        backends = build_backends(config)
        transport, save, refine = (
            backends.gateway.transport, pipeline_mod.substrate_save, refinement_mod.refine
        )
        send, cond, written = transport.send, threading.Condition(), threading.Event()
        in_flight = peak = 0

        def saved(substrate, directory, stage=None):
            save(substrate, directory, stage)
            if stage == "writing":
                written.set()

        def refine_once_written(unit, ctx):
            assert written.wait(timeout=10), "writing never committed"
            return refine(unit, ctx)

        def held_send(request):
            nonlocal in_flight, peak
            if not request.tag.startswith("refine."):
                return send(request)
            with cond:
                in_flight += 1
                peak = max(peak, in_flight)
                cond.notify_all()
                cond.wait_for(lambda: peak >= 4, timeout=0.2)
            try:
                return send(request)
            finally:
                with cond:
                    in_flight -= 1

        monkeypatch.setattr(pipeline_mod, "substrate_save", saved)
        monkeypatch.setattr(refinement_mod, "refine", refine_once_written)
        transport.send = held_send
        result = run_pipeline(config, backends=backends)
        assert peak == 4
        assert (result.manifest["call_slots"], result.manifest["peak_calls_in_flight"]) == (4, 4)
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]

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


def paired(transport, tags: tuple[str, ...]) -> set[str]:
    """Hold each request tagged one of ``tags`` until another of its tag is
    in flight beside it, for at most a second; returns the tags seen with
    two requests in flight at once."""
    send, cond, in_flight, paired_tags = transport.send, threading.Condition(), Counter(), set()

    def held_send(request):
        tag = request.tag
        if tag not in tags:
            return send(request)
        with cond:
            in_flight[tag] += 1
            if in_flight[tag] >= 2:
                paired_tags.add(tag)
                cond.notify_all()
            cond.wait_for(lambda: tag in paired_tags, timeout=1)
        try:
            return send(request)
        finally:
            with cond:
                in_flight[tag] -= 1

    transport.send = held_send
    return paired_tags


#: The requests of design batch 1 and of outline batch 1, of six each.
DESIGN_BATCH_1 = r"New batch of paper keynotes:\n- 2406\.10003: "
OUTLINE_BATCH_1 = r"outline of a survey.*Paper keynotes:\n- 2406\.10003 \|"


class TestTreeMerges:
    """With two keynotes a batch, the fixture's 12 papers make six design
    and six outline calls each: five leaves, which go out side by side,
    and the root, the last batch, which merges them."""

    @staticmethod
    def _config(root: Path, workers: int, *rules: dict) -> PipelineConfig:
        config = prepend_rules(make_config(root), *rules)
        config.analysis.design_batch_size = config.writing.outline_batch_size = 2
        config.stage_workers = workers
        return config

    def test_leaves_go_out_together_and_outputs_match_the_serial_run(self, tmp_path):
        digests = {}
        for workers in (1, 8):
            config = self._config(tmp_path / f"workers{workers}", workers)
            backends = build_backends(config)
            transport = backends.gateway.transport
            if workers > 1:
                paired_tags = paired(transport, ("analysis.design", "writing.outline"))
            run_pipeline(config, backends=backends)
            digests[workers] = output_digest(config)
            sent = Counter(c.tag for c in transport.calls)
            assert sent["analysis.design"] == sent["writing.outline"] == 6
        assert paired_tags == {"analysis.design", "writing.outline"}
        assert digests[1] == digests[8]

    @pytest.mark.parametrize("stage, pattern", [
        ("analysis", DESIGN_BATCH_1), ("writing", OUTLINE_BATCH_1),
    ])
    def test_a_refused_leaf_raises_the_serial_error(self, tmp_path, stage, pattern):
        refuse = {"pattern": pattern, "replies": [{"text": "no", "status": 400}]}

        def failure(workers: int) -> StageError:
            config = self._config(tmp_path / f"workers{workers}", workers, refuse)
            with pytest.raises(StageError) as err:
                run_pipeline(config, backends=build_backends(config))
            return err.value

        serial, parallel = failure(1), failure(4)
        assert parallel.stage == serial.stage == stage
        assert "status 400" in str(serial)
        assert str(parallel) == str(serial)


#: The first attempt of the last of six rerank batches, two papers each.
LAST_RERANK = r"\(rerank\)\.\nPapers:\n- id: 2406\.10011 "
FIRST_KEYNOTE = "keynote for paper id 2406.10001."


class TestRetrievalHandOff:
    """Above one worker the graph fetches, the coarse filter and the
    rerank are one fan-out of at most ``stage_workers`` calls, each rerank
    batch goes out once its papers are filtered, and understanding keynotes
    the papers of each judged batch before retrieval commits."""

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

    def test_keynotes_start_while_the_last_seed_s_references_are_fetched(self, tmp_path):
        # Four texts an embedding batch: the seeds fill the first, so their
        # rerank batches, and the keynotes of the papers these keep, need
        # no neighbor of the last seed, the last frontier paper.
        config = self._config(tmp_path, 2, embed_batch=4)
        backends = build_backends(config)
        seen = gate(backends.gateway.transport, "(?!)", "understanding.keynote")
        source = backends.source
        references = source.references

        def held_references(paper_id, limit):
            if paper_id.canonical == SEEDS[-1]:
                assert seen.wait(timeout=10), "no keynote request while the references were held"
            return references(paper_id, limit)

        source.references = held_references
        run_pipeline(config, backends=backends)
        assert seen.is_set()
        assert output_digest(config) == TestGoldenOutput.GOLDEN["plain"]

    def test_a_rerank_batch_goes_out_ahead_of_the_embedding_batches_queued(self, tmp_path):
        # Three embedding batches of four papers. With batch 1 held until a
        # rerank request is sent, batch 2 goes out after one only if the
        # rerank batch that batch 0 completes is picked ahead of it.
        config = self._config(tmp_path / "serial", 1, embed_batch=4)
        backends = build_backends(config)
        embedder, sent = backends.gateway.embedder, []
        encode = embedder.encode
        embedder.encode = lambda texts: sent.append(list(texts)) or encode(texts)
        run_pipeline(config, backends=backends, stop_after="retrieval")
        batches = [texts for texts in sent if len(texts) == 4]
        assert len(batches) == 3

        config = self._config(tmp_path / "parallel", 2, embed_batch=4)
        backends = build_backends(config)
        seen = gate(backends.gateway.transport, "(?!)", "retrieval.rerank")
        embedder, rerank_first = backends.gateway.embedder, []
        encode = embedder.encode

        def gated_encode(texts):
            if list(texts) == batches[1]:
                assert seen.wait(timeout=10), "no rerank request while batch 1 was held"
            elif list(texts) == batches[2]:
                rerank_first.append(seen.is_set())
            return encode(texts)

        embedder.encode = gated_encode
        run_pipeline(config, backends=backends, stop_after="retrieval")
        assert rerank_first == [True], "embedding batch 2 went out before any rerank request"
        assert committed_stages(config) == ["retrieval"]

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

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_stops_retrieval_at_its_next_source_call(self, tmp_path, monkeypatch):
        # The first seed's citations are held while the signal reaches the
        # calling thread, which need not be retrieval's: once the abort is
        # in and the fetch returns, retrieval starts no source call, among
        # them that seed's references, and does not commit.
        config = self._config(tmp_path, 2)
        backends = build_backends(config)
        source, aborted = backends.source, watch_aborts(monkeypatch)
        held, released, late = threading.Event(), threading.Event(), []
        threads = set(threading.enumerate())

        def watched(fetch):
            def run(paper_id, limit):
                late.append(released.is_set())
                if paper_id.canonical == SEEDS[0] and not held.is_set():
                    held.set()
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    assert aborted.wait(timeout=10), "the interrupt aborted no feed"
                    time.sleep(0.05)
                    released.set()
                return fetch(paper_id, limit)

            return run

        source.citations, source.references = watched(source.citations), watched(source.references)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config, backends=backends)
        for thread in set(threading.enumerate()) - threads:
            thread.join(timeout=10)
        assert held.is_set() and released.is_set()
        assert late and not any(late), "a source call started after the abort"
        assert committed_stages(config) == []
        assert set(threading.enumerate()) <= threads

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_retrieval_calls_in_flight_stay_within_the_call_budget(self, tmp_path, workers):
        # One paper per embedding batch and per rerank batch: 24 calls that
        # retrieval's fan-out, 2 x workers wide, sends through the run's
        # 2 x workers slots.
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
        assert peak <= 2 * workers
        assert committed_stages(config) == ["retrieval"]


def full_texts(config: PipelineConfig) -> PipelineConfig:
    """Give every paper without one a short full text, so that each
    keynote is a backend call."""
    for canonical in ALL_IDS:
        paper_dir = Path(config.parsed_docs_dir) / canonical
        if not paper_dir.exists():
            paper_dir.mkdir(parents=True)
            (paper_dir / "paper.md").write_text(
                f"# Method\nThe full text of {canonical}.\n", encoding="utf-8"
            )
    return config


class TestSourceCalls:
    """A paper-source call the api cache misses holds none of the
    gateway's call slots."""

    def test_a_held_source_fetch_leaves_the_chat_calls_every_slot(self, tmp_path):
        # The seeds fill the first embedding batch, so their rerank batches
        # and keynotes need no neighbor of the last seed. While its
        # references are fetched, the chat calls still reach the gateway's
        # four slots: each waits (briefly) for a fourth to join it.
        config = full_texts(TestRetrievalHandOff._config(tmp_path, 2, embed_batch=4))
        backends = build_backends(config)
        transport, source = backends.gateway.transport, backends.source
        send, references, cond = transport.send, source.references, threading.Condition()
        in_flight = peak = 0

        def held_send(request):
            nonlocal in_flight, peak
            with cond:
                in_flight += 1
                peak = max(peak, in_flight)
                cond.notify_all()
                cond.wait_for(lambda: peak >= 4, timeout=0.2)
            try:
                return send(request)
            finally:
                with cond:
                    in_flight -= 1

        def held_references(paper_id, limit):
            if paper_id.canonical == SEEDS[-1]:
                with cond:
                    assert cond.wait_for(lambda: peak >= 4, timeout=10), (
                        "the chat calls never filled the gateway's slots"
                    )
            return references(paper_id, limit)

        transport.send, source.references = held_send, held_references
        result = run_pipeline(config, backends=backends)
        assert peak == 4
        assert result.manifest["peak_calls_in_flight"] == 4
        assert 1 <= result.manifest["peak_source_calls_in_flight"] <= 4


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
        assert counter.count > 80
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

    def test_resume_with_other_stage_workers_is_accepted(self, tmp_path):
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


def sent_pairs(backends) -> list[tuple[str, str]]:
    return sorted((call.tag, call.prompt) for call in backends.gateway.transport.calls)


class TestWideResume:
    """A 1-worker run stopped after each committed stage and resumed at
    four workers sends what the straight run sends and the stopped run did
    not, and leaves the straight run's outputs: each committed stage's
    output reaches the stages after it, code analysis' overviews the
    drafting prompts too."""

    @pytest.fixture(scope="class")
    def straight(self, tmp_path_factory) -> Counter:
        root = tmp_path_factory.mktemp("straight")
        config = enable_code_analysis(make_config(root), root)
        config.stage_workers = 1
        backends = build_backends(config)
        run_pipeline(config, backends=backends)
        return Counter(sent_pairs(backends))

    @pytest.mark.parametrize(
        "stop_after", ["retrieval", "understanding", "analysis", "code_analysis", "writing"]
    )
    def test_the_resume_sends_the_rest_of_the_straight_run(self, tmp_path, straight, stop_after):
        config = enable_code_analysis(make_config(tmp_path), tmp_path)
        config.stage_workers = 1
        stopped = build_backends(config)
        run_pipeline(config, backends=stopped, stop_after=stop_after)
        assert committed_stages(config)[-1] == stop_after
        config.stage_workers = 4
        resumed = build_backends(config)
        run_pipeline(config, backends=resumed, resume=True)
        assert sent_pairs(resumed) == sorted((straight - Counter(sent_pairs(stopped))).elements())
        assert output_digest(config) == TestGoldenOutput.GOLDEN["code_analysis"]


class TestFinishedResume:
    """A resume of a finished run whose record vouches for its survey
    decodes no substrate file and assembles nothing."""

    @staticmethod
    def _resume(config):
        backends = build_backends(config)
        result = run_pipeline(config, backends=backends, resume=True)
        assert backends.gateway.transport_calls == 0
        events = [e for e in result.runlog.events if e["kind"] in ("resumed", "stage_skipped")]
        return result, events, config.manifest_path.read_bytes()

    def test_zero_work_resume_decodes_and_assembles_nothing(self, tmp_path, monkeypatch):
        config, _, _ = fresh_run(tmp_path)
        assert set(read_record(config.substrate_dir)["survey"]) == {"document", "sidecar"}
        outputs = (config.survey_path, config.sidecar_path)
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in outputs]

        def forbidden(*args, **kwargs):
            raise AssertionError("a finished run's resume decoded or assembled")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline_mod, "substrate_load", forbidden)
            patch.setattr(substrate_mod, "_read", forbidden)
            patch.setattr(pipeline_mod.writing_mod, "assemble_survey", forbidden)
            result, events, _ = self._resume(config)
        assert result.survey_path == config.survey_path
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in outputs] == before
        assert [e["kind"] for e in events] == ["resumed"] + ["stage_skipped"] * 5
        assert result.substrate == substrate_load(config.substrate_dir)

    def test_logs_and_manifest_match_a_resume_through_every_stage(self, tmp_path):
        config, _, _ = fresh_run(tmp_path)
        fast = self._resume(config)[1:]
        # A record without the survey entry, as an older run left it.
        record_path = config.substrate_dir / "commit.json"
        record = json.loads(record_path.read_text())
        vouched = record.pop("survey")
        record_path.write_text(json.dumps(record))
        full_result, *full = self._resume(config)
        assert full == list(fast)
        assert full_result.substrate == substrate_load(config.substrate_dir)
        assert read_record(config.substrate_dir)["survey"] == vouched  # healed

    @pytest.mark.parametrize("output", ["survey_path", "sidecar_path"])
    @pytest.mark.parametrize("damage", ["edited", "deleted"])
    def test_damaged_output_is_rewritten_to_the_clean_bytes(self, tmp_path, output, damage):
        config, _, _ = fresh_run(tmp_path)
        clean = {p: p.read_bytes() for p in (config.survey_path, config.sidecar_path)}
        vouched = read_record(config.substrate_dir)["survey"]
        path = getattr(config, output)
        if damage == "edited":
            path.write_text(path.read_text() + "edited\n")
        else:
            path.unlink()
        result, _, _ = self._resume(config)
        assert {p: p.read_bytes() for p in clean} == clean
        assert read_record(config.substrate_dir)["survey"] == vouched
        assert result.substrate == substrate_load(config.substrate_dir)


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
        # The reset, one commit per stage, and the survey's digests.
        assert counts.pop("substrate/commit.json") == 2 + len(stages)
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


class TestBackendCacheScopes:
    """Completion and embedding cache entries belong to the backend that
    answered them: the scopes ``build_backends`` derives name its kind,
    endpoint or rules file and model, never the workdir or an API key."""

    @staticmethod
    def _keys(config: PipelineConfig) -> tuple[str, str]:
        """The cache keys of one completion and one embedding asked through
        the gateway ``build_backends`` makes for ``config``."""
        gateway = build_backends(config).gateway
        gateway.transport = ScriptedTransport(default="a reply")
        gateway.complete(CompletionRequest(prompt="a prompt", tag="general"))
        gateway.embed(["a text"])
        [segment] = (config.cache_dir / "api").glob("*.log")
        complete, embed = (line.split(" ")[0] for line in segment.read_text().splitlines())
        return complete, embed

    @staticmethod
    def _variant(root: Path, name: str, change) -> PipelineConfig:
        config = make_config(root / "fixture", workdir=root / name)
        change(config)
        return config

    def test_keys_follow_the_backend_and_not_the_run(self, tmp_path):
        def set_attr(section, field, value):
            return lambda config: setattr(getattr(config, section), field, value)

        base = self._keys(self._variant(tmp_path, "base", lambda config: None))
        same = {
            "workdir": lambda config: None,  # each variant has its own workdir
            "backend key": set_attr("backend", "api_key_env", "OTHER_CHAT_KEY"),
            "embedding key": set_attr("embedding", "api_key_env", "OTHER_EMBED_KEY"),
        }
        for name, change in same.items():
            assert self._keys(self._variant(tmp_path, name, change)) == base, name
        chat_model = self._keys(self._variant(tmp_path, "chat model", set_attr("backend", "model", "m2")))
        assert chat_model[0] != base[0] and chat_model[1] == base[1]
        embed_model = self._keys(self._variant(tmp_path, "embed model", set_attr("embedding", "model", "e2")))
        assert embed_model[0] == base[0] and embed_model[1] != base[1]

    def test_a_rerun_over_another_model_asks_that_model(self, tmp_path):
        config = make_config(tmp_path)
        run_pipeline(config, backends=build_backends(config), stop_after="retrieval")
        warm = counted_backends(config)
        run_pipeline(config, backends=warm, stop_after="retrieval")
        assert (warm.source.calls, warm.gateway.transport_calls) == ([], 0)
        config.backend.model = "another-model"
        other = counted_backends(config)
        run_pipeline(config, backends=other, stop_after="retrieval")
        # The paper sources did not change, so their answers still hit.
        assert other.source.calls == []
        assert other.gateway.transport_calls == len(other.gateway.transport.calls) > 0


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

    def test_a_failed_report_write_keeps_the_previous_report(self, tmp_path, monkeypatch):
        config, backends, result = fresh_run(tmp_path)
        config.evaluation.judge_rounds = 1
        evaluate_run(config, result.survey_path, backends=backends)
        report = Path(str(result.survey_path).removesuffix(".md") + ".report.json")
        before = report.read_bytes()
        real_replace = Path.replace

        def replace(path, target):
            if Path(target) == report:
                raise OSError("disk full")
            return real_replace(path, target)

        config.evaluation.judge_rounds = 2  # a report of other bytes
        monkeypatch.setattr(Path, "replace", replace)
        with pytest.raises(PersistenceError):
            evaluate_run(config, result.survey_path, backends=backends)
        assert report.read_bytes() == before

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

    @pytest.mark.parametrize("source", ["abstract", "keynote", "tldr"])
    def test_evaluate_reads_only_the_premise_files(self, tmp_path, monkeypatch, source):
        config, _, result = fresh_run(tmp_path)
        config.evaluation.premise_source = source
        read: list[str] = []
        original = substrate_mod._read

        def recording(path, digest):
            read.append(path.name)
            return original(path, digest)

        monkeypatch.setattr(substrate_mod, "_read", recording)
        report = evaluate_run(config, result.survey_path, backends=build_backends(config))
        assert report.recall == 1.0
        if source == "keynote":
            assert read == ["papers.json", "keynotes.json"]
        else:
            assert read == ["papers.json"]


def round_scores(round_no: int) -> dict:
    """Judge scores that differ by round, so the report shows which round
    it took its content scores from; in the rubric's range for rounds 1 to 5."""
    return {
        dim: {sub: 4 + round_no + 0.1 * i for i, sub in enumerate(subs)}
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
        #: ("sent" | "returned", round) in the order they happened; a test
        #: may add events of its own under ``lock``
        self.events: list[tuple[str, object]] = []
        self.arrived = threading.Event()

    def record(self, kind: str, what) -> None:
        with self.lock:
            self.events.append((kind, what))

    def send(self, request):
        if request.tag != "evaluation.judge":
            return self.inner.send(request)
        marker = re.search(r"^\(scoring round (\d+)\)$", request.prompt, re.M)
        round_no = int(marker.group(1)) if marker else 1
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.rounds.append(round_no)
            self.events.append(("sent", round_no))
        self.arrived.set()
        try:
            time.sleep(self.hold)
            if round_no == self.refuse_round:
                return TransportResponse(400, "")
            return TransportResponse(200, json.dumps(round_scores(round_no)))
        finally:
            with self.lock:
                self.in_flight -= 1
                self.events.append(("returned", round_no))


class TestConcurrentEvaluation:
    """The judge rounds fan out as wide as the run's call slots and run
    beside the substrate load and the citation metrics, which start once the first
    wave of rounds is out."""

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

        def load(directory, *args, **kwargs):
            assert judge.arrived.wait(timeout=5), "no judge request before the substrate load"
            return substrate_load(directory, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "substrate_load", load)

    @staticmethod
    def record_reads(judge: RoundJudge, monkeypatch) -> None:
        """Add a ("read", file name) event to the judge's for every
        substrate file read, the commit record included."""
        read_record, read = substrate_mod.read_record, substrate_mod._read

        def recording_record(directory):
            judge.record("read", substrate_mod.COMMIT_FILE)
            return read_record(directory)

        def recording(path, digest):
            judge.record("read", path.name)
            return read(path, digest)

        monkeypatch.setattr(substrate_mod, "read_record", recording_record)
        monkeypatch.setattr(substrate_mod, "_read", recording)

    @staticmethod
    def first_read(judge: RoundJudge) -> int:
        return next(at for at, (kind, _) in enumerate(judge.events) if kind == "read")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_first_wave_is_sent_before_the_substrate_is_read(
        self, generated, monkeypatch, workers
    ):
        # The judge's path to the transport is slow: a load that does not
        # wait for the first wave reads the substrate before it is sent.
        complete = gateway_mod.Gateway.complete

        def slow_complete(gateway, request):
            if request.tag == "evaluation.judge":
                time.sleep(0.2)
            return complete(gateway, request)

        monkeypatch.setattr(gateway_mod.Gateway, "complete", slow_complete)
        shutil.rmtree(generated.cache_dir)
        backends, judge = self.judged_backends(generated, workers, hold=0.0)
        self.record_reads(judge, monkeypatch)
        report = evaluate_run(generated, generated.survey_path, backends=backends)
        assert report.weighted_total is not None
        before_load = judge.events[: self.first_read(judge)]
        assert {r for kind, r in before_load if kind == "sent"} >= set(range(1, workers + 1))
        assert sorted(judge.rounds) == [1, 2, 3]

    def test_the_load_never_waits_for_a_round_to_return(self, generated, monkeypatch):
        # Only round 1's reply is cached, and round 2 is the last: the
        # first wave is one cache hit and one request held in the transport.
        generated.evaluation.judge_rounds = 1
        self.evaluate(generated, 1, hold=0.0)
        generated.evaluation.judge_rounds = 2
        backends, judge = self.judged_backends(generated, 2, hold=0.5)
        self.record_reads(judge, monkeypatch)
        report = evaluate_run(generated, generated.survey_path, backends=backends)
        assert report.weighted_total is not None
        assert judge.rounds == [2]
        assert self.first_read(judge) < judge.events.index(("returned", 2))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_an_evaluate_of_cached_rounds_makes_no_call(self, generated, workers):
        self.evaluate(generated, workers, hold=0.0)
        first = self.report_bytes(generated)
        backends, judge = self.judged_backends(generated, workers)
        report = evaluate_run(generated, generated.survey_path, backends=backends)
        assert report.weighted_total is not None
        assert backends.gateway.transport_calls == 0 and judge.rounds == []
        assert self.report_bytes(generated) == first

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
        assert report.content.core == pytest.approx(4 + self.ROUNDS + 0.15)
        assert report.stability is not None and report.judge_rounds == self.ROUNDS

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_judge_calls_in_flight_fill_the_call_slots(self, generated, workers):
        _, judge = self.evaluate(generated, workers)
        assert judge.max_in_flight == min(call_slots(workers), self.ROUNDS)

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
        # One round more than the first wave, which fills the call slots.
        rounds = generated.evaluation.judge_rounds = call_slots(workers) + 1
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
        assert judge.rounds and rounds not in judge.rounds  # the last round never started

        # The rounds that were in flight stored their replies: after the
        # repair, only the others reach the judge.
        papers.write_bytes(intact)
        backends, rerun = self.judged_backends(generated, workers)
        report = evaluate_run(generated, generated.survey_path, backends=backends)
        assert report.weighted_total is not None
        assert sorted(judge.rounds + rerun.rounds) == list(range(1, rounds + 1))


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
