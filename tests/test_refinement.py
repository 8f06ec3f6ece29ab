from __future__ import annotations

import json
import threading

import pytest

from litsurvey.errors import ConfigError, InvalidInputError
from litsurvey.model import (
    CitationStyle,
    DraftUnit,
    Granularity,
    OutlineNode,
)
from litsurvey.refinement import (
    LevelConfig,
    RefinementConfig,
    RefinementContext,
    RefinementMemory,
    read_keynotes_skill,
    refine,
    refine_all,
    review_skill,
    skill_loop_fallback,
)
from litsurvey.runlog import RunLog
from litsurvey.scripted import ScriptedTransport

from conftest import scripted_gateway


def outline_for(papers) -> OutlineNode:
    return OutlineNode(
        title="Survey",
        description="Survey",
        children=[
            OutlineNode(
                title="Methods",
                description="d",
                assigned={papers["p4"].id},
                children=[
                    OutlineNode(
                        title="Graph Methods",
                        description="d",
                        assigned={papers["p1"].id, papers["p2"].id},
                    )
                ],
            )
        ],
    )


def unit_for() -> DraftUnit:
    return DraftUnit(
        node_path=("Methods", "Graph Methods"),
        text="Initial draft citing <Alpha Methods>.",
        citations=[],
        granularity=Granularity.SUBSECTION,
    )


def ctx_for(papers, keynotes, transport, cfg=None) -> RefinementContext:
    return RefinementContext(
        papers=papers,
        keynotes=keynotes,
        outline=outline_for(papers),
        gateway=scripted_gateway(transport),
        cfg=cfg or RefinementConfig(),
        style=CitationStyle.TITLE,
        runlog=RunLog(),
    )


def subsection_rounds(n: int) -> RefinementConfig:
    """Default config whose subsection level runs ``n`` rounds."""
    return RefinementConfig(subsection=LevelConfig(n, 0.1, 0.1, 0.1))


def plan(*skills) -> str:
    return json.dumps([s if isinstance(s, dict) else {"skill": s} for s in skills])


REVIEW_6 = json.dumps({"scores": {"overall": 6}, "suggestions": ["deepen analysis"]})
REVIEW_8 = json.dumps({"scores": {"overall": 8}, "suggestions": []})
SATISFIED = json.dumps({"scores": {"overall": 9}, "suggestions": [], "satisfactory": True})


class TestRefine:
    def test_minimal_trace_review_revise_finish(self, papers, keynotes):
        transport = (
            ScriptedTransport()
            .add("coordinate refinement", plan("review"), plan({"skill": "revise", "instructions": "deepen"}), plan("finish"))
            .add("Review this subsection draft", REVIEW_6)
            .add("Revise this subsection draft", "Deeper draft citing <Alpha Methods>.")
        )
        ctx = ctx_for(papers, keynotes, transport, cfg=subsection_rounds(5))
        refined, memory = refine(unit_for(), ctx)
        assert refined.text == "Deeper draft citing <Alpha Methods>."
        skills = [e["skill"] for e in memory.events]
        assert skills == ["review", "revise", "finish"]

    def test_citation_breaking_revision_rejected_original_kept(self, papers, keynotes):
        bad = "Revision smuggles in <Zeta Review> twice."
        transport = (
            ScriptedTransport()
            .add("coordinate refinement", plan({"skill": "revise", "instructions": "x"}), plan("finish"))
            .add("Revise this subsection draft", bad)  # sticky: fails twice
        )
        ctx = ctx_for(papers, keynotes, transport, cfg=subsection_rounds(5))
        original = unit_for()
        refined, memory = refine(original, ctx)
        assert refined.text == original.text, "original retained"
        rejecting = [e for e in memory.events if "rejected" in e["summary"]]
        assert rejecting, "rejection event recorded in memory"
        assert ctx.runlog.of_kind("revision_rejected")
        # two attempts per round contract
        assert len(transport.calls_matching("Revise this subsection draft")) == 2

    def test_never_finishing_planner_stops_at_exactly_max_rounds(self, papers, keynotes):
        transport = (
            ScriptedTransport()
            .add("coordinate refinement", plan("review"))  # sticky, never finish
            .add("Review this", REVIEW_6)
        )
        ctx = ctx_for(papers, keynotes, transport, cfg=subsection_rounds(5))
        _, memory = refine(unit_for(), ctx)
        assert len(transport.calls_matching("coordinate refinement")) == 5
        assert max(e["round"] for e in memory.events) == 5

    def test_survey_level_default_cap_is_five_rounds(self, papers, keynotes):
        transport = (
            ScriptedTransport()
            .add("coordinate refinement", plan("review"))
            .add("Review this", REVIEW_6)
        )
        ctx = ctx_for(papers, keynotes, transport)
        survey_unit = DraftUnit(
            node_path=("Survey",),
            text="## Methods\n\nBody citing <Alpha Methods>.",
            citations=[],
            granularity=Granularity.SURVEY,
        )
        refine(survey_unit, ctx)
        assert len(transport.calls_matching("coordinate refinement")) == 5

    def test_zero_rounds_invalid(self, papers, keynotes):
        ctx = ctx_for(papers, keynotes, ScriptedTransport(), cfg=subsection_rounds(0))
        with pytest.raises(InvalidInputError):
            refine(unit_for(), ctx)


class TestReviewSkill:
    def test_fixed_scores_parsed(self, papers, keynotes):
        transport = ScriptedTransport().add("Review this", REVIEW_6)
        ctx = ctx_for(papers, keynotes, transport)
        verdict = review_skill(ctx, unit_for(), RefinementMemory(), 0.5)
        assert verdict["scores"] == {"overall": 6.0}
        assert verdict["suggestions"] == ["deepen analysis"]

    def test_score_delta_between_rounds(self, papers, keynotes):
        transport = ScriptedTransport().add("Review this", REVIEW_6, REVIEW_8)
        ctx = ctx_for(papers, keynotes, transport)
        memory = RefinementMemory()
        first = review_skill(ctx, unit_for(), memory, 0.5)
        memory.record(1, "review", "scores recorded")  # history advances the prompt
        second = review_skill(ctx, unit_for(), memory, 0.5, previous_scores=first["scores"])
        assert second["score_delta"] == pytest.approx(2.0)

    def test_out_of_range_score_retries(self, papers, keynotes):
        bad = json.dumps({"scores": {"overall": 12}, "suggestions": []})
        transport = ScriptedTransport().add("Review this", bad, REVIEW_6)
        ctx = ctx_for(papers, keynotes, transport)
        verdict = review_skill(ctx, unit_for(), RefinementMemory(), 0.5)
        assert verdict["scores"]["overall"] == 6.0
        assert len(transport.calls) == 2


class TestReadKeynotes:
    def test_known_ids_return_keynotes(self, papers, keynotes):
        ctx = ctx_for(papers, keynotes, ScriptedTransport())
        bundle = read_keynotes_skill(ctx, ["p1", "p2"])
        assert "## p1" in bundle and "## p2" in bundle

    def test_unknown_id_skipped_with_monitor_event(self, papers, keynotes):
        ctx = ctx_for(papers, keynotes, ScriptedTransport())
        bundle = read_keynotes_skill(ctx, ["p1", "phantom"])
        assert "## p1" in bundle and "phantom" not in bundle
        assert [e["offending"] for e in ctx.runlog.attribution_events()] == ["phantom"]

    def test_oversized_bundle_compressed_to_budget(self, papers, keynotes):
        from litsurvey.tokens import estimate_tokens

        for keynote in keynotes.values():
            keynote.sections["methodology"] = "waffle " * 500
        cfg = RefinementConfig(evidence_budget=500)
        ctx = ctx_for(papers, keynotes, ScriptedTransport(), cfg=cfg)
        bundle = read_keynotes_skill(ctx, sorted(keynotes))
        assert estimate_tokens(bundle) <= 500
        assert ctx.runlog.of_kind("evidence_compressed")


class TestSkillLoopFallback:
    def test_two_rounds_schedule(self, papers, keynotes):
        transport = (
            ScriptedTransport()
            .add("Review this", REVIEW_6)
            .add("Revise this", "Better draft citing <Alpha Methods>.")
        )
        ctx = ctx_for(papers, keynotes, transport, cfg=subsection_rounds(2))
        skill_loop_fallback(unit_for(), ctx)
        assert len(transport.calls_matching("Review this")) == 2
        assert len(transport.calls_matching("Revise this")) <= 2

    def test_satisfied_reviewer_stops_early(self, papers, keynotes):
        transport = (
            ScriptedTransport()
            .add("Review this", SATISFIED)
            .add("Revise this", "should never be called")
        )
        ctx = ctx_for(papers, keynotes, transport)
        result = skill_loop_fallback(unit_for(), ctx)
        assert len(transport.calls_matching("Review this")) == 1
        assert len(transport.calls_matching("Revise this")) == 0
        assert result.text == unit_for().text

    def test_citation_breaking_revision_keeps_original(self, papers, keynotes):
        transport = (
            ScriptedTransport()
            .add("Review this", REVIEW_6)
            .add("Revise this", "Broken <Phantom Paper> twice.")
        )
        ctx = ctx_for(papers, keynotes, transport, cfg=subsection_rounds(1))
        result = skill_loop_fallback(unit_for(), ctx)
        assert result.text == unit_for().text


def section_for() -> DraftUnit:
    return DraftUnit(
        node_path=("Methods",), text="Sec <Delta Benchmarks>.", citations=[],
        granularity=Granularity.SECTION,
    )


class TestRefineAll:
    def test_each_level_applied_once_in_order(self, papers, keynotes):
        seen_tags: list[str] = []

        class Tracker(ScriptedTransport):
            def send(self, request):
                if "coordinate refinement" in request.prompt:
                    seen_tags.append(request.prompt.split(" draft")[0].split()[-1])
                return super().send(request)

        transport = Tracker().add("coordinate refinement", plan("finish"))
        ctx = ctx_for(papers, keynotes, transport)
        units = refine_all([unit_for(), section_for()], ctx)
        assert seen_tags == ["subsection", "section", "survey"]
        assert [u.granularity for u in units] == [
            Granularity.SUBSECTION, Granularity.SECTION, Granularity.SURVEY,
        ]
        assert units[-1].node_path == ("Survey",)

    def test_the_outline_is_serialised_once_for_every_planner_round(self, papers, keynotes, monkeypatch):
        to_dict = OutlineNode.to_dict
        titles: list[str] = []
        monkeypatch.setattr(OutlineNode, "to_dict", lambda node: titles.append(node.title) or to_dict(node))
        transport = ScriptedTransport().add("coordinate refinement", plan("review")).add(
            "Review this", REVIEW_8
        )
        ctx = ctx_for(papers, keynotes, transport)
        units = refine_all([unit_for(), section_for()], ctx, workers=2)
        plans = transport.calls_matching("coordinate refinement")
        assert len(units) == 3 and len(plans) == 3 + 3 + 5
        assert titles.count("Survey") == 1
        assert {p.prompt.split("Outline: ")[1].split("\n")[0] for p in plans} == {ctx.outline_digest}

    def test_unit_levels_share_one_fan_out(self, papers, keynotes):
        # With two workers the section unit must not wait for the subsection
        # level to finish: its planner call arrives while the subsection's is
        # still in flight.
        section_arrived = threading.Event()
        overlapped: list[bool] = []

        class Gate(ScriptedTransport):
            def send(self, request):
                if "coordinate refinement of a subsection" in request.prompt:
                    overlapped.append(section_arrived.wait(timeout=2))
                elif "coordinate refinement of a section" in request.prompt:
                    section_arrived.set()
                return super().send(request)

        transport = Gate().add("coordinate refinement", plan("finish"))
        ctx = ctx_for(papers, keynotes, transport)
        refine_all([unit_for(), section_for()], ctx, workers=2)
        assert overlapped == [True]

    def test_survey_unit_composed_from_refined_units(self, papers, keynotes):
        revised = "Revised draft citing <Alpha Methods>."
        transport = (
            ScriptedTransport()
            .add(
                "coordinate refinement of a subsection",
                plan({"skill": "revise", "instructions": "x"}),
                plan("finish"),
            )
            .add("coordinate refinement", plan("finish"))
            .add("Revise this subsection draft", revised)
        )
        ctx = ctx_for(papers, keynotes, transport)
        units = refine_all([unit_for(), section_for()], ctx)
        survey = units[-1]
        assert units[0].text == revised
        assert survey.text == (
            "## Methods\n\nSec <Delta Benchmarks>.\n\n### Graph Methods\n\n" + revised
        )
        assert [m.key for m in survey.citations] == ["Delta Benchmarks", "Alpha Methods"]
        survey_plans = transport.calls_matching("coordinate refinement of a survey")
        assert survey_plans and all(revised in c.prompt for c in survey_plans)

    def test_levels_removable_via_config(self, papers, keynotes):
        transport = ScriptedTransport().add("coordinate refinement", plan("finish"))
        cfg = RefinementConfig(enabled=("survey",))
        ctx = ctx_for(papers, keynotes, transport, cfg=cfg)
        units = refine_all([unit_for(), section_for()], ctx)
        assert len(transport.calls_matching("coordinate refinement")) == 1
        assert units[:2] == [unit_for(), section_for()]
        assert units[-1].granularity is Granularity.SURVEY

    @pytest.mark.parametrize("enabled", [("sections", "subsections"), ("section", "Survey"), "survey"])
    def test_unknown_level_names_refused(self, enabled):
        with pytest.raises(ConfigError, match="refinement.enabled"):
            RefinementConfig(enabled=enabled)


def test_memory_render_compresses_but_keeps_recent_rounds():
    memory = RefinementMemory()
    for i in range(40):
        memory.record(i, "review", "s" * 300)
    text = memory.render(budget=500)
    assert "round 39" in text
    assert memory.compressed_state.startswith("[")


def test_default_level_parameters():
    cfg = RefinementConfig()
    assert cfg.survey == LevelConfig(5, 0.7, 1.0, 0.5)
    assert cfg.section == LevelConfig(3, 0.7, 1.0, 0.5)
    assert cfg.subsection == LevelConfig(3, 0.1, 0.1, 0.1)
