from __future__ import annotations

import json

import pytest

from litsurvey.errors import DraftingError, InvalidInputError
from litsurvey.fanout import Feed
from litsurvey.gateway import BackendProfile
from litsurvey.model import CitationStyle, DraftUnit, Granularity, OutlineNode
from litsurvey.runlog import RunLog
from litsurvey.scripted import ScriptedTransport
from litsurvey.writing import (
    WritingConfig,
    WritingContext,
    apply_assignment,
    assemble_survey,
    assign_citations,
    check_evidence_locality,
    compose_body,
    draft_outline,
    draft_section,
    draft_subsection,
)

from conftest import scripted_gateway
from doubles import FixtureEmbedder

SKELETON = {
    "title": "A Survey of Alpha Methods",
    "sections": [
        {
            "title": title,
            "description": f"covers {title.lower()}",
            "subsections": subs,
        }
        for title, subs in [
            ("Introduction", [{"title": "Scope", "description": "scope and goals"}]),
            ("Historical Evolution", [{"title": "Early Work", "description": "early systems"}]),
            ("System Architectures", [{"title": "Pipelines", "description": "pipeline designs"}]),
            ("Core Techniques", [{"title": "Retrieval", "description": "retrieval methods"}]),
            ("Evaluation Practice", [{"title": "Metrics", "description": "metric families"}]),
            ("Open Challenges", [{"title": "Reliability", "description": "failure modes"}]),
            ("Future Directions", [{"title": "Outlook", "description": "what comes next"}]),
            ("Conclusion", []),
        ]
    ],
}


def small_cfg(**kwargs) -> WritingConfig:
    defaults = dict(
        subsection_least_citations=2,
        subsection_least_words=8,
        section_least_citations=1,
        section_least_words=5,
    )
    defaults.update(kwargs)
    return WritingConfig(**defaults)


def context(papers, keynotes, transport=None, cfg=None, embedder=None, profile=None):
    return WritingContext(
        papers=papers,
        keynotes=keynotes,
        clusters=[],
        analyses=[],
        cfg=cfg or small_cfg(),
        gateway=scripted_gateway(
            transport or ScriptedTransport(), embedder=embedder, profile=profile
        ),
        runlog=RunLog(),
    )


class TestDraftOutline:
    def test_skeleton_with_eight_sections_parses(self, papers, keynotes):
        transport = ScriptedTransport().add("outline of a survey", json.dumps(SKELETON))
        ctx = context(papers, keynotes, transport)
        outline = draft_outline(ctx, "alpha methods", Feed())
        assert len(outline.children) == 8
        assert all(s.description for s in outline.children)
        assert outline.title == "A Survey of Alpha Methods"

    def test_missing_conclusion_retries_with_requirement_in_memory(self, papers, keynotes):
        broken = {
            "title": "T",
            "sections": [
                {"title": "Only Section", "description": "d",
                 "subsections": [{"title": "Future Directions", "description": "d"}]},
            ],
        }
        transport = ScriptedTransport().add(
            "outline of a survey", json.dumps(broken), json.dumps(SKELETON)
        )
        ctx = context(papers, keynotes, transport)
        outline = draft_outline(ctx, "alpha methods", Feed())
        assert len(transport.calls) == 2
        retry_prompt = transport.calls[1].prompt
        assert "conclusion" in retry_prompt.lower()
        assert outline.children[-1].title == "Conclusion"

    def test_oversized_keynote_context_compressed(self, papers, keynotes):
        transport = ScriptedTransport().add("outline of a survey", json.dumps(SKELETON))
        profile = BackendProfile(context_window=400)
        big_keynotes = dict(keynotes)
        for key in list(big_keynotes)[:3]:
            keynote = big_keynotes[key]
            keynote.sections["tldr"] = "long " * 200
        ctx = context(papers, big_keynotes, transport, profile=profile)
        outline = draft_outline(ctx, "alpha methods", Feed())
        assert outline is not None
        assert ctx.runlog.of_kind("context_compressed")

    def test_depth_violation_rejected(self, papers, keynotes):
        too_deep = {
            "title": "T",
            "sections": [
                {
                    "title": "S",
                    "description": "d",
                    "subsections": [
                        {
                            "title": "SS",
                            "description": "d",
                            "subsections": [{"title": "SSS", "description": "d"}],
                        }
                    ],
                },
                {"title": "Conclusion", "description": "d", "subsections": []},
                {"title": "Future Directions", "description": "d", "subsections": []},
            ],
        }
        transport = ScriptedTransport().add(
            "outline of a survey", json.dumps(too_deep), json.dumps(SKELETON)
        )
        ctx = context(papers, keynotes, transport)
        draft_outline(ctx, "alpha methods", Feed())
        assert len(transport.calls) == 2


def build_outline() -> OutlineNode:
    return OutlineNode(
        title="Survey",
        description="Survey",
        children=[
            OutlineNode(
                title="Methods",
                description="method families",
                children=[
                    OutlineNode(title="Graph Methods", description="graph-based analysis"),
                    OutlineNode(title="Agent Methods", description="agentic workflows"),
                ],
            ),
            OutlineNode(title="Conclusion", description="closing synthesis"),
        ],
    )


def assignment_reply(mapping: dict[str, dict]) -> str:
    return json.dumps(
        [{"paper_id": k, "assignment": v} for k, v in mapping.items()]
    )


class TestAssignCitations:
    def test_complete_matching_assignment(self, papers, keynotes):
        outline = build_outline()
        reply = assignment_reply(
            {
                "p1": {"Methods": ["Graph Methods"]},
                "p2": {"Methods": ["Agent Methods"]},
                "p3": {"Methods": ["Graph Methods", "Agent Methods"]},
                "p4": {"Conclusion": []},
                "p5": {"Methods": ["Graph Methods"]},
                "p6": {"Methods": ["Agent Methods"]},
            }
        )
        transport = ScriptedTransport().add("Assign every paper", reply)
        ctx = context(papers, keynotes, transport)
        mapping = assign_citations(ctx, outline)
        assert {p.canonical for p in mapping[("Methods", "Graph Methods")]} == {"p1", "p3", "p5"}
        assert {p.canonical for p in mapping[("Conclusion",)]} == {"p4"}
        assert not ctx.runlog.of_kind("assignment_fallback")
        assert len(transport.calls) == 1

    def test_misspelled_title_retries_then_embedding_fallback(self, papers, keynotes):
        outline = build_outline()
        bad = assignment_reply(
            {
                "p1": {"Methdos": ["Graph Methods"]},  # misspelled section
                **{k: {"Methods": ["Graph Methods"]} for k in ("p2", "p3", "p4", "p5", "p6")},
            }
        )
        transport = ScriptedTransport().add("Assign every paper", bad)
        embedder = FixtureEmbedder(
            {
                "graph-based analysis": [1.0, 0.0],
                "agentic workflows": [0.0, 1.0],
                "closing synthesis": [-1.0, 0.0],
                keynotes["p1"].tldr: [0.2, 0.98],
            }
        )
        ctx = context(
            papers, keynotes, transport, cfg=small_cfg(max_citation_retries=2), embedder=embedder
        )
        mapping = assign_citations(ctx, outline)
        assert len(transport.calls) == 3  # strict, strict, lenient
        fallback_events = ctx.runlog.of_kind("assignment_fallback")
        assert [e["paper"] for e in fallback_events] == ["p1"]
        assert any(
            papers["p1"].id in ids for path, ids in mapping.items()
        ), "p1 placed somewhere via fallback"
        assert papers["p1"].id in mapping[("Methods", "Agent Methods")]

    def test_unknown_paper_id_dropped_with_monitor_event(self, papers, keynotes):
        outline = build_outline()
        reply = assignment_reply(
            {
                "q9": {"Methods": ["Graph Methods"]},
                **{k: {"Methods": ["Graph Methods"]} for k in papers},
            }
        )
        transport = ScriptedTransport().add("Assign every paper", reply)
        ctx = context(papers, keynotes, transport)
        mapping = assign_citations(ctx, outline)
        assert [e["offending"] for e in ctx.runlog.attribution_events()] == ["q9"]
        for ids in mapping.values():
            assert all(p.canonical != "q9" for p in ids)

    def test_every_evidence_paper_assigned_somewhere(self, papers, keynotes):
        outline = build_outline()
        reply = assignment_reply({k: {"Methods": ["Graph Methods"]} for k in ("p1", "p2")})
        transport = ScriptedTransport().add("Assign every paper", reply)
        embedder = FixtureEmbedder()
        ctx = context(papers, keynotes, transport, embedder=embedder)
        mapping = assign_citations(ctx, outline)
        placed = {p.canonical for ids in mapping.values() for p in ids}
        assert placed == set(papers)
        assert embedder.calls == 2  # the leaf descriptions, then every leftover paper


class TestDraftSubsection:
    def _ready(self, papers, keynotes, transport, cfg=None):
        outline = build_outline()
        section = outline.children[0]
        sub = section.children[0]
        sub.assigned = {papers["p1"].id, papers["p2"].id, papers["p3"].id}
        ctx = context(papers, keynotes, transport, cfg=cfg)
        return ctx, outline, section, sub

    def test_clean_draft_accepted(self, papers, keynotes):
        text = (
            "Graph approaches <Alpha Methods> and systems work <Beta Systems> "
            "both matter for this area of research."
        )
        transport = ScriptedTransport().add("Write the body of subsection", text)
        ctx, outline, section, sub = self._ready(papers, keynotes, transport)
        unit = draft_subsection(ctx, section, sub, outline)
        assert unit.granularity is Granularity.SUBSECTION
        assert unit.node_path == ("Methods", "Graph Methods")
        assert unit.cited_ids() == {"p1", "p2"}
        assert len(transport.calls) == 1

    def test_out_of_set_citation_one_retry_with_key_in_memory(self, papers, keynotes):
        bad = (
            "Cites the unassigned benchmark paper <Delta Benchmarks> plus "
            "<Alpha Methods> and <Beta Systems> here."
        )
        good = (
            "Cites only assigned work <Alpha Methods> and <Beta Systems> "
            "with enough words to pass the floor."
        )
        transport = ScriptedTransport().add("Write the body of subsection", bad, good)
        ctx, outline, section, sub = self._ready(papers, keynotes, transport)
        unit = draft_subsection(ctx, section, sub, outline)
        assert len(transport.calls) == 2, "exactly one retry"
        retry_prompt = transport.calls[1].prompt
        assert "Delta Benchmarks" in retry_prompt, "offending key echoed via error memory"
        assert unit.cited_ids() == {"p1", "p2"}

    def test_heading_character_triggers_retry(self, papers, keynotes):
        bad = "# heading sneaks in <Alpha Methods> <Beta Systems> with many words here."
        good = "Clean body <Alpha Methods> <Beta Systems> with plenty of words to pass."
        transport = ScriptedTransport().add("Write the body of subsection", bad, good)
        ctx, outline, section, sub = self._ready(papers, keynotes, transport)
        draft_subsection(ctx, section, sub, outline)
        assert len(transport.calls) == 2

    def test_citation_floor_enforced(self, papers, keynotes):
        thin = "Only one citation <Alpha Methods> but otherwise plenty of words here."
        good = "Two citations <Alpha Methods> <Beta Systems> and plenty of words here."
        transport = ScriptedTransport().add("Write the body of subsection", thin, good)
        ctx, outline, section, sub = self._ready(papers, keynotes, transport)
        draft_subsection(ctx, section, sub, outline)
        assert len(transport.calls) == 2

    def test_retry_budget_exhausted_names_the_node(self, papers, keynotes):
        transport = ScriptedTransport(default="no citations at all, just words here.")
        cfg = small_cfg(max_citation_retries=2)
        ctx, outline, section, sub = self._ready(papers, keynotes, transport, cfg=cfg)
        with pytest.raises(DraftingError) as err:
            draft_subsection(ctx, section, sub, outline)
        assert "Graph Methods" in str(err.value)
        assert len(transport.calls) == 3  # initial + 2 retries

    def test_unassigned_subsection_is_precondition_error(self, papers, keynotes):
        ctx = context(papers, keynotes)
        outline = build_outline()
        with pytest.raises(InvalidInputError):
            draft_subsection(ctx, outline.children[0], outline.children[0].children[0], outline)


class TestDraftSection:
    def _ready(self, papers, keynotes, transport):
        outline = build_outline()
        section = outline.children[0]
        section.assigned = {papers["p4"].id}
        for sub in section.children:
            sub.assigned = {papers["p1"].id, papers["p2"].id}
        ctx = context(papers, keynotes, transport)
        children = [
            DraftUnit(
                node_path=(section.title, sub.title),
                text=f"body <Alpha Methods> <Beta Systems> for {sub.title}",
                citations=[],
                granularity=Granularity.SUBSECTION,
            )
            for sub in section.children
        ]
        return ctx, outline, section, children

    def test_preamble_accepted(self, papers, keynotes):
        text = "This section surveys methods <Delta Benchmarks> across two views."
        transport = ScriptedTransport().add("opening preamble of section", text)
        ctx, outline, section, children = self._ready(papers, keynotes, transport)
        unit = draft_section(ctx, section, children, outline)
        assert unit.granularity is Granularity.SECTION
        assert unit.node_path == ("Methods",)

    def test_missing_child_is_precondition_error(self, papers, keynotes):
        ctx, outline, section, children = self._ready(papers, keynotes, ScriptedTransport())
        with pytest.raises(InvalidInputError):
            draft_section(ctx, section, children[:1], outline)

    def test_under_citation_floor_retries(self, papers, keynotes):
        thin = "No citations in this preamble at all, sadly for us."
        good = "Grounded preamble <Delta Benchmarks> for the section overview."
        transport = ScriptedTransport().add("opening preamble of section", thin, good)
        ctx, outline, section, children = self._ready(papers, keynotes, transport)
        draft_section(ctx, section, children, outline)
        assert len(transport.calls) == 2


def drafted_survey(papers):
    outline = OutlineNode(
        title="Survey",
        description="Survey",
        children=[
            OutlineNode(
                title="Methods",
                description="d",
                assigned={papers["p4"].id},
                children=[
                    OutlineNode(
                        title="Graph Methods", description="d",
                        assigned={papers["p1"].id, papers["p3"].id},
                    ),
                    OutlineNode(
                        title="Agent Methods", description="d",
                        assigned={papers["p2"].id},
                    ),
                ],
            )
        ],
    )
    drafts = [
        DraftUnit(
            node_path=("Methods",),
            text="Overview citing <Delta Benchmarks>.",
            citations=[],
            granularity=Granularity.SECTION,
        ),
        DraftUnit(
            node_path=("Methods", "Graph Methods"),
            text="Graphs <Gamma Analysis> then <Alpha Methods> then <Gamma Analysis>.",
            citations=[],
            granularity=Granularity.SUBSECTION,
        ),
        DraftUnit(
            node_path=("Methods", "Agent Methods"),
            text="Agents <Beta Systems>.",
            citations=[],
            granularity=Granularity.SUBSECTION,
        ),
    ]
    return outline, drafts


class TestAssembly:
    def test_document_structure_and_bibliography(self, papers):
        outline, drafts = drafted_survey(papers)
        result = assemble_survey(
            outline, drafts, papers, CitationStyle.TITLE,
            topic="alpha", generated_at="2026-01-01T00:00:00Z", config_hash="abc",
        )
        doc = result.document
        assert "# Survey" in doc
        assert "## Methods" in doc
        assert "### Graph Methods" in doc and "### Agent Methods" in doc
        assert "## References" in doc
        # first-appearance numbering: Delta(p4)=1, Gamma(p3)=2, Alpha(p1)=3, Beta(p2)=4
        assert [p.id.canonical for p in result.bibliography] == ["p4", "p3", "p1", "p2"]
        assert "Overview citing [1]." in doc
        assert "Graphs [2] then [3] then [2]." in doc
        numbers = {e["number"]: e["paper_id"] for e in result.citation_map["entries"]}
        assert numbers == {1: "p4", 2: "p3", 3: "p1", 4: "p2"}

    def test_byte_identical_across_calls(self, papers):
        outline, drafts = drafted_survey(papers)
        kwargs = dict(
            topic="alpha", generated_at="2026-01-01T00:00:00Z", config_hash="abc"
        )
        a = assemble_survey(outline, drafts, papers, CitationStyle.TITLE, **kwargs)
        b = assemble_survey(outline, drafts, papers, CitationStyle.TITLE, **kwargs)
        assert a.document.encode() == b.document.encode()

    def test_missing_draft_names_the_node(self, papers):
        outline, drafts = drafted_survey(papers)
        from litsurvey.errors import AssemblyError

        with pytest.raises(AssemblyError) as err:
            compose_body(outline, drafts[:-1])
        assert "Agent Methods" in str(err.value)

    def test_every_intext_reference_resolves_to_bibliography(self, papers):
        import re

        outline, drafts = drafted_survey(papers)
        result = assemble_survey(
            outline, drafts, papers, CitationStyle.TITLE,
            topic="alpha", generated_at="t", config_hash="h",
        )
        body = result.document.split("## References")[0]
        cited = {int(m) for m in re.findall(r"\[(\d+)\]", body)}
        listed = {e["number"] for e in result.citation_map["entries"]}
        assert cited == listed


class TestEvidenceLocality:
    def test_clean_drafts_pass(self, papers, keynotes):
        outline, drafts = drafted_survey(papers)
        verdict = check_evidence_locality(outline, _with_marks(drafts, papers))
        assert verdict == []

    def test_out_of_set_citation_detected(self, papers):
        outline, drafts = drafted_survey(papers)
        drafts = _with_marks(drafts, papers)
        # Agent Methods only has p2 assigned; claim a p1 citation.
        from litsurvey.model import CitationMark

        bad = drafts[2]
        bad.citations.append(CitationMark(CitationStyle.TITLE, "Alpha Methods", papers["p1"].id))
        violations = check_evidence_locality(outline, drafts)
        assert violations and "Agent Methods" in violations[0]


def _with_marks(drafts, papers):
    from litsurvey.marks import verify_citations

    out = []
    for d in drafts:
        verdict = verify_citations(d.text, papers.values(), CitationStyle.TITLE)
        out.append(
            DraftUnit(
                node_path=d.node_path,
                text=d.text,
                citations=verdict.marks,
                granularity=d.granularity,
            )
        )
    return out


def test_apply_assignment_writes_into_outline(papers):
    outline, _ = drafted_survey(papers)
    mapping = {("Methods", "Graph Methods"): {papers["p5"].id}}
    apply_assignment(outline, mapping)
    assert outline.children[0].children[0].assigned == {papers["p5"].id}


def test_default_writing_config_matches_documented_values():
    cfg = WritingConfig()
    assert cfg.outline_temperature == 0.5
    assert cfg.subsection_temperature == 0.7
    assert cfg.section_temperature == 0.3
    assert cfg.subsection_least_citations == 3
    assert cfg.subsection_least_words == 250
    assert cfg.section_least_citations == 3
    assert cfg.section_least_words == 150
    assert cfg.citation_style is CitationStyle.TITLE
    assert cfg.max_citation_retries == 3
