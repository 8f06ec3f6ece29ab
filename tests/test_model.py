from __future__ import annotations

import pytest

from litsurvey.errors import IntegrityError, InvalidInputError
from litsurvey.model import (
    ErrorMemory,
    IdSource,
    Keynote,
    OutlineNode,
    PaperId,
    PaperRecord,
    Provenance,
    unify_paper_id,
)

from conftest import build_substrate, make_paper


class TestUnifyPaperId:
    def test_preprint_id_wins_when_present(self):
        pid = unify_paper_id("2406.10252", "74fdf80aa1c4")
        assert pid.canonical == "2406.10252"
        assert pid.source is IdSource.PREPRINT

    def test_graph_id_used_as_fallback(self):
        pid = unify_paper_id(None, "74fdf80aa1c4")
        assert pid.canonical == "74fdf80aa1c4"
        assert pid.source is IdSource.GRAPH

    def test_both_absent_is_invalid(self):
        with pytest.raises(InvalidInputError):
            unify_paper_id(None, None)

    def test_deterministic(self):
        assert unify_paper_id("a", "b") == unify_paper_id("a", "b")

    def test_empty_canonical_rejected(self):
        with pytest.raises(InvalidInputError):
            PaperId("")

    @pytest.mark.parametrize("source", ["preprint-archive", "academic-graph"])
    def test_from_dict_maps_each_source_to_its_member(self, source):
        pid = PaperId.from_dict({"canonical": "x", "source": source})
        assert pid.source is IdSource(source)
        assert PaperId.from_dict(pid.to_dict()) == pid

    @pytest.mark.parametrize("source", ["arxiv", "PREPRINT", None, ["academic-graph"]])
    def test_from_dict_refuses_an_unknown_source(self, source):
        with pytest.raises(ValueError, match="is not a valid IdSource"):
            PaperId.from_dict({"canonical": "x", "source": source})


def test_paper_record_normalizes_citation_links():
    record = PaperRecord(
        id=PaperId("p1"),
        title="T",
        in_citations=[PaperId("p2"), PaperId("p2"), PaperId("p1")],
        out_citations=[PaperId("p3"), PaperId("p1")],
    )
    assert [p.canonical for p in record.in_citations] == ["p2"]
    assert [p.canonical for p in record.out_citations] == ["p3"]


def test_keynote_requires_tldr():
    with pytest.raises(InvalidInputError):
        Keynote(paper_id=PaperId("p1"), sections={"contributions": "x"})


def test_keynote_fills_mandatory_keys():
    keynote = Keynote(paper_id=PaperId("p1"), sections={"tldr": "short"})
    assert keynote.sections["experiments"] == ""
    assert keynote.provenance is Provenance.FULL_TEXT


class TestErrorMemory:
    def test_duplicate_messages_collapse(self):
        mem = ErrorMemory().record("same failure").record("same failure")
        assert len(mem) == 1

    def test_capacity_evicts_oldest_first(self):
        mem = ErrorMemory()
        for i in range(11):
            mem = mem.record(f"failure {i}")
        assert len(mem) == 10
        assert "failure 0" not in mem.entries
        assert mem.entries[-1] == "failure 10"

    def test_empty_memory_renders_empty_preamble(self):
        assert ErrorMemory().render() == ""

    def test_record_returns_new_value(self):
        mem = ErrorMemory()
        mem2 = mem.record("x")
        assert len(mem) == 0 and len(mem2) == 1


class TestOutline:
    def test_depth_cap(self):
        deep = OutlineNode(
            title="root",
            description="d",
            children=[
                OutlineNode(
                    title="s",
                    description="d",
                    children=[
                        OutlineNode(
                            title="ss",
                            description="d",
                            children=[OutlineNode(title="sss", description="d")],
                        )
                    ],
                )
            ],
        )
        with pytest.raises(InvalidInputError):
            deep.validate()

    def test_duplicate_sibling_titles_rejected(self):
        node = OutlineNode(
            title="root",
            description="d",
            children=[
                OutlineNode(title="same", description="d"),
                OutlineNode(title="same", description="d"),
            ],
        )
        with pytest.raises(InvalidInputError):
            node.validate()

    def test_empty_description_rejected(self):
        node = OutlineNode(
            title="root", description="d", children=[OutlineNode(title="a", description="")]
        )
        with pytest.raises(InvalidInputError):
            node.validate()

    def test_walk_and_find(self):
        sub = OutlineNode(title="sub", description="d")
        sec = OutlineNode(title="sec", description="d", children=[sub])
        root = OutlineNode(title="root", description="d", children=[sec])
        paths = [path for path, _ in root.walk()]
        assert paths == [("sec",), ("sec", "sub")]
        assert root.find(("sec", "sub")) is sub
        assert root.find(("nope",)) is None


def test_substrate_integrity_catches_dangling_references(papers, keynotes):
    substrate = build_substrate(papers, keynotes)
    substrate.validate()
    ghost = make_paper("ghost")
    substrate.keynotes["ghost"] = keynotes["p1"]
    with pytest.raises(IntegrityError):
        substrate.validate()
    del substrate.keynotes["ghost"]
    substrate.outline = OutlineNode(
        title="root",
        description="d",
        children=[
            OutlineNode(title="sec", description="d", assigned={ghost.id})
        ],
    )
    with pytest.raises(IntegrityError):
        substrate.validate()
