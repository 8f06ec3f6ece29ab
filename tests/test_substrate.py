from __future__ import annotations

import hashlib
import json
import re

import pytest

from litsurvey.errors import IntegrityError, LoadError
from litsurvey.model import (
    STAGES,
    CitationMark,
    CitationStyle,
    Cluster,
    ClusterAnalysis,
    ComparisonTable,
    DraftUnit,
    Granularity,
    Keynote,
    KnowledgeSubstrate,
    OutlineNode,
    PaperId,
    QaItem,
    RelationEdge,
    TableRow,
)
from litsurvey.substrate import (
    COMMIT_FILE,
    read_record,
    record_survey,
    substrate_load,
    substrate_reset,
    substrate_save,
    survey_verified,
)

from conftest import build_substrate, make_paper


def full_substrate(papers, keynotes) -> KnowledgeSubstrate:
    substrate = build_substrate(papers, keynotes)
    p = lambda k: papers[k].id  # noqa: E731
    substrate.clusters = [
        Cluster(1, "Methods", "method papers", {p("p1"), p("p3")}),
        Cluster(2, "Benchmarks", "benchmark papers", {p("p2"), p("p4"), p("p1")}),
    ]
    substrate.analyses = [
        ClusterAnalysis(
            cluster_id=1,
            relation_graph=[RelationEdge(p("p1"), p("p3"), "foundation", "p3 builds on p1")],
            comparison_table=ComparisonTable(
                columns=["focus", "method", "scope"],
                rows=[
                    TableRow(p("p1"), {"focus": "a", "method": "b", "scope": "c"}),
                    TableRow(p("p3"), {"focus": "d", "method": "e", "scope": "f"}),
                ],
            ),
            qa_items=[QaItem("How do they differ?", [p("p1"), p("p3")], "They differ.")],
        )
    ]
    substrate.inter_cluster = "Methods feed the benchmarks."
    substrate.outline = OutlineNode(
        title="Survey",
        description="Survey",
        children=[
            OutlineNode(
                title="Introduction",
                description="intro",
                assigned={p("p1")},
                children=[
                    OutlineNode(title="Scope", description="scope", assigned={p("p2")})
                ],
            )
        ],
    )
    substrate.drafts = [
        DraftUnit(
            node_path=("Introduction", "Scope"),
            text="Scoped text <Beta Systems>.",
            citations=[CitationMark(CitationStyle.TITLE, "Beta Systems", p("p2"))],
            granularity=Granularity.SUBSECTION,
        )
    ]
    return substrate


class TestRoundTrip:
    def test_save_then_load_is_identity(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        substrate_save(substrate, tmp_path / "sub")
        loaded = substrate_load(tmp_path / "sub")
        assert loaded == substrate

    def test_minimal_substrate_round_trips(self, papers, tmp_path):
        substrate = build_substrate(papers)
        substrate_save(substrate, tmp_path / "sub")
        assert substrate_load(tmp_path / "sub") == substrate

    def test_layout_files_present(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        root = tmp_path / "sub"
        substrate_save(substrate, root)
        assert sorted(p.name for p in root.iterdir()) == sorted([
            COMMIT_FILE,
            "papers.json",
            "keynotes.json",
            "clusters.json",
            "analyses.json",
            "code_reports.json",
            "code_overview.json",
            "outline.json",
            "drafts.json",
            "refined_drafts.json",
        ])
        listed = json.loads((root / "keynotes.json").read_text())["keynotes"]
        assert [k["paper_id"]["canonical"] for k in listed] == sorted(keynotes)

    def test_resave_drops_the_files_of_removed_papers(self, tmp_path):
        from conftest import make_keynote

        papers = {k: make_paper(k) for k in ("a1", "a2")}
        substrate = build_substrate(papers, {k: make_keynote(r) for k, r in papers.items()})
        substrate.code_reports = {k: f"code of {k}" for k in papers}
        substrate_save(substrate, tmp_path / "s")
        del substrate.papers["a2"], substrate.keynotes["a2"], substrate.code_reports["a2"]
        substrate_save(substrate, tmp_path / "s")
        loaded = substrate_load(tmp_path / "s")
        assert loaded == substrate
        assert set(loaded.papers) == set(loaded.keynotes) == set(loaded.code_reports) == {"a1"}

    def test_resave_replaces_only_changed_files(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        substrate_save(substrate, tmp_path / "s")
        inodes = {p: p.stat().st_ino for p in (tmp_path / "s").rglob("*.json")}
        substrate.stage_seconds["refinement"] = 1.0  # only the record changes
        substrate_save(substrate, tmp_path / "s")
        replaced = {p.name for p, ino in inodes.items() if p.stat().st_ino != ino}
        assert replaced == {COMMIT_FILE}
        assert substrate_load(tmp_path / "s") == substrate

    def test_save_is_deterministic_bytes(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        substrate_save(substrate, tmp_path / "a")
        substrate_save(substrate, tmp_path / "b")
        for name in ("papers.json", "analyses.json", "outline.json", "drafts.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


GHOST = PaperId("ghost")

#: each kind of reference a saved substrate holds: (add a dangling one, the
#: artifact the integrity error names)
DANGLING = {
    "cluster member": (lambda s: s.clusters[0].members.add(GHOST), "cluster 1"),
    "relation edge endpoint": (
        lambda s: s.analyses[0].relation_graph.append(
            RelationEdge(s.papers["p1"].id, GHOST, "extension")
        ),
        "analysis 1",
    ),
    "table row": (
        lambda s: s.analyses[0].comparison_table.rows.append(TableRow(GHOST, {})),
        "analysis 1",
    ),
    "qa related": (lambda s: s.analyses[0].qa_items[0].related.append(GHOST), "analysis 1"),
    "outline assignment": (
        lambda s: s.outline.children[0].assigned.add(GHOST), "outline assignment"
    ),
    "draft mark": (
        lambda s: s.drafts[0].citations.append(CitationMark(CitationStyle.ID, "ghost", GHOST)),
        "draft Introduction > Scope",
    ),
    "code report key": (lambda s: s.code_reports.update(ghost="code"), "code reports"),
}


class TestIntegrity:
    def test_dangling_outline_reference_blocks_save(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        ghost = make_paper("ghost")
        substrate.outline.children[0].assigned.add(ghost.id)
        target = tmp_path / "sub"
        with pytest.raises(IntegrityError):
            substrate_save(substrate, target)
        assert not (target / "papers.json").exists()

    def test_same_fixture_fails_at_load_too(self, papers, keynotes, tmp_path, monkeypatch):
        substrate = full_substrate(papers, keynotes)
        substrate.outline.children[0].assigned.add(make_paper("ghost").id)
        root = tmp_path / "sub"
        monkeypatch.setattr(KnowledgeSubstrate, "validate", lambda self: None)
        substrate_save(substrate, root)  # committed with a dangling reference
        monkeypatch.undo()
        with pytest.raises(IntegrityError):
            substrate_load(root)

    @pytest.mark.parametrize("kind", sorted(DANGLING))
    def test_dangling_reference_fails_load_naming_the_artifact(
        self, papers, keynotes, tmp_path, monkeypatch, kind
    ):
        dangle, artifact = DANGLING[kind]
        substrate = full_substrate(papers, keynotes)
        dangle(substrate)
        root = tmp_path / "sub"
        monkeypatch.setattr(KnowledgeSubstrate, "validate", lambda self: None)
        substrate_save(substrate, root)  # committed with a dangling reference
        monkeypatch.undo()
        message = f"{artifact} references unknown paper 'ghost'"
        with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
            substrate_load(root)

    def test_keynote_for_unknown_paper_fails_load(self, papers, keynotes, tmp_path, monkeypatch):
        substrate = build_substrate(papers, keynotes)
        substrate.keynotes["unknown-key"] = Keynote.from_dict({
            "paper_id": {"canonical": "unknown-key", "source": "academic-graph"},
            "sections": {"tldr": "stray"},
            "provenance": "abstract_fallback",
        })
        root = tmp_path / "sub"
        monkeypatch.setattr(KnowledgeSubstrate, "validate", lambda self: None)
        substrate_save(substrate, root)
        monkeypatch.undo()
        with pytest.raises(IntegrityError):
            substrate_load(root)


class TestLoadErrors:
    def test_empty_directory(self, tmp_path):
        with pytest.raises(LoadError) as err:
            substrate_load(tmp_path)
        assert COMMIT_FILE in str(err.value)

    def test_corrupt_file_names_the_file(self, papers, tmp_path):
        substrate = build_substrate(papers)
        root = tmp_path / "sub"
        substrate_save(substrate, root)
        (root / "clusters.json").write_text("{not json")
        with pytest.raises(LoadError) as err:
            substrate_load(root)
        assert "clusters.json" in str(err.value)

    def test_altered_byte_names_the_file(self, papers, keynotes, tmp_path):
        root = tmp_path / "sub"
        substrate_save(build_substrate(papers, keynotes), root)
        path = root / "keynotes.json"
        data = bytearray(path.read_bytes())
        at = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isalpha())
        data[at] ^= 0x20  # swap one letter's case: still valid JSON
        path.write_bytes(bytes(data))
        with pytest.raises(LoadError) as err:
            substrate_load(root)
        assert path.name in str(err.value)

    @pytest.mark.parametrize(
        "record",
        [
            "{not json",
            '{"stages": [{"stage": "drafting"}]}',
            '{"stages": 3}',
            # as written before the stage entries lost their events
            '{"config_hash": "", "topic": "", "created_at": "", "stages": '
            '[{"stage": "retrieval", "seconds": 0.0, "files": {}, "events": []}]}',
        ],
    )
    def test_malformed_record_names_it(self, papers, tmp_path, record):
        root = tmp_path / "sub"
        substrate_save(build_substrate(papers), root)
        (root / COMMIT_FILE).write_text(record)
        with pytest.raises(LoadError, match=COMMIT_FILE):
            substrate_load(root)

    def test_missing_listed_file_names_the_file(self, papers, keynotes, tmp_path):
        root = tmp_path / "sub"
        substrate_save(full_substrate(papers, keynotes), root)
        (root / "outline.json").unlink()
        with pytest.raises(LoadError) as err:
            substrate_load(root)
        assert "outline.json" in str(err.value)


HEADER = {"config_hash": "0123456789abcdef", "topic": "t", "created_at": "2026-01-01T00:00:00Z"}


def stage_by_stage(substrate, root, stages) -> None:
    substrate_reset(root, **HEADER)
    for seconds, stage in enumerate(stages):
        substrate.stage_seconds[stage] = float(seconds)
        substrate_save(substrate, root, stage)


class TestCommitRecord:
    def test_stray_file_is_ignored(self, papers, keynotes, tmp_path):
        substrate = build_substrate(papers, keynotes)
        root = tmp_path / "sub"
        substrate_save(substrate, root)
        stray = {
            "paper_id": {"canonical": "unknown-key", "source": "academic-graph"},
            "sections": {"tldr": "stray"},
            "provenance": "abstract_fallback",
        }
        (root / "keynotes").mkdir()  # as an earlier layout left it
        (root / "keynotes" / "deadbeef00000000.json").write_text(json.dumps(stray))
        (root / "notes.json").write_text("{not json")
        assert substrate_load(root) == substrate

    def test_only_committed_stages_load(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        root = tmp_path / "sub"
        stage_by_stage(substrate, root, ["retrieval", "understanding"])
        (root / "clusters.json").write_text("{not json")  # never committed
        loaded = substrate_load(root)
        assert loaded.keynotes == substrate.keynotes
        assert loaded.clusters == [] and loaded.outline is None
        assert loaded.stage_seconds == {"retrieval": 0.0, "understanding": 1.0}

    def test_commit_drops_the_stage_and_every_later_one(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        root = tmp_path / "sub"
        stage_by_stage(substrate, root, ["retrieval", "understanding", "analysis"])
        substrate.stage_seconds["understanding"] = 7.0
        substrate_save(substrate, root, "understanding")
        assert substrate_load(root).stage_seconds == {"retrieval": 0.0, "understanding": 7.0}

    def test_writing_drafts_load_until_refinement_commits(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        root = tmp_path / "sub"
        stage_by_stage(substrate, root, ["retrieval", "understanding", "analysis", "writing"])
        written = list(substrate.drafts)
        substrate.drafts = [*written, DraftUnit(("Survey",), "Refined.", [], Granularity.SURVEY)]
        (root / "refined_drafts.json").write_text("{not json")  # torn, never committed
        assert substrate_load(root).drafts == written
        substrate_save(substrate, root, "refinement")
        (root / "drafts.json").unlink()  # writing's drafts are no longer read
        loaded = substrate_load(root)
        assert loaded == substrate
        assert list(loaded.stage_seconds) == ["retrieval", "understanding", "analysis", "writing", "refinement"]

    def test_header_is_carried_forward_by_every_stage_save(self, papers, keynotes, tmp_path):
        root = tmp_path / "sub"
        stage_by_stage(full_substrate(papers, keynotes), root, ["retrieval", "understanding"])
        record = read_record(root)
        assert list(record) == [*HEADER, "stages"]
        assert {k: record[k] for k in HEADER} == HEADER
        assert [e["stage"] for e in record["stages"]] == ["retrieval", "understanding"]

    def test_save_without_a_stage_writes_an_empty_header(self, papers, tmp_path):
        root = tmp_path / "sub"
        substrate_reset(root, **HEADER)
        substrate_save(build_substrate(papers), root)
        assert {k: read_record(root)[k] for k in HEADER} == dict.fromkeys(HEADER, "")


class TestSurveyEntry:
    DIGESTS = {"document": "a" * 64, "sidecar": "b" * 64}

    @pytest.fixture
    def finished(self, papers, keynotes, tmp_path):
        """A record of every stage whose survey entry vouches for two files."""
        root = tmp_path / "sub"
        stage_by_stage(full_substrate(papers, keynotes), root, STAGES)
        outputs = {"document": tmp_path / "survey.md", "sidecar": tmp_path / "survey.citations.json"}
        outputs["document"].write_text("# Survey\n")
        outputs["sidecar"].write_text("{}\n")
        record_survey(root, **{
            name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()
        })
        return root, outputs

    def test_entry_is_recorded_after_the_stages(self, papers, keynotes, tmp_path):
        root = tmp_path / "sub"
        stage_by_stage(full_substrate(papers, keynotes), root, ["retrieval"])
        before = read_record(root)
        record_survey(root, **self.DIGESTS)
        assert read_record(root) == {**before, "survey": self.DIGESTS}

    def test_a_stage_save_drops_the_entry(self, papers, keynotes, tmp_path):
        substrate = full_substrate(papers, keynotes)
        root = tmp_path / "sub"
        stage_by_stage(substrate, root, ["retrieval", "understanding"])
        record_survey(root, **self.DIGESTS)
        substrate_save(substrate, root, "understanding")
        assert "survey" not in read_record(root)
        record_survey(root, **self.DIGESTS)
        substrate_reset(root, **HEADER)
        assert "survey" not in read_record(root)

    @pytest.mark.parametrize("entry", [
        [],
        {"document": "a" * 64},
        {"document": "a" * 64, "sidecar": "b" * 64, "extra": "c" * 64},
        {"document": "a" * 63, "sidecar": "b" * 64},
        {"document": "A" * 64, "sidecar": "b" * 64},
        {"document": 7, "sidecar": "b" * 64},
    ])
    def test_malformed_entry_is_refused(self, tmp_path, entry):
        root = tmp_path / "sub"
        substrate_reset(root, **HEADER)
        record = json.loads((root / COMMIT_FILE).read_text())
        (root / COMMIT_FILE).write_text(json.dumps({**record, "survey": entry}))
        with pytest.raises(LoadError, match="malformed survey entry"):
            read_record(root)

    def test_verified_while_every_file_matches(self, finished):
        root, outputs = finished
        assert survey_verified(root, read_record(root), **outputs)

    @pytest.mark.parametrize("name", ["document", "sidecar"])
    def test_an_edited_or_missing_output_is_not_verified(self, finished, name):
        root, outputs = finished
        record = read_record(root)
        outputs[name].write_text("edited\n")
        assert not survey_verified(root, record, **outputs)
        outputs[name].unlink()
        assert not survey_verified(root, record, **outputs)

    def test_a_record_without_the_entry_is_not_verified(self, finished):
        root, outputs = finished
        record = read_record(root)
        del record["survey"]
        assert not survey_verified(root, record, **outputs)

    def test_an_altered_listed_file_raises_as_a_load_would(self, finished):
        root, outputs = finished
        (root / "keynotes.json").write_text("{}\n")
        with pytest.raises(LoadError, match="keynotes.json: contents differ") as verified:
            survey_verified(root, read_record(root), **outputs)
        with pytest.raises(LoadError) as loaded:
            substrate_load(root)
        assert str(verified.value) == str(loaded.value)

    def test_writing_drafts_are_not_checked_once_refined(self, finished):
        # substrate_load no longer reads them either.
        root, outputs = finished
        (root / "drafts.json").unlink()
        assert survey_verified(root, read_record(root), **outputs)

