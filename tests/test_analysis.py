from __future__ import annotations

import json

import pytest

from litsurvey.analysis import (
    AnalysisConfig,
    AssignmentVerdict,
    ClusterProposal,
    analyze_cluster,
    assign_papers,
    build_comparison_table,
    build_relation_graph,
    compute_verdict,
    design_clusters,
    guided_qa,
    inter_cluster_analysis,
    verify_and_repair,
)
from litsurvey.errors import InvalidInputError
from litsurvey.fanout import Feed
from litsurvey.model import Cluster
from litsurvey.runlog import RunLog
from litsurvey.scripted import ScriptedTransport

from conftest import scripted_gateway
from doubles import FixtureEmbedder


def proposal_json(*names):
    return json.dumps(
        [{"cluster_name": n, "summary": f"papers about {n}"} for n in names]
    )


def assignment_json(mapping: dict[str, list[str]]):
    return json.dumps(
        [{"paper_id": k, "clusters": v} for k, v in mapping.items()]
    )


def designed(keynotes: dict, gateway, cfg=None, workers: int = 1):
    """The cluster design over ``keynotes`` as understanding hands them on:
    each under its place in paper-id order, closed."""
    feed = Feed()
    for place, key in enumerate(sorted(keynotes)):
        feed.put(place, keynotes[key])
    feed.close()
    return design_clusters(feed, len(keynotes), gateway, Feed(), cfg, workers)


class TestDesignClusters:
    def test_empty_prior_one_batch_creates_proposal(self, keynotes):
        transport = ScriptedTransport().add("thematic clusters", proposal_json("Methods", "Systems"))
        proposal = designed(keynotes, scripted_gateway(transport))
        assert proposal.names() == ["Methods", "Systems"]
        assert len(transport.calls) == 1

    def test_twelve_cluster_case(self, keynotes):
        names = [f"Theme {i}" for i in range(1, 13)]
        transport = ScriptedTransport().add("thematic clusters", proposal_json(*names))
        proposal = designed(keynotes, scripted_gateway(transport))
        assert len(proposal.clusters) == 12

    def test_duplicate_names_trigger_retry(self, keynotes):
        transport = ScriptedTransport().add(
            "thematic clusters",
            proposal_json("Same", "Same"),
            proposal_json("Same", "Other"),
        )
        proposal = designed(keynotes, scripted_gateway(transport))
        assert proposal.names() == ["Same", "Other"]
        assert len(transport.calls) == 2

    def test_batching_folds_proposal(self, keynotes):
        # batch size 2 over 6 keynotes -> 3 design calls
        transport = ScriptedTransport().add("thematic clusters", proposal_json("A", "B"))
        cfg = AnalysisConfig(design_batch_size=2)
        designed(keynotes, scripted_gateway(transport), cfg)
        assert len(transport.calls) == 3

    def test_a_rejected_step_leaves_no_memory_to_the_next(self, keynotes):
        transport = ScriptedTransport().add(
            "thematic clusters", "not json", proposal_json("A", "B")
        )
        cfg = AnalysisConfig(design_batch_size=2)
        proposal = designed(keynotes, scripted_gateway(transport), cfg)
        assert proposal.names() == ["A", "B"]
        # step 1, its retry, then steps 2 and 3 from their clean prompts
        prompts = [c.prompt for c in transport.calls]
        assert ["Avoid repeating" in p for p in prompts] == [False, True, False, False]
        assert prompts[2].startswith("Curate thematic clusters")


class TestAssignPapers:
    def test_multi_assignment_permitted(self, keynotes):
        proposal = ClusterProposal(
            [{"name": "One", "summary": "s"}, {"name": "Three", "summary": "s"}]
        )
        mapping = {k: ["One"] for k in keynotes}
        mapping["p1"] = ["One", "Three"]
        transport = ScriptedTransport().add("Assign every paper", assignment_json(mapping))
        clusters = assign_papers(proposal, keynotes, scripted_gateway(transport))
        one = next(c for c in clusters if c.name == "One")
        three = next(c for c in clusters if c.name == "Three")
        assert "p1" in one.member_keys() and "p1" in three.member_keys()
        assert compute_verdict(clusters, keynotes) == AssignmentVerdict()

    def test_omitted_paper_reported_missing(self, keynotes):
        proposal = ClusterProposal([{"name": "One", "summary": "s"}])
        mapping = {k: ["One"] for k in keynotes if k != "p2"}
        transport = ScriptedTransport().add("Assign every paper", assignment_json(mapping))
        clusters = assign_papers(proposal, keynotes, scripted_gateway(transport))
        assert compute_verdict(clusters, keynotes).missing == {"p2"}

    def test_unknown_id_reported_hallucinated(self, keynotes):
        proposal = ClusterProposal([{"name": "One", "summary": "s"}])
        mapping = {k: ["One"] for k in keynotes}
        mapping["q9"] = ["One"]
        transport = ScriptedTransport().add("Assign every paper", assignment_json(mapping))
        runlog = RunLog()
        clusters = assign_papers(proposal, keynotes, scripted_gateway(transport), runlog=runlog)
        assert [e["offending"] for e in runlog.attribution_events()] == ["q9"]
        assert compute_verdict(clusters, keynotes) == AssignmentVerdict()


class TestVerifyAndRepair:
    def _clusters(self, keynotes, exclude=()):
        members = {keynotes[k].paper_id for k in keynotes if k not in exclude}
        return [Cluster(1, "All", "everything", members)]

    def test_clean_input_unchanged(self, keynotes):
        clusters = self._clusters(keynotes)
        before = {frozenset(c.member_keys()) for c in clusters}
        out = verify_and_repair(clusters, keynotes, scripted_gateway(ScriptedTransport()))
        assert {frozenset(c.member_keys()) for c in out} == before

    def test_repair_places_missing_paper_on_second_round(self, keynotes):
        clusters = self._clusters(keynotes, exclude=("p2",))
        transport = ScriptedTransport().add(
            "Assign every paper",
            json.dumps([]),  # round 1: repair does nothing
            assignment_json({"p2": ["All"]}),  # round 2: placed
        )
        runlog = RunLog()
        out = verify_and_repair(
            clusters, keynotes, scripted_gateway(transport), runlog=runlog
        )
        assert "p2" in out[0].member_keys()
        assert len(runlog.of_kind("repair_round")) == 2
        assert not runlog.of_kind("fallback_attachment")

    def test_hallucinated_member_removed(self, keynotes, papers):
        ghost_id = papers["p1"].id.__class__("ghost")
        clusters = [Cluster(1, "All", "s", {keynotes["p1"].paper_id, ghost_id})]
        runlog = RunLog()
        out = verify_and_repair(
            clusters, keynotes, scripted_gateway(ScriptedTransport(default="[]")),
            runlog=runlog,
        )
        assert "ghost" not in out[0].member_keys()
        assert runlog.attribution_events()

    def test_persistent_miss_falls_back_to_nearest_cluster(self, keynotes):
        clusters = [
            Cluster(
                1,
                "Far",
                "far summary",
                {keynotes[k].paper_id for k in ("p1", "p4", "p5")},
            ),
            Cluster(
                2,
                "Near",
                "near summary",
                {keynotes[k].paper_id for k in ("p3", "p6")},
            ),
        ]
        # p2's tldr embeds next to cluster 2's summary.
        embedder = FixtureEmbedder(
            {
                "far summary": [1.0, 0.0],
                "near summary": [0.0, 1.0],
                keynotes["p2"].tldr: [0.1, 0.9],
            }
        )
        transport = ScriptedTransport(default=json.dumps([]))  # repair never helps
        runlog = RunLog()
        out = verify_and_repair(
            clusters, keynotes, scripted_gateway(transport, embedder=embedder),
            AnalysisConfig(verify_max_rounds=2), runlog=runlog,
        )
        near = next(c for c in out if c.name == "Near")
        assert "p2" in near.member_keys()
        assert runlog.of_kind("fallback_attachment")

    def test_leftover_papers_embed_in_one_call(self, keynotes):
        clusters = self._clusters(keynotes, exclude=("p2", "p3", "p6"))
        embedder = FixtureEmbedder()
        runlog = RunLog()
        verify_and_repair(
            clusters, keynotes,
            scripted_gateway(ScriptedTransport(default="[]"), embedder=embedder),
            runlog=runlog,
        )
        assert [e["paper"] for e in runlog.of_kind("fallback_attachment")] == ["p2", "p3", "p6"]
        assert embedder.calls == 2  # the cluster summaries, then every leftover paper

    def test_verdict_arithmetic(self, keynotes):
        clusters = self._clusters(keynotes, exclude=("p5",))
        verdict = compute_verdict(clusters, keynotes)
        assert verdict == AssignmentVerdict(missing={"p5"}, hallucinated=set())


class TestRelationGraph:
    def test_single_member_cluster_has_no_edges(self, keynotes, papers):
        cluster = Cluster(1, "Solo", "s", {papers["p1"].id})
        edges = build_relation_graph(cluster, keynotes, papers, scripted_gateway())
        assert edges == []

    def test_foundation_edge_parsed(self, keynotes, papers):
        cluster = Cluster(1, "Pair", "s", {papers["p1"].id, papers["p3"].id})
        transport = ScriptedTransport().add(
            "technical lineage",
            json.dumps([{"from": "p1", "to": "p3", "relation": "foundation", "description": "d"}]),
        )
        edges = build_relation_graph(cluster, keynotes, papers, scripted_gateway(transport))
        assert len(edges) == 1
        assert edges[0].kind == "foundation"
        assert edges[0].src.canonical == "p1"

    def test_edge_to_non_member_dropped_with_monitor_event(self, keynotes, papers):
        cluster = Cluster(1, "Pair", "s", {papers["p1"].id, papers["p3"].id})
        transport = ScriptedTransport().add(
            "technical lineage",
            json.dumps(
                [
                    {"from": "p1", "to": "p3", "relation": "extension", "description": "d"},
                    {"from": "p1", "to": "p4", "relation": "foundation", "description": "bad"},
                ]
            ),
        )
        runlog = RunLog()
        edges = build_relation_graph(
            cluster, keynotes, papers, scripted_gateway(transport), runlog=runlog
        )
        assert len(edges) == 1
        assert [e["offending"] for e in runlog.attribution_events()] == ["p4"]

    def test_unknown_relation_becomes_other(self, keynotes, papers):
        cluster = Cluster(1, "Pair", "s", {papers["p1"].id, papers["p3"].id})
        transport = ScriptedTransport().add(
            "technical lineage",
            json.dumps([{"from": "p1", "to": "p3", "relation": "inspires", "description": "d"}]),
        )
        edges = build_relation_graph(cluster, keynotes, papers, scripted_gateway(transport))
        assert edges[0].kind == "other" and edges[0].label == "inspires"


class TestComparisonTable:
    def test_two_member_cluster_two_rows(self, keynotes, papers):
        cluster = Cluster(1, "Pair", "s", {papers["p1"].id, papers["p3"].id})
        payload = {
            "columns": ["evaluation focus", "methodology", "scope", "innovation"],
            "rows": [
                {"paper_id": "p1", "cells": {"evaluation focus": "a", "methodology": "b", "scope": "c", "innovation": "d"}},
                {"paper_id": "p3", "cells": {"evaluation focus": "e", "methodology": "f", "scope": "g", "innovation": "h"}},
            ],
        }
        transport = ScriptedTransport().add("Compare the papers", json.dumps(payload))
        table = build_comparison_table(cluster, keynotes, papers, scripted_gateway(transport))
        assert len(table.rows) == 2
        assert len(table.columns) >= 4

    def test_single_member_is_precondition_error(self, keynotes, papers):
        cluster = Cluster(1, "Solo", "s", {papers["p1"].id})
        with pytest.raises(InvalidInputError):
            build_comparison_table(cluster, keynotes, papers, scripted_gateway())

    def test_under_three_columns_retries(self, keynotes, papers):
        cluster = Cluster(1, "Pair", "s", {papers["p1"].id, papers["p3"].id})
        thin = {"columns": ["only one"], "rows": []}
        good = {
            "columns": ["a", "b", "c"],
            "rows": [{"paper_id": "p1", "cells": {"a": "1", "b": "2", "c": "3"}}],
        }
        transport = ScriptedTransport().add(
            "Compare the papers", json.dumps(thin), json.dumps(good)
        )
        table = build_comparison_table(cluster, keynotes, papers, scripted_gateway(transport))
        assert len(transport.calls) == 2
        assert table.columns == ["a", "b", "c"]

    def test_non_member_row_dropped(self, keynotes, papers):
        cluster = Cluster(1, "Pair", "s", {papers["p1"].id, papers["p3"].id})
        payload = {
            "columns": ["a", "b", "c"],
            "rows": [
                {"paper_id": "p1", "cells": {"a": "1", "b": "2", "c": "3"}},
                {"paper_id": "p9", "cells": {"a": "x", "b": "y", "c": "z"}},
            ],
        }
        transport = ScriptedTransport().add("Compare the papers", json.dumps(payload))
        runlog = RunLog()
        table = build_comparison_table(
            cluster, keynotes, papers, scripted_gateway(transport), runlog=runlog
        )
        assert len(table.rows) == 1
        assert [e["offending"] for e in runlog.attribution_events()] == ["p9"]


class TestGuidedQa:
    def _cluster(self, papers, keys=("p1", "p2", "p3", "p4", "p5")):
        return Cluster(1, "Big", "s", {papers[k].id for k in keys})

    def test_item_shape_with_five_related_members(self, keynotes, papers):
        cluster = self._cluster(papers)
        payload = [
            {
                "question": "How do these five approaches compare?",
                "related": ["p1", "p2", "p3", "p4", "p5"],
                "answer": "They compare favourably <Alpha Methods> <Beta Systems>.",
            }
        ]
        transport = ScriptedTransport().add("high-value question", json.dumps(payload))
        items = guided_qa(cluster, keynotes, papers, scripted_gateway(transport))
        assert len(items) == 1
        assert len(items[0].related) == 5

    def test_answer_citing_non_member_retries_then_drops(self, keynotes, papers):
        cluster = self._cluster(papers, keys=("p1", "p2"))
        bad = [
            {
                "question": "q?",
                "related": ["p1", "p2"],
                "answer": "Cites outsider <Delta Benchmarks>.",
            }
        ]
        transport = ScriptedTransport().add(
            "high-value question", json.dumps(bad), json.dumps(bad)
        )
        runlog = RunLog()
        items = guided_qa(cluster, keynotes, papers, scripted_gateway(transport), runlog=runlog)
        assert items == []
        assert len(transport.calls) == 2
        assert runlog.attribution_events()

    def test_exactly_one_item_for_n_questions_one(self, keynotes, papers):
        cluster = self._cluster(papers, keys=("p1", "p2"))
        payload = [{"question": "q?", "related": ["p1", "p2"], "answer": "fine."}]
        transport = ScriptedTransport().add("high-value question", json.dumps(payload))
        items = guided_qa(cluster, keynotes, papers, scripted_gateway(transport), n_questions=1)
        assert len(items) == 1

    def test_zero_questions_invalid(self, keynotes, papers):
        with pytest.raises(InvalidInputError):
            guided_qa(
                self._cluster(papers), keynotes, papers, scripted_gateway(), n_questions=0
            )


class TestInterCluster:
    def _clusters(self, papers):
        return [
            Cluster(1, "A", "s", {papers["p1"].id}),
            Cluster(2, "B", "s", {papers["p2"].id}),
        ]

    def test_two_clusters_clean_synthesis(self, keynotes, papers):
        transport = ScriptedTransport().add(
            "Contrast the clusters", "A emphasizes methods <Alpha Methods>; B systems."
        )
        text = inter_cluster_analysis(
            self._clusters(papers), [], papers, scripted_gateway(transport)
        )
        assert text

    def test_unknown_citation_stripped_after_retry(self, keynotes, papers):
        reply = "Cites a phantom <Phantom Paper> boldly."
        transport = ScriptedTransport().add("Contrast the clusters", reply)
        runlog = RunLog()
        text = inter_cluster_analysis(
            self._clusters(papers), [], papers, scripted_gateway(transport), runlog=runlog
        )
        assert "<Phantom Paper>" not in text
        assert [e["offending"] for e in runlog.attribution_events()] == ["Phantom Paper"]

    def test_unknown_mark_with_inner_spaces_is_stripped(self, keynotes, papers):
        reply = "Contrast < ghost > and <Alpha Methods>."
        transport = ScriptedTransport().add("Contrast the clusters", reply)
        runlog = RunLog()
        text = inter_cluster_analysis(
            self._clusters(papers), [], papers, scripted_gateway(transport), runlog=runlog
        )
        assert text == "Contrast  and <Alpha Methods>."
        assert [e["offending"] for e in runlog.attribution_events()] == ["ghost"]

    def test_single_cluster_is_precondition_error(self, papers):
        with pytest.raises(InvalidInputError):
            inter_cluster_analysis(
                [Cluster(1, "A", "s", {papers["p1"].id})], [], papers, scripted_gateway()
            )


def test_fabricated_id_yields_exactly_one_monitor_event_and_no_persistence(
    keynotes, papers
):
    """Attribution-monitor completeness across artifact kinds."""
    cluster = Cluster(1, "Pair", "s", {papers["p1"].id, papers["p3"].id})
    graph_payload = json.dumps(
        [{"from": "p1", "to": "fabricated9", "relation": "extension", "description": "x"}]
    )
    table_payload = json.dumps(
        {
            "columns": ["a", "b", "c"],
            "rows": [
                {"paper_id": "p1", "cells": {"a": "1", "b": "2", "c": "3"}},
                {"paper_id": "p3", "cells": {"a": "1", "b": "2", "c": "3"}},
            ],
        }
    )
    qa_payload = json.dumps(
        [{"question": "q?", "related": ["p1", "p3"], "answer": "all good."}]
    )
    transport = (
        ScriptedTransport()
        .add("technical lineage", graph_payload)
        .add("Compare the papers", table_payload)
        .add("high-value question", qa_payload)
    )
    runlog = RunLog()
    gateway = scripted_gateway(transport)
    qa_items = guided_qa(cluster, keynotes, papers, gateway, runlog=runlog)
    result = analyze_cluster(cluster, keynotes, papers, gateway, qa_items, runlog=runlog)
    events = runlog.attribution_events()
    assert len(events) == 1
    assert events[0]["offending"] == "fabricated9"
    assert "fabricated9" not in result.referenced_ids()
